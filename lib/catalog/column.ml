(** Typed column storage: the cell container of the columnar executor.

    A column stores one attribute of a table (or intermediate result) for
    many rows. Numeric attributes live unboxed in {!Bigarray} buffers —
    [Int]/[Date]/[Bool] share an int buffer distinguished by a tag,
    [Float] gets a float64 buffer — with an optional null mask; anything
    else (strings, or type-mixed columns produced by e.g. CASE branches of
    different types) falls back to a boxed {!Value.t} array. [get] always
    reconstructs the exact {!Value.t} that was stored, so the columnar
    engine and the boxed row engine see identical values. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** How the int buffer's cells decode back to {!Value.t}. *)
type int_tag = As_int | As_date | As_bool

type t =
  | Ints of { tag : int_tag; data : ints; nulls : Bytes.t option }
  | Floats of { data : floats; nulls : Bytes.t option }
  | Boxed of Value.t array

let length = function
  | Ints { data; _ } -> Bigarray.Array1.dim data
  | Floats { data; _ } -> Bigarray.Array1.dim data
  | Boxed a -> Array.length a

let null_bit nulls i =
  match nulls with None -> false | Some b -> Bytes.unsafe_get b i <> '\000'

let is_null c i =
  match c with
  | Ints { nulls; _ } | Floats { nulls; _ } -> null_bit nulls i
  | Boxed a -> Value.is_null a.(i)

let decode_int tag (x : int) : Value.t =
  match tag with
  | As_int -> Value.Int x
  | As_date -> Value.Date x
  | As_bool -> Value.Bool (x <> 0)

let get c i : Value.t =
  match c with
  | Ints { tag; data; nulls } ->
    if null_bit nulls i then Value.Null else decode_int tag data.{i}
  | Floats { data; nulls } ->
    if null_bit nulls i then Value.Null else Value.Float data.{i}
  | Boxed a -> a.(i)

let has_nulls = function
  | Ints { nulls = None; _ } | Floats { nulls = None; _ } -> false
  | Ints { nulls = Some b; _ } | Floats { nulls = Some b; _ } ->
    Bytes.exists (fun c -> c <> '\000') b
  | Boxed a -> Array.exists Value.is_null a

(* Serialized width, matching per-value {!Value.width} accounting exactly:
   the simulated clock must be independent of the storage representation. *)
let bytes_at c i =
  match c with
  | Ints { tag; nulls; _ } ->
    if null_bit nulls i then 1
    else (match tag with As_int -> 8 | As_date -> 4 | As_bool -> 1)
  | Floats { nulls; _ } -> if null_bit nulls i then 1 else 8
  | Boxed a -> Value.width a.(i)

let bytes c =
  let n = length c in
  match c with
  | Ints { tag; nulls = None; _ } ->
    n * (match tag with As_int -> 8 | As_date -> 4 | As_bool -> 1)
  | Floats { nulls = None; _ } -> n * 8
  | _ ->
    let acc = ref 0 in
    for i = 0 to n - 1 do acc := !acc + bytes_at c i done;
    !acc

(* -- construction -- *)

let make_ints n : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let make_floats n : floats = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

(** Incremental column builder. Starts representation-less and adapts to
    the values fed: the first non-null value picks an unboxed buffer when
    possible; a later incompatible value demotes everything to [Boxed].
    Int-vs-float mixes also demote (promotion would change [Int 1] into
    [Float 1.], which is {!Value.equal} but not identical — the row oracle
    would notice in formatting and SUM typing). *)
module Builder = struct
  type mode = Empty | BInt of int_tag | BFloat | BBoxed

  type col = t

  type t = {
    mutable mode : mode;
    mutable idata : ints;
    mutable fdata : floats;
    mutable boxed : Value.t array;
    mutable nulls : Bytes.t;
    mutable has_null : bool;
    mutable len : int;
    mutable cap : int;
  }

  let dummy_i = make_ints 0
  let dummy_f = make_floats 0

  let create ?(capacity = 16) () =
    let cap = max capacity 1 in
    { mode = Empty; idata = dummy_i; fdata = dummy_f; boxed = [||];
      nulls = Bytes.make cap '\000'; has_null = false; len = 0; cap }

  let grow b =
    let cap' = b.cap * 2 in
    let nulls' = Bytes.make cap' '\000' in
    Bytes.blit b.nulls 0 nulls' 0 b.len;
    b.nulls <- nulls';
    (match b.mode with
     | Empty -> ()
     | BInt _ ->
       let d = make_ints cap' in
       Bigarray.Array1.blit b.idata (Bigarray.Array1.sub d 0 b.cap);
       b.idata <- d
     | BFloat ->
       let d = make_floats cap' in
       Bigarray.Array1.blit b.fdata (Bigarray.Array1.sub d 0 b.cap);
       b.fdata <- d
     | BBoxed ->
       let d = Array.make cap' Value.Null in
       Array.blit b.boxed 0 d 0 b.len;
       b.boxed <- d);
    b.cap <- cap'

  (* demote the accumulated prefix to boxed values *)
  let to_boxed b =
    let d = Array.make b.cap Value.Null in
    (match b.mode with
     | Empty | BBoxed -> ()
     | BInt tag ->
       for i = 0 to b.len - 1 do
         if Bytes.get b.nulls i = '\000' then d.(i) <- decode_int tag b.idata.{i}
       done
     | BFloat ->
       for i = 0 to b.len - 1 do
         if Bytes.get b.nulls i = '\000' then d.(i) <- Value.Float b.fdata.{i}
       done);
    b.boxed <- d;
    b.idata <- dummy_i;
    b.fdata <- dummy_f;
    b.mode <- BBoxed

  let start_ints b tag =
    (* only reachable from Empty: every stored prefix cell is null *)
    b.idata <- make_ints b.cap;
    Bigarray.Array1.fill b.idata 0;
    b.mode <- BInt tag

  let start_floats b =
    b.fdata <- make_floats b.cap;
    Bigarray.Array1.fill b.fdata 0.;
    b.mode <- BFloat

  let add b (v : Value.t) =
    if b.len = b.cap then grow b;
    let i = b.len in
    (match v with
     | Value.Null ->
       b.has_null <- true;
       Bytes.set b.nulls i '\001';
       (match b.mode with
        | BBoxed -> b.boxed.(i) <- Value.Null
        | BInt _ -> b.idata.{i} <- 0
        | BFloat -> b.fdata.{i} <- 0.
        | Empty -> ())
     | Value.Int x ->
       (match b.mode with
        | Empty -> start_ints b As_int
        | BInt As_int -> ()
        | BInt _ | BFloat -> to_boxed b
        | BBoxed -> ());
       (match b.mode with
        | BInt As_int -> b.idata.{i} <- x
        | _ -> b.boxed.(i) <- v)
     | Value.Date x ->
       (match b.mode with
        | Empty -> start_ints b As_date
        | BInt As_date -> ()
        | BInt _ | BFloat -> to_boxed b
        | BBoxed -> ());
       (match b.mode with
        | BInt As_date -> b.idata.{i} <- x
        | _ -> b.boxed.(i) <- v)
     | Value.Bool x ->
       (match b.mode with
        | Empty -> start_ints b As_bool
        | BInt As_bool -> ()
        | BInt _ | BFloat -> to_boxed b
        | BBoxed -> ());
       (match b.mode with
        | BInt As_bool -> b.idata.{i} <- (if x then 1 else 0)
        | _ -> b.boxed.(i) <- v)
     | Value.Float x ->
       (match b.mode with
        | Empty -> start_floats b
        | BFloat -> ()
        | BInt _ -> to_boxed b
        | BBoxed -> ());
       (match b.mode with
        | BFloat -> b.fdata.{i} <- x
        | _ -> b.boxed.(i) <- v)
     | Value.String _ ->
       (match b.mode with
        | BBoxed -> ()
        | _ -> to_boxed b);
       b.boxed.(i) <- v);
    b.len <- i + 1

  let finish b : col =
    let n = b.len in
    let nulls = if b.has_null then Some (Bytes.sub b.nulls 0 n) else None in
    match b.mode with
    | Empty ->
      (* all nulls (or empty) *)
      Boxed (Array.make n Value.Null)
    | BInt tag ->
      let d = make_ints n in
      Bigarray.Array1.blit (Bigarray.Array1.sub b.idata 0 n) d;
      Ints { tag; data = d; nulls }
    | BFloat ->
      let d = make_floats n in
      Bigarray.Array1.blit (Bigarray.Array1.sub b.fdata 0 n) d;
      Floats { data = d; nulls }
    | BBoxed -> Boxed (Array.sub b.boxed 0 n)

  let length b = b.len
end

let of_values (a : Value.t array) : t =
  let b = Builder.create ~capacity:(max 1 (Array.length a)) () in
  Array.iter (Builder.add b) a;
  Builder.finish b

let of_value_list (l : Value.t list) : t =
  let b = Builder.create () in
  List.iter (Builder.add b) l;
  Builder.finish b

let to_values (c : t) : Value.t array =
  match c with
  | Boxed a -> Array.copy a
  | _ -> Array.init (length c) (get c)

(* -- bulk operations -- *)

(** [gather c idx] builds a dense column with the rows [idx.(0 .. n-1)] of
    [c], in order ([n] defaults to [Array.length idx]). An index of [-1]
    yields [Null] (left-outer null extension). A column without a null
    mask copies straight through until it meets a [-1], with no per-cell
    mask test. *)
let gather ?n (c : t) (idx : int array) : t =
  let m = match n with Some n -> n | None -> Array.length idx in
  (* the masked copy: source nulls and [-1] indices both give NULL *)
  let masked_ints tag (data : ints) nulls =
    let d = make_ints m in
    let mask = Bytes.make m '\000' in
    let any = ref false in
    for k = 0 to m - 1 do
      let i = Array.unsafe_get idx k in
      if i < 0 || null_bit nulls i then begin
        Bigarray.Array1.unsafe_set d k 0; Bytes.unsafe_set mask k '\001'; any := true
      end
      else Bigarray.Array1.unsafe_set d k data.{i}
    done;
    Ints { tag; data = d; nulls = (if !any then Some mask else None) }
  in
  let masked_floats (data : floats) nulls =
    let d = make_floats m in
    let mask = Bytes.make m '\000' in
    let any = ref false in
    for k = 0 to m - 1 do
      let i = Array.unsafe_get idx k in
      if i < 0 || null_bit nulls i then begin
        Bigarray.Array1.unsafe_set d k 0.; Bytes.unsafe_set mask k '\001'; any := true
      end
      else Bigarray.Array1.unsafe_set d k data.{i}
    done;
    Floats { data = d; nulls = (if !any then Some mask else None) }
  in
  if m > Array.length idx then invalid_arg "Column.gather";
  match c with
  | Ints { tag; data; nulls = None } ->
    let d = make_ints m in
    let k = ref 0 in
    while !k < m && Array.unsafe_get idx !k >= 0 do
      Bigarray.Array1.unsafe_set d !k data.{Array.unsafe_get idx !k};
      incr k
    done;
    if !k = m then Ints { tag; data = d; nulls = None } else masked_ints tag data None
  | Floats { data; nulls = None } ->
    let d = make_floats m in
    let k = ref 0 in
    while !k < m && Array.unsafe_get idx !k >= 0 do
      Bigarray.Array1.unsafe_set d !k data.{Array.unsafe_get idx !k};
      incr k
    done;
    if !k = m then Floats { data = d; nulls = None } else masked_floats data None
  | Ints { tag; data; nulls } -> masked_ints tag data nulls
  | Floats { data; nulls } -> masked_floats data nulls
  | Boxed a ->
    Boxed (Array.init m (fun k -> let i = Array.unsafe_get idx k in if i < 0 then Value.Null else a.(i)))

(** Concatenate columns (in order). Homogeneous unboxed representations
    concatenate buffer-to-buffer; mixed representations demote to boxed. *)
let concat (cs : t list) : t =
  match cs with
  | [] -> Boxed [||]
  | [ c ] -> c
  | first :: _ ->
    let total = List.fold_left (fun acc c -> acc + length c) 0 cs in
    let homogeneous_int tag =
      List.for_all (function Ints { tag = t'; _ } -> t' = tag | _ -> false) cs
    in
    let homogeneous_float =
      List.for_all (function Floats _ -> true | _ -> false) cs
    in
    (match first with
     | Ints { tag; _ } when homogeneous_int tag ->
       let d = make_ints total in
       let mask = Bytes.make total '\000' in
       let any = ref false in
       let off = ref 0 in
       List.iter
         (function
           | Ints { data; nulls; _ } ->
             let n = Bigarray.Array1.dim data in
             if n > 0 then
               Bigarray.Array1.blit data (Bigarray.Array1.sub d !off n);
             (match nulls with
              | Some b ->
                Bytes.blit b 0 mask !off n;
                if Bytes.exists (fun c -> c <> '\000') b then any := true
              | None -> ());
             off := !off + n
           | _ -> assert false)
         cs;
       Ints { tag; data = d; nulls = (if !any then Some mask else None) }
     | Floats _ when homogeneous_float ->
       let d = make_floats total in
       let mask = Bytes.make total '\000' in
       let any = ref false in
       let off = ref 0 in
       List.iter
         (function
           | Floats { data; nulls } ->
             let n = Bigarray.Array1.dim data in
             if n > 0 then
               Bigarray.Array1.blit data (Bigarray.Array1.sub d !off n);
             (match nulls with
              | Some b ->
                Bytes.blit b 0 mask !off n;
                if Bytes.exists (fun c -> c <> '\000') b then any := true
              | None -> ());
             off := !off + n
           | _ -> assert false)
         cs;
       Floats { data = d; nulls = (if !any then Some mask else None) }
     | _ ->
       let d = Array.make total Value.Null in
       let off = ref 0 in
       List.iter
         (fun c ->
            let n = length c in
            (match c with
             | Boxed a -> Array.blit a 0 d !off n
             | _ -> for i = 0 to n - 1 do d.(!off + i) <- get c i done);
            off := !off + n)
         cs;
       Boxed d)

(* -- column-major tables -- *)

(** A column-major table: the base-table storage format of the columnar
    engine (and the output format of the TPC-H generator). *)
type table = {
  nrows : int;
  cols : t array;
}

let table_of_rows ~(width : int) (rows : Value.t array list) : table =
  let n = List.length rows in
  let bs = Array.init width (fun _ -> Builder.create ~capacity:(max 1 n) ()) in
  List.iter (fun row -> Array.iteri (fun j b -> Builder.add b row.(j)) bs) rows;
  { nrows = n; cols = Array.map Builder.finish bs }

let table_rows (t : table) : Value.t array list =
  List.init t.nrows (fun i -> Array.map (fun c -> get c i) t.cols)
