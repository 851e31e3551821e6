(** Columnar batches and vectorized operator kernels: the columnar
    engine's counterpart of {!Local}'s row-at-a-time interpreter.

    A batch is a set of typed columns ({!Catalog.Column.t}) plus an
    optional *selection vector*: filters never materialize, they narrow
    the selection, and downstream kernels (aggregation in particular)
    iterate the selection over the original column slices. Each
    operator compiles its expressions once per execution against its
    input's layout and column representations ({!pred}, {!scalar}):
    column positions are resolved once, and the compiled kernels loop
    over unboxed buffers through selection vectors. Boxed cells are
    read only where the column itself is boxed (strings, type-mixed
    columns). Results are row-identical to the {!Local} oracle —
    including output *order*, which mirrors the row engine's
    construction order exactly (probe-side order for joins, first-seen
    order for groups, stable sorts) — and so are its type errors: a
    kernel evaluates a sub-expression on exactly the rows
    {!Algebra.Expr.eval} would. *)

open Algebra
open Memo
module Value = Catalog.Value
module Column = Catalog.Column

type t = {
  layout : int array;        (** column ids, parallel to [cols] *)
  cols : Column.t array;     (** dense columns, each of [rows] cells *)
  rows : int;                (** dense row count *)
  sel : int array option;    (** selected row indices, increasing; [None] = all *)
}

(** Visible (selected) row count. *)
let count b = match b.sel with Some s -> Array.length s | None -> b.rows

let identity n =
  let a = Array.make (max n 0) 0 in
  for i = 0 to n - 1 do Array.unsafe_set a i i done;
  a

(** Materialize the selection: gather every column down to the selected
    rows. No-op on dense batches. *)
let compact b =
  match b.sel with
  | None -> b
  | Some s ->
    { b with cols = Array.map (fun c -> Column.gather c s) b.cols;
      rows = Array.length s; sel = None }

(** Serialized bytes of the visible rows, matching the row engine's
    per-value {!Catalog.Value.width} accounting bit-for-bit. *)
let bytes b : float =
  match b.sel with
  | None -> Array.fold_left (fun acc c -> acc +. float_of_int (Column.bytes c)) 0. b.cols
  | Some s ->
    let acc = ref 0 in
    Array.iter
      (fun c ->
         match c with
         | Column.Ints { nulls = None; _ } | Column.Floats { nulls = None; _ } ->
           if Array.length s > 0 then acc := !acc + (Array.length s * Column.bytes_at c 0)
         | _ -> Array.iter (fun i -> acc := !acc + Column.bytes_at c i) s)
      b.cols;
    float_of_int !acc

(* -- layout resolution -- *)

(* first occurrence of column id [c] in the layout *)
let find_col (b : t) (c : int) : int option =
  let l = b.layout in
  let rec go p =
    if p >= Array.length l then None
    else if Array.unsafe_get l p = c then Some p
    else go (p + 1)
  in
  go 0

let not_in_layout c = Local.Exec_error (Printf.sprintf "column #%d not in layout" c)

let col_pos b c = match find_col b c with Some p -> p | None -> raise (not_in_layout c)

(** Positions (first occurrence) of [cols] in the batch layout. *)
let positions (b : t) (cols : int list) : int array =
  Array.of_list (List.map (col_pos b) cols)

(* -- selections -- *)

(* The rows a kernel runs on: the increasing row indices [ix.(0 .. n-1)].
   [dense] marks a whole batch's rows, whose [ix] is the per-domain
   identity buffer (possibly longer than [n]); every other selection's
   [ix] is exactly [n] long. Sub-selections are subsequences, so two of
   them merge and subtract by a linear walk. *)
type selection = { ix : int array; n : int; dense : bool }

let no_rows = { ix = [||]; n = 0; dense = false }

(* The identity buffer is replaced, never written, when it grows: a
   selection that holds an older one stays valid. *)
let ident_key : int array ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [||])

let ident n =
  let r = Domain.DLS.get ident_key in
  if Array.length !r < n then r := identity (max n (2 * Array.length !r));
  !r

let all_rows n = { ix = ident n; n; dense = true }
let of_rows ix = { ix; n = Array.length ix; dense = false }

let selection (b : t) = match b.sel with Some s -> of_rows s | None -> all_rows b.rows

(* Per-domain scratch for kernel outputs: TRUE rows go to one buffer,
   FALSE rows to the other, and a kernel copies out the exact-size result
   before it returns, so kernels never hold a buffer across a call.
   Reusing them keeps the transient full-width buffers off the major heap,
   where allocation-triggered marking would make a filter's cost grow
   with the live heap. *)
let int_buf_key () : int array ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [||])
let scratch_t = int_buf_key ()
let scratch_f = int_buf_key ()

let scratch key n =
  let r = Domain.DLS.get key in
  if Array.length !r < n then r := Array.make (max n (2 * Array.length !r)) 0;
  !r

let cut buf m = if m = 0 then no_rows else of_rows (Array.sub buf 0 m)

(* union of two disjoint sub-selections *)
let merge a b =
  if a.n = 0 then b
  else if b.n = 0 then a
  else begin
    let out = Array.make (a.n + b.n) 0 in
    let i = ref 0 and j = ref 0 in
    for k = 0 to a.n + b.n - 1 do
      if !j >= b.n || (!i < a.n && a.ix.(!i) < b.ix.(!j)) then begin
        out.(k) <- a.ix.(!i); incr i
      end
      else begin out.(k) <- b.ix.(!j); incr j end
    done;
    of_rows out
  end

(* the rows of [s] in neither [a] nor [b], two disjoint sub-selections *)
let diff s a b =
  if a.n + b.n = 0 then s
  else if a.n + b.n = s.n then no_rows
  else begin
    let out = Array.make (s.n - a.n - b.n) 0 in
    let i = ref 0 and j = ref 0 and m = ref 0 in
    for k = 0 to s.n - 1 do
      let r = s.ix.(k) in
      if !i < a.n && a.ix.(!i) = r then incr i
      else if !j < b.n && b.ix.(!j) = r then incr j
      else begin out.(!m) <- r; incr m end
    done;
    of_rows out
  end

(* -- conversions -- *)

let of_rset (r : Local.rset) : t =
  let layout = Array.of_list r.Local.layout in
  let w = Array.length layout in
  let n = List.length r.Local.rows in
  let bs = Array.init w (fun _ -> Column.Builder.create ~capacity:(max 1 n) ()) in
  List.iter
    (fun row -> for j = 0 to w - 1 do Column.Builder.add bs.(j) row.(j) done)
    r.Local.rows;
  { layout; cols = Array.map Column.Builder.finish bs; rows = n; sel = None }

(** The visible rows, boxed in selection order and consed onto [tail]:
    the one copy a client result needs. *)
let rows_onto (b : t) (tail : Local.rows) : Local.rows =
  let s = selection b in
  let w = Array.length b.cols in
  let acc = ref tail in
  for k = s.n - 1 downto 0 do
    let i = s.ix.(k) in
    let row = Array.make w Value.Null in
    for j = 0 to w - 1 do Array.unsafe_set row j (Column.get b.cols.(j) i) done;
    acc := row :: !acc
  done;
  !acc

let to_rset (b : t) : Local.rset =
  { Local.layout = Array.to_list b.layout; rows = rows_onto b [] }

(** View a column-major base table as a dense batch (layout filled in by
    the scan operator). *)
let of_table (tbl : Column.table) : t =
  { layout = Array.make (Array.length tbl.Column.cols) (-1);
    cols = tbl.Column.cols; rows = tbl.Column.nrows; sel = None }

let empty (layout : int list) : t =
  { layout = Array.of_list layout;
    cols = Array.of_list (List.map (fun _ -> Column.Boxed [||]) layout);
    rows = 0; sel = None }

(* -- small growable int vector (join/group outputs) -- *)

module Ivec = struct
  type t = { mutable a : int array; mutable len : int }
  let create ?(capacity = 16) () = { a = Array.make (max 1 capacity) 0; len = 0 }
  let push v x =
    if v.len = Array.length v.a then begin
      let a' = Array.make (2 * Array.length v.a) 0 in
      Array.blit v.a 0 a' 0 v.len;
      v.a <- a'
    end;
    Array.unsafe_set v.a v.len x;
    v.len <- v.len + 1
  let contents v = Array.sub v.a 0 v.len
end

(* -- column constructors -- *)

let const_col (v : Value.t) n : Column.t =
  match v with
  | Value.Int x ->
    let d = Column.make_ints n in
    Bigarray.Array1.fill d x;
    Column.Ints { tag = Column.As_int; data = d; nulls = None }
  | Value.Date x ->
    let d = Column.make_ints n in
    Bigarray.Array1.fill d x;
    Column.Ints { tag = Column.As_date; data = d; nulls = None }
  | Value.Bool x ->
    let d = Column.make_ints n in
    Bigarray.Array1.fill d (if x then 1 else 0);
    Column.Ints { tag = Column.As_bool; data = d; nulls = None }
  | Value.Float x ->
    let d = Column.make_floats n in
    Bigarray.Array1.fill d x;
    Column.Floats { data = d; nulls = None }
  | _ -> Column.Boxed (Array.make n v)

(* A typed kernel result in the column builder's representation: a
   column with no non-null cell is boxed, as {!Column.Builder} makes it,
   and a mask with no null bit is dropped. *)
let normal (c : Column.t) : Column.t =
  match c with
  | Column.Ints { nulls = Some m; _ } | Column.Floats { nulls = Some m; _ } ->
    if not (Bytes.exists (fun ch -> ch = '\000') m) then
      Column.Boxed (Array.make (Bytes.length m) Value.Null)
    else if not (Bytes.exists (fun ch -> ch <> '\000') m) then
      (match c with
       | Column.Ints r -> Column.Ints { r with nulls = None }
       | Column.Floats r -> Column.Floats { r with nulls = None }
       | Column.Boxed _ -> c)
    else c
  | _ -> c

(* the exact per-cell semantics over boxed cells, for the columns no
   typed kernel covers *)
let map_cells (f : Value.t -> Value.t) (c : Column.t) : Column.t =
  let n = Column.length c in
  let bld = Column.Builder.create ~capacity:(max 1 n) () in
  for k = 0 to n - 1 do Column.Builder.add bld (f (Column.get c k)) done;
  Column.Builder.finish bld

(* merge two optional null masks of [n] cells *)
let or_nulls n (a : Bytes.t option) (b : Bytes.t option) : Bytes.t option =
  match a, b with
  | None, m | m, None -> m
  | Some x, Some y ->
    Some (Bytes.init n (fun k ->
        if Bytes.unsafe_get x k <> '\000' || Bytes.unsafe_get y k <> '\000' then '\001'
        else '\000'))

(* the Bool column over [s]'s rows: TRUE on [t], FALSE on [f], NULL
   elsewhere *)
let tri_col (s : selection) (t : selection) (f : selection) : Column.t =
  let n = s.n in
  if t.n + f.n = 0 then Column.Boxed (Array.make n Value.Null)
  else begin
    let d = Column.make_ints n in
    let nulls = if t.n + f.n < n then Some (Bytes.make n '\000') else None in
    let i = ref 0 and j = ref 0 in
    for k = 0 to n - 1 do
      let r = s.ix.(k) in
      if !i < t.n && t.ix.(!i) = r then begin d.{k} <- 1; incr i end
      else if !j < f.n && f.ix.(!j) = r then begin d.{k} <- 0; incr j end
      else begin
        d.{k} <- 0;
        match nulls with Some m -> Bytes.unsafe_set m k '\001' | None -> ()
      end
    done;
    Column.Ints { tag = Column.As_bool; data = d; nulls }
  end

(* Put disjoint pieces [(rows, column of rows.n cells)] of [s] together
   into one column of [s.n] cells in selection order; rows no piece covers
   are NULL. Pieces sharing one unboxed representation assemble unboxed,
   any other mix through the builder, as the row engine's values would. *)
let assemble (s : selection) (pieces : (selection * Column.t) list) : Column.t =
  let pieces = List.filter (fun (p, _) -> p.n > 0) pieces in
  match pieces with
  | [] -> Column.Boxed (Array.make s.n Value.Null)
  | [ (p, c) ] when p.n = s.n -> c
  | _ ->
    let n = s.n in
    let pa = Array.of_list pieces in
    let np = Array.length pa in
    let cur = Array.make np 0 in
    let src = Array.make n (-1) and at = Array.make n 0 in
    for k = 0 to n - 1 do
      let r = s.ix.(k) in
      let q = ref 0 in
      while
        !q < np
        && (let p, _ = pa.(!q) in cur.(!q) >= p.n || p.ix.(cur.(!q)) <> r)
      do incr q done;
      if !q < np then begin
        src.(k) <- !q; at.(k) <- cur.(!q); cur.(!q) <- cur.(!q) + 1
      end
    done;
    let tag_of = function Column.Ints { tag; _ } -> Some tag | _ -> None in
    let all_ints =
      match tag_of (snd pa.(0)) with
      | Some t0 -> Array.for_all (fun (_, c) -> tag_of c = Some t0) pa
      | None -> false
    in
    let all_floats = Array.for_all (fun (_, c) -> match c with Column.Floats _ -> true | _ -> false) pa in
    if all_ints || all_floats then begin
      let mask = Bytes.make n '\000' in
      let is_null k = src.(k) < 0 || Column.is_null (snd pa.(src.(k))) at.(k) in
      let col =
        if all_ints then begin
          let d = Column.make_ints n in
          for k = 0 to n - 1 do
            if is_null k then begin d.{k} <- 0; Bytes.unsafe_set mask k '\001' end
            else
              match snd pa.(src.(k)) with
              | Column.Ints { data; _ } -> d.{k} <- data.{at.(k)}
              | _ -> assert false
          done;
          let tag = Option.get (tag_of (snd pa.(0))) in
          Column.Ints { tag; data = d; nulls = Some mask }
        end
        else begin
          let d = Column.make_floats n in
          for k = 0 to n - 1 do
            if is_null k then begin d.{k} <- 0.; Bytes.unsafe_set mask k '\001' end
            else
              match snd pa.(src.(k)) with
              | Column.Floats { data; _ } -> d.{k} <- data.{at.(k)}
              | _ -> assert false
          done;
          Column.Floats { data = d; nulls = Some mask }
        end
      in
      normal col
    end
    else begin
      let bld = Column.Builder.create ~capacity:(max 1 n) () in
      for k = 0 to n - 1 do
        Column.Builder.add bld
          (if src.(k) < 0 then Value.Null else Column.get (snd pa.(src.(k))) at.(k))
      done;
      Column.Builder.finish bld
    end

(* -- scalar kernels: dense operand columns in, a dense column out -- *)

(* an unboxed numeric column's cells as floats, index for index *)
let float_data (c : Column.t) : Column.floats =
  match c with
  | Column.Floats { data; _ } -> data
  | Column.Ints { data; _ } ->
    let n = Bigarray.Array1.dim data in
    let d = Column.make_floats n in
    for k = 0 to n - 1 do d.{k} <- float_of_int data.{k} done;
    d
  | Column.Boxed _ -> invalid_arg "float_data"

(* [Expr.arith]'s typing over a pair of unboxed columns: date +/- days is
   a date, any other int-or-date pair computes on ints, a float on either
   side computes on floats; Div/Mod by zero is NULL *)
let arith_cols (op : Expr.binop) (ca : Column.t) (cb : Column.t) : Column.t =
  let n = Column.length ca in
  let generic () =
    let bld = Column.Builder.create ~capacity:(max 1 n) () in
    for k = 0 to n - 1 do
      let x = Column.get ca k and y = Column.get cb k in
      Column.Builder.add bld
        (if Value.is_null x || Value.is_null y then Value.Null else Expr.arith op x y)
    done;
    Column.Builder.finish bld
  in
  let numeric = function
    | Column.Ints { tag = Column.As_bool; _ } | Column.Boxed _ -> false
    | Column.Ints _ | Column.Floats _ -> true
  in
  if not (numeric ca && numeric cb) then generic ()
  else begin
    let na = match ca with Column.Ints { nulls; _ } | Column.Floats { nulls; _ } -> nulls | _ -> None in
    let nb = match cb with Column.Ints { nulls; _ } | Column.Floats { nulls; _ } -> nulls | _ -> None in
    let nulls = or_nulls n na nb in
    (* Div/Mod by zero adds NULL cells to the mask *)
    let zero_mask () =
      match nulls with Some m -> Bytes.copy m | None -> Bytes.make n '\000'
    in
    match ca, cb with
    | Column.Ints { tag = ta; data = xa; _ }, Column.Ints { tag = tb; data = xb; _ } ->
      (match op with
       | Expr.Add | Expr.Sub | Expr.Mul ->
         let tag =
           match op, ta, tb with
           | Expr.Add, Column.As_date, Column.As_int
           | Expr.Add, Column.As_int, Column.As_date
           | Expr.Sub, Column.As_date, Column.As_int -> Column.As_date
           | _ -> Column.As_int
         in
         let d = Column.make_ints n in
         (match op with
          | Expr.Add -> for k = 0 to n - 1 do d.{k} <- xa.{k} + xb.{k} done
          | Expr.Sub -> for k = 0 to n - 1 do d.{k} <- xa.{k} - xb.{k} done
          | _ -> for k = 0 to n - 1 do d.{k} <- xa.{k} * xb.{k} done);
         normal (Column.Ints { tag; data = d; nulls })
       | Expr.Div ->
         let d = Column.make_floats n and m = zero_mask () in
         for k = 0 to n - 1 do
           let y = xb.{k} in
           if y = 0 then begin d.{k} <- 0.; Bytes.unsafe_set m k '\001' end
           else d.{k} <- float_of_int xa.{k} /. float_of_int y
         done;
         normal (Column.Floats { data = d; nulls = Some m })
       | _ ->
         let d = Column.make_ints n and m = zero_mask () in
         for k = 0 to n - 1 do
           let y = xb.{k} in
           if y = 0 then begin d.{k} <- 0; Bytes.unsafe_set m k '\001' end
           else d.{k} <- xa.{k} mod y
         done;
         normal (Column.Ints { tag = Column.As_int; data = d; nulls = Some m }))
    | _ ->
      (* a float on either side: both sides as float buffers *)
      let xa = float_data ca and xb = float_data cb in
      let d = Column.make_floats n in
      (match op with
       | Expr.Add -> for k = 0 to n - 1 do d.{k} <- xa.{k} +. xb.{k} done
       | Expr.Sub -> for k = 0 to n - 1 do d.{k} <- xa.{k} -. xb.{k} done
       | Expr.Mul -> for k = 0 to n - 1 do d.{k} <- xa.{k} *. xb.{k} done
       | _ -> ());
      (match op with
       | Expr.Div | Expr.Mod ->
         let m = zero_mask () in
         for k = 0 to n - 1 do
           let y = xb.{k} in
           if y = 0. then begin d.{k} <- 0.; Bytes.unsafe_set m k '\001' end
           else d.{k} <- (if op = Expr.Div then xa.{k} /. y else Float.rem xa.{k} y)
         done;
         normal (Column.Floats { data = d; nulls = Some m })
       | _ -> normal (Column.Floats { data = d; nulls }))
  end

let neg_col (c : Column.t) : Column.t =
  match c with
  | Column.Ints { tag = Column.As_int; data; nulls } ->
    let n = Bigarray.Array1.dim data in
    let d = Column.make_ints n in
    for k = 0 to n - 1 do d.{k} <- - data.{k} done;
    normal (Column.Ints { tag = Column.As_int; data = d; nulls })
  | Column.Floats { data; nulls } ->
    let n = Bigarray.Array1.dim data in
    let d = Column.make_floats n in
    for k = 0 to n - 1 do d.{k} <- -. data.{k} done;
    normal (Column.Floats { data = d; nulls })
  | _ ->
    map_cells
      (function
        | Value.Int x -> Value.Int (-x)
        | Value.Float x -> Value.Float (-.x)
        | Value.Null -> Value.Null
        | v -> Expr.type_err "negate %s" (Value.to_string v))
      c

(* [f] over the non-null cells of an int column tagged [tin], giving an
   int column tagged [tout]; any other column through [fallback] *)
let map_ints ~tin ~tout (f : int -> int) (fallback : Column.t -> Column.t) (c : Column.t) =
  match c with
  | Column.Ints { tag; data; nulls } when tag = tin ->
    let n = Bigarray.Array1.dim data in
    let d = Column.make_ints n in
    (match nulls with
     | None -> for k = 0 to n - 1 do d.{k} <- f data.{k} done
     | Some _ ->
       for k = 0 to n - 1 do
         d.{k} <- (if Column.null_bit nulls k then 0 else f data.{k})
       done);
    normal (Column.Ints { tag = tout; data = d; nulls })
  | _ -> fallback c

let cast_col (ty : Catalog.Types.t) (c : Column.t) : Column.t =
  let fallback = map_cells (Expr.cast_value ty) in
  let retag tag = function
    | Column.Ints r -> Column.Ints { r with tag }
    | c -> c
  in
  match ty, c with
  | Catalog.Types.Tint, Column.Ints { tag = Column.As_int; _ }
  | Catalog.Types.Tdate, Column.Ints { tag = Column.As_date; _ }
  | Catalog.Types.Tbool, Column.Ints { tag = Column.As_bool; _ }
  | Catalog.Types.Tfloat, Column.Floats _ -> c
  | Catalog.Types.Tint, Column.Ints { tag = Column.As_date | Column.As_bool; _ } ->
    retag Column.As_int c
  | Catalog.Types.Tdate, Column.Ints { tag = Column.As_int; _ } -> retag Column.As_date c
  | Catalog.Types.Tbool, Column.Ints { tag = Column.As_int; _ } ->
    map_ints ~tin:Column.As_int ~tout:Column.As_bool
      (fun x -> if x <> 0 then 1 else 0) fallback c
  | Catalog.Types.Tint, Column.Floats { data; nulls } ->
    let n = Bigarray.Array1.dim data in
    let d = Column.make_ints n in
    for k = 0 to n - 1 do
      d.{k} <- (if Column.null_bit nulls k then 0 else int_of_float data.{k})
    done;
    normal (Column.Ints { tag = Column.As_int; data = d; nulls })
  | Catalog.Types.Tfloat, Column.Ints { data; nulls; _ } ->
    let n = Bigarray.Array1.dim data in
    let d = Column.make_floats n in
    for k = 0 to n - 1 do d.{k} <- float_of_int data.{k} done;
    normal (Column.Floats { data = d; nulls })
  | _ -> fallback c

(* -- predicate kernels: a selection in, its TRUE and FALSE rows out -- *)

(* which orderings of (left, right) make a comparison TRUE *)
let flags (op : Expr.binop) =
  ( (op = Expr.Lt || op = Expr.Le || op = Expr.Ne),
    (op = Expr.Le || op = Expr.Ge || op = Expr.Eq),
    (op = Expr.Gt || op = Expr.Ge || op = Expr.Ne) )

(* mirror a comparison so the literal moves to the right-hand side *)
let mirror_cmp = function
  | Expr.Lt -> Expr.Gt | Expr.Gt -> Expr.Lt
  | Expr.Le -> Expr.Ge | Expr.Ge -> Expr.Le
  | op -> op

(* The comparison loops read each side at [at.(k)] for the k-th selected
   row: [s.ix] for a stored column read in place, the identity for a
   computed dense column. A NULL on either side is UNKNOWN: the row goes
   to neither output. The operator is hoisted into the three flags and the
   null masks are matched once, so the null-free loops are a compare and a
   store. FALSE rows are written only when [want_f]. *)

let ints_ints op ~want_f (s : selection) (xa : Column.ints) na (ia : int array)
    (xb : Column.ints) nb (ib : int array) =
  let lt, eq, gt = flags op in
  let n = s.n and ix = s.ix in
  let t = scratch scratch_t n and f = if want_f then scratch scratch_f n else [||] in
  let mt = ref 0 and mf = ref 0 in
  (match na, nb with
   | None, None ->
     for k = 0 to n - 1 do
       let x = Bigarray.Array1.unsafe_get xa (Array.unsafe_get ia k)
       and y = Bigarray.Array1.unsafe_get xb (Array.unsafe_get ib k) in
       if (if x < y then lt else if x = y then eq else gt) then begin
         Array.unsafe_set t !mt (Array.unsafe_get ix k); incr mt
       end
       else if want_f then begin Array.unsafe_set f !mf (Array.unsafe_get ix k); incr mf end
     done
   | _ ->
     for k = 0 to n - 1 do
       let p = Array.unsafe_get ia k and q = Array.unsafe_get ib k in
       if not (Column.null_bit na p || Column.null_bit nb q) then begin
         let x = Bigarray.Array1.unsafe_get xa p and y = Bigarray.Array1.unsafe_get xb q in
         if (if x < y then lt else if x = y then eq else gt) then begin
           Array.unsafe_set t !mt (Array.unsafe_get ix k); incr mt
         end
         else if want_f then begin Array.unsafe_set f !mf (Array.unsafe_get ix k); incr mf end
       end
     done);
  (cut t !mt, if want_f then cut f !mf else no_rows)

let ints_const op ~want_f (s : selection) (xa : Column.ints) na (ia : int array) (c : int) =
  let lt, eq, gt = flags op in
  let n = s.n and ix = s.ix in
  let t = scratch scratch_t n and f = if want_f then scratch scratch_f n else [||] in
  let mt = ref 0 and mf = ref 0 in
  (match na with
   | None ->
     for k = 0 to n - 1 do
       let x = Bigarray.Array1.unsafe_get xa (Array.unsafe_get ia k) in
       if (if x < c then lt else if x = c then eq else gt) then begin
         Array.unsafe_set t !mt (Array.unsafe_get ix k); incr mt
       end
       else if want_f then begin Array.unsafe_set f !mf (Array.unsafe_get ix k); incr mf end
     done
   | Some nb ->
     for k = 0 to n - 1 do
       let p = Array.unsafe_get ia k in
       if Bytes.unsafe_get nb p = '\000' then begin
         let x = Bigarray.Array1.unsafe_get xa p in
         if (if x < c then lt else if x = c then eq else gt) then begin
           Array.unsafe_set t !mt (Array.unsafe_get ix k); incr mt
         end
         else if want_f then begin Array.unsafe_set f !mf (Array.unsafe_get ix k); incr mf end
       end
     done);
  (cut t !mt, if want_f then cut f !mf else no_rows)

(* floats compare with [Float.compare], as {!Catalog.Value.compare} does;
   [xa] reads the left side's k-th value *)
let floats_floats op ~want_f (s : selection) (xa : Column.floats) na (ia : int array)
    (xb : Column.floats) nb (ib : int array) =
  let lt, eq, gt = flags op in
  let n = s.n and ix = s.ix in
  let t = scratch scratch_t n and f = if want_f then scratch scratch_f n else [||] in
  let mt = ref 0 and mf = ref 0 in
  for k = 0 to n - 1 do
    let p = Array.unsafe_get ia k and q = Array.unsafe_get ib k in
    if not (Column.null_bit na p || Column.null_bit nb q) then begin
      let v =
        Float.compare (Bigarray.Array1.unsafe_get xa p) (Bigarray.Array1.unsafe_get xb q)
      in
      if (if v < 0 then lt else if v = 0 then eq else gt) then begin
        Array.unsafe_set t !mt (Array.unsafe_get ix k); incr mt
      end
      else if want_f then begin Array.unsafe_set f !mf (Array.unsafe_get ix k); incr mf end
    end
  done;
  (cut t !mt, if want_f then cut f !mf else no_rows)

let floats_const op ~want_f (s : selection) (xa : Column.floats) na (ia : int array) (c : float) =
  let lt, eq, gt = flags op in
  let n = s.n and ix = s.ix in
  let t = scratch scratch_t n and f = if want_f then scratch scratch_f n else [||] in
  let mt = ref 0 and mf = ref 0 in
  (match na with
   | None ->
     for k = 0 to n - 1 do
       let v = Float.compare (Bigarray.Array1.unsafe_get xa (Array.unsafe_get ia k)) c in
       if (if v < 0 then lt else if v = 0 then eq else gt) then begin
         Array.unsafe_set t !mt (Array.unsafe_get ix k); incr mt
       end
       else if want_f then begin Array.unsafe_set f !mf (Array.unsafe_get ix k); incr mf end
     done
   | Some nb ->
     for k = 0 to n - 1 do
       let p = Array.unsafe_get ia k in
       if Bytes.unsafe_get nb p = '\000' then begin
         let v = Float.compare (Bigarray.Array1.unsafe_get xa p) c in
         if (if v < 0 then lt else if v = 0 then eq else gt) then begin
           Array.unsafe_set t !mt (Array.unsafe_get ix k); incr mt
         end
         else if want_f then begin Array.unsafe_set f !mf (Array.unsafe_get ix k); incr mf end
       end
     done);
  (cut t !mt, if want_f then cut f !mf else no_rows)

(* a stored string compared with a literal where it is stored *)
let strings_const op ~want_f (s : selection) (a : Value.t array) (ia : int array) (str : string) =
  let lt, eq, gt = flags op in
  let n = s.n and ix = s.ix in
  let t = scratch scratch_t n and f = if want_f then scratch scratch_f n else [||] in
  let mt = ref 0 and mf = ref 0 in
  let lit = Value.String str in
  for k = 0 to n - 1 do
    match Array.unsafe_get a (Array.unsafe_get ia k) with
    | Value.Null -> ()
    | cell ->
      let c =
        match cell with Value.String x -> String.compare x str | v -> Value.compare v lit
      in
      if (if c < 0 then lt else if c = 0 then eq else gt) then begin
        Array.unsafe_set t !mt (Array.unsafe_get ix k); incr mt
      end
      else if want_f then begin Array.unsafe_set f !mf (Array.unsafe_get ix k); incr mf end
  done;
  (cut t !mt, if want_f then cut f !mf else no_rows)

(* any other pair of cells, with {!Expr.compare3}'s semantics *)
let values_cmp op ~want_f (s : selection) (ga : int -> Value.t) (gb : int -> Value.t) =
  let lt, eq, gt = flags op in
  let n = s.n and ix = s.ix in
  let t = scratch scratch_t n and f = if want_f then scratch scratch_f n else [||] in
  let mt = ref 0 and mf = ref 0 in
  for k = 0 to n - 1 do
    let x = ga k and y = gb k in
    if not (Value.is_null x || Value.is_null y) then begin
      let c = Value.compare x y in
      if (if c < 0 then lt else if c = 0 then eq else gt) then begin
        Array.unsafe_set t !mt (Array.unsafe_get ix k); incr mt
      end
      else if want_f then begin Array.unsafe_set f !mf (Array.unsafe_get ix k); incr mf end
    end
  done;
  (cut t !mt, if want_f then cut f !mf else no_rows)

(* the NULL and non-NULL rows of [s], reading the column at [at] *)
let null_rows (s : selection) (c : Column.t) (at : int array) =
  match c with
  | Column.Ints { nulls = None; _ } | Column.Floats { nulls = None; _ } -> (no_rows, s)
  | _ ->
    let n = s.n in
    let t = scratch scratch_t n and f = scratch scratch_f n in
    let mt = ref 0 and mf = ref 0 in
    for k = 0 to n - 1 do
      if Column.is_null c (Array.unsafe_get at k) then begin t.(!mt) <- s.ix.(k); incr mt end
      else begin f.(!mf) <- s.ix.(k); incr mf end
    done;
    (cut t !mt, cut f !mf)

let like_rows ~negated (m : string -> bool) ~want_f (s : selection) (c : Column.t) (at : int array) =
  let n = s.n and ix = s.ix in
  let t = scratch scratch_t n and f = if want_f then scratch scratch_f n else [||] in
  let mt = ref 0 and mf = ref 0 in
  (match c with
   | Column.Boxed a ->
     for k = 0 to n - 1 do
       match Array.unsafe_get a (Array.unsafe_get at k) with
       | Value.String x ->
         if m x <> negated then begin Array.unsafe_set t !mt (Array.unsafe_get ix k); incr mt end
         else if want_f then begin Array.unsafe_set f !mf (Array.unsafe_get ix k); incr mf end
       | Value.Null -> ()
       | v -> Expr.type_err "LIKE on %s" (Value.to_string v)
     done
   | _ ->
     for k = 0 to n - 1 do
       let p = Array.unsafe_get at k in
       if not (Column.is_null c p) then
         Expr.type_err "LIKE on %s" (Value.to_string (Column.get c p))
     done);
  (cut t !mt, if want_f then cut f !mf else no_rows)

(* An IN list as typed item arrays, one per cell representation, with
   {!Catalog.Value.equal} semantics: an int cell equals an Int item, or a
   Float item it converts to exactly; a float cell equals a Float item or
   an Int item as a float ([Float.compare] folds -0. onto 0. and all NaNs
   together); dates, bools and strings equal only their own kind. A cell
   of any other kind, in a type-mixed column, is looked up in the list
   itself. Membership is a scan: IN lists are short. *)
type in_set = {
  ints : int array;
  dates : int array;
  bools : int array;
  floats : float array;       (** Float items, and Int items as floats *)
  float_items : float array;  (** Float items only *)
  strings : string array;
  items : Value.t list;
}

let in_set (items : Value.t list) : in_set =
  let pick f = Array.of_list (List.filter_map f items) in
  { ints = pick (function Value.Int x -> Some x | _ -> None);
    dates = pick (function Value.Date x -> Some x | _ -> None);
    bools = pick (function Value.Bool x -> Some (if x then 1 else 0) | _ -> None);
    floats =
      pick (function Value.Int x -> Some (float_of_int x) | Value.Float x -> Some x | _ -> None);
    float_items = pick (function Value.Float x -> Some x | _ -> None);
    strings = pick (function Value.String x -> Some x | _ -> None);
    items }

let mem_int (a : int array) x =
  let i = ref 0 in
  while !i < Array.length a && Array.unsafe_get a !i <> x do incr i done;
  !i < Array.length a

let mem_float (a : float array) x =
  let i = ref 0 in
  while !i < Array.length a && Float.compare (Array.unsafe_get a !i) x <> 0 do incr i done;
  !i < Array.length a

let mem_string (a : string array) x =
  let i = ref 0 in
  while !i < Array.length a && not (String.equal (Array.unsafe_get a !i) x) do incr i done;
  !i < Array.length a

let in_rows ~negated ~has_null (set : in_set) ~want_f (s : selection) (c : Column.t)
    (at : int array) =
  let n = s.n and ix = s.ix in
  let t = scratch scratch_t n and f = if want_f then scratch scratch_f n else [||] in
  let mt = ref 0 and mf = ref 0 in
  (* a hit is TRUE (FALSE when negated); a miss is FALSE (TRUE when
     negated), or UNKNOWN when the list holds a NULL *)
  let emit k hit =
    if hit || not has_null then
      if hit <> negated then begin Array.unsafe_set t !mt (Array.unsafe_get ix k); incr mt end
      else if want_f then begin Array.unsafe_set f !mf (Array.unsafe_get ix k); incr mf end
  in
  (match c with
   | Column.Ints { tag; data; nulls } ->
     let items =
       match tag with
       | Column.As_int -> set.ints | Column.As_date -> set.dates | Column.As_bool -> set.bools
     in
     let exact_floats = tag = Column.As_int && set.float_items <> [||] in
     for k = 0 to n - 1 do
       let p = Array.unsafe_get at k in
       if not (Column.null_bit nulls p) then begin
         let x = Bigarray.Array1.unsafe_get data p in
         emit k (mem_int items x || (exact_floats && mem_float set.float_items (float_of_int x)))
       end
     done
   | Column.Floats { data; nulls } ->
     for k = 0 to n - 1 do
       let p = Array.unsafe_get at k in
       if not (Column.null_bit nulls p) then
         emit k (mem_float set.floats (Bigarray.Array1.unsafe_get data p))
     done
   | Column.Boxed a ->
     for k = 0 to n - 1 do
       match Array.unsafe_get a (Array.unsafe_get at k) with
       | Value.Null -> ()
       | Value.String x -> emit k (mem_string set.strings x)
       | v -> emit k (List.exists (Value.equal v) set.items)
     done);
  (cut t !mt, if want_f then cut f !mf else no_rows)

(* The TRUE and FALSE rows of a value column read at [at]: a Bool cell
   classifies, a NULL is UNKNOWN, and any other value is a type error when
   [strict] (a WHERE predicate, as [Expr.eval_pred]) and UNKNOWN otherwise
   (a CASE condition, or the right operand of AND/OR beside an UNKNOWN
   left one, which [Expr.eval] folds to NULL). *)
let classify ~strict (s : selection) (c : Column.t) (at : int array) =
  let n = s.n and ix = s.ix in
  let not_bool v = Expr.type_err "predicate evaluated to %s" (Value.to_string v) in
  match c with
  | Column.Ints { tag = Column.As_bool; data; nulls } ->
    let t = scratch scratch_t n and f = scratch scratch_f n in
    let mt = ref 0 and mf = ref 0 in
    for k = 0 to n - 1 do
      let p = Array.unsafe_get at k in
      if not (Column.null_bit nulls p) then
        if Bigarray.Array1.unsafe_get data p <> 0 then begin t.(!mt) <- ix.(k); incr mt end
        else begin f.(!mf) <- ix.(k); incr mf end
    done;
    (cut t !mt, cut f !mf)
  | Column.Ints { nulls; _ } | Column.Floats { nulls; _ } ->
    if strict then
      for k = 0 to n - 1 do
        let p = Array.unsafe_get at k in
        if not (Column.null_bit nulls p) then not_bool (Column.get c p)
      done;
    (no_rows, no_rows)
  | Column.Boxed a ->
    let t = scratch scratch_t n and f = scratch scratch_f n in
    let mt = ref 0 and mf = ref 0 in
    for k = 0 to n - 1 do
      match a.(Array.unsafe_get at k) with
      | Value.Bool true -> t.(!mt) <- ix.(k); incr mt
      | Value.Bool false -> f.(!mf) <- ix.(k); incr mf
      | Value.Null -> ()
      | v -> if strict then not_bool v
    done;
    (cut t !mt, cut f !mf)

(* -- the expression compiler -- *)

(* A comparison or test operand: a batch column read in place at the
   selected rows, a computed expression evaluated into a dense column of
   the selection's cells, or a literal. *)
type operand =
  | Stored of Column.t
  | Computed of (selection -> Column.t)
  | Const of Value.t

type view = V of Column.t * int array | K of Value.t

let view (s : selection) = function
  | Stored c -> V (c, s.ix)
  | Computed f -> V (f s, ident s.n)
  | Const v -> K v

(* UNKNOWN is possible: a NULL cell, or a boxed cell that may be one *)
let nullable = function
  | Stored (Column.Ints { nulls = None; _ } | Column.Floats { nulls = None; _ }) -> false
  | Const v -> Value.is_null v
  | Stored _ | Computed _ -> true

(* a column id the layout lacks: the row engine's error, raised as soon as
   a row is evaluated *)
let missing c (s : selection) : Column.t =
  if s.n > 0 then raise (not_in_layout c) else Column.Boxed [||]

let cmp_const op ~want_f (s : selection) (c : Column.t) (at : int array) (v : Value.t) =
  match c, v with
  | _, Value.Null -> (no_rows, no_rows)
  | Column.Ints { tag = Column.As_int; data; nulls }, Value.Int x
  | Column.Ints { tag = Column.As_date; data; nulls }, Value.Date x ->
    ints_const op ~want_f s data nulls at x
  | Column.Ints { tag = Column.As_bool; data; nulls }, Value.Bool x ->
    ints_const op ~want_f s data nulls at (if x then 1 else 0)
  | Column.Floats { data; nulls }, Value.Float x -> floats_const op ~want_f s data nulls at x
  | Column.Floats { data; nulls }, Value.Int x ->
    floats_const op ~want_f s data nulls at (float_of_int x)
  | Column.Ints { tag = Column.As_int; nulls; _ }, Value.Float x ->
    floats_const op ~want_f s (float_data c) nulls at x
  | Column.Boxed a, Value.String x -> strings_const op ~want_f s a at x
  | _ -> values_cmp op ~want_f s (fun k -> Column.get c at.(k)) (fun _ -> v)

let cmp_cols op ~want_f (s : selection) ca (ia : int array) cb (ib : int array) =
  match ca, cb with
  | Column.Ints { tag = ta; data = xa; nulls = na }, Column.Ints { tag = tb; data = xb; nulls = nb }
    when ta = tb ->
    ints_ints op ~want_f s xa na ia xb nb ib
  | (Column.Floats { nulls = na; _ } | Column.Ints { tag = Column.As_int; nulls = na; _ }),
    (Column.Floats { nulls = nb; _ } | Column.Ints { tag = Column.As_int; nulls = nb; _ }) ->
    (* ints against floats compare as floats, as {!Catalog.Value.compare} does *)
    floats_floats op ~want_f s (float_data ca) na ia (float_data cb) nb ib
  | _ ->
    values_cmp op ~want_f s (fun k -> Column.get ca ia.(k)) (fun k -> Column.get cb ib.(k))

(** A compiled predicate. [split ~strict s] is the rows of [s] where it is
    TRUE and where it is FALSE; the rest are UNKNOWN. A non-Bool value
    raises when [strict] and is UNKNOWN otherwise (see {!classify}).
    [keep] is [split ~strict:true]'s TRUE rows, without computing the FALSE
    ones where it can. [total]: no row is ever UNKNOWN or non-Bool. *)
type pred = {
  total : bool;
  keep : selection -> selection;
  split : strict:bool -> selection -> selection * selection;
}

let of_split ~total split = { total; keep = (fun s -> fst (split ~strict:true s)); split }

(* a kernel whose outcome never depends on strictness *)
let of_kernel ~total (k : want_f:bool -> selection -> selection * selection) =
  { total;
    keep = (fun s -> if s.n = 0 then no_rows else fst (k ~want_f:false s));
    split = (fun ~strict:_ s -> if s.n = 0 then (no_rows, no_rows) else k ~want_f:true s) }

(* Bool-valued whatever the rows: its values are Bool or NULL (or it
   raises), so its column is {!tri_col} of its split *)
let rec is_bool (b : t) (e : Expr.t) =
  match e with
  | Expr.Lit (Value.Bool _ | Value.Null) -> true
  | Expr.Bin ((Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge), _, _)
  | Expr.Is_null _ | Expr.Like _ | Expr.In_list _ | Expr.Un (Expr.Not, _) -> true
  | Expr.Bin ((Expr.And | Expr.Or), _, y) -> is_bool b y
  | Expr.Case (branches, else_) ->
    List.for_all (fun (_, v) -> is_bool b v) branches
    && (match else_ with Some e -> is_bool b e | None -> true)
  | Expr.Col c ->
    (match find_col b c with
     | Some p -> (match b.cols.(p) with Column.Ints { tag = Column.As_bool; _ } -> true | _ -> false)
     | None -> false)
  | _ -> false

(* Evaluating [e] cannot raise on any row when a non-Bool result is taken
   as UNKNOWN: it reads only present columns and applies no operator that
   can fail on their representations. [false] when unsure. *)
let rec safe (b : t) (e : Expr.t) =
  let rec numeric = function
    | Expr.Col c ->
      (match find_col b c with
       | Some p ->
         (match b.cols.(p) with
          | Column.Ints { tag = Column.As_int | Column.As_date; _ } | Column.Floats _ -> true
          | _ -> false)
       | None -> false)
    | Expr.Lit (Value.Int _ | Value.Float _ | Value.Date _ | Value.Null) -> true
    | Expr.Bin ((Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Mod), x, y) ->
      numeric x && numeric y
    | _ -> false
  in
  match e with
  | Expr.Col c -> find_col b c <> None
  | Expr.Lit _ -> true
  | Expr.Bin ((Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge), x, y) ->
    safe b x && safe b y
  | Expr.Bin ((Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Mod), _, _) -> numeric e
  | Expr.Bin ((Expr.And | Expr.Or), x, y) -> is_bool b x && safe b x && safe b y
  | Expr.Un (Expr.Not, x) -> is_bool b x && safe b x
  | Expr.Is_null (x, _) | Expr.In_list (x, _, _) -> safe b x
  | Expr.Case (branches, else_) ->
    List.for_all (fun (c, v) -> safe b c && safe b v) branches
    && (match else_ with Some e -> safe b e | None -> true)
  | Expr.Un (Expr.Neg, _) | Expr.Like _ | Expr.Cast _ | Expr.Func _ -> false

(** Compile [e] as a predicate over [b]'s layout and column
    representations. Each sub-expression runs only on the rows
    {!Algebra.Expr.eval} evaluates it on: AND's right operand on the rows
    its left one leaves TRUE or UNKNOWN, OR's on the FALSE or UNKNOWN
    ones, a CASE branch on the rows no earlier condition took. So a type
    error fires on the same inputs as in the row engine. *)
let rec pred (b : t) (e : Expr.t) : pred =
  match e with
  | Expr.Lit (Value.Bool x) ->
    { total = true;
      keep = (fun s -> if x then s else no_rows);
      split = (fun ~strict:_ s -> if x then (s, no_rows) else (no_rows, s)) }
  | Expr.Lit v ->
    of_split ~total:false (fun ~strict s ->
        if strict && s.n > 0 && not (Value.is_null v) then
          Expr.type_err "predicate evaluated to %s" (Value.to_string v);
        (no_rows, no_rows))
  | Expr.Bin (Expr.And, x, y) ->
    let a = pred b x and c = pred b y in
    (* UNKNOWN AND y is never TRUE, but y is still evaluated there: only
       for its type errors, so not when it has none *)
    let narrow = a.total || safe b y in
    let keep s =
      if narrow then c.keep (a.keep s)
      else begin
        let ta, fa = a.split ~strict:true s in
        let ua = diff s ta fa in
        if ua.n > 0 then ignore (c.split ~strict:false ua);
        c.keep ta
      end
    in
    let split ~strict s =
      let ta, fa = a.split ~strict:true s in
      let ua = diff s ta fa in
      let tc, fc = c.split ~strict ta in
      let fu = if ua.n > 0 then snd (c.split ~strict:false ua) else no_rows in
      (tc, merge fa (merge fc fu))
    in
    { total = a.total && c.total; keep; split }
  | Expr.Bin (Expr.Or, x, y) ->
    let a = pred b x and c = pred b y in
    let go ~strict ~want_f s =
      let ta, fa = a.split ~strict:true s in
      let ua = diff s ta fa in
      let tc, fc =
        if want_f then c.split ~strict fa else (c.keep fa, no_rows)
      in
      let tu = if ua.n > 0 then fst (c.split ~strict:false ua) else no_rows in
      (merge ta (merge tc tu), fc)
    in
    { total = a.total && c.total;
      keep = (fun s -> fst (go ~strict:true ~want_f:false s));
      split = (fun ~strict s -> go ~strict ~want_f:true s) }
  | Expr.Un (Expr.Not, x) ->
    let a = pred b x in
    { total = a.total;
      keep = (fun s -> snd (a.split ~strict:true s));
      split = (fun ~strict:_ s -> let t, f = a.split ~strict:true s in (f, t)) }
  | Expr.Bin ((Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op, x, y) ->
    let ox = operand b x and oy = operand b y in
    of_kernel ~total:((not (nullable ox)) && not (nullable oy)) (fun ~want_f s ->
        match view s ox, view s oy with
        | K u, K v ->
          (match Expr.compare3 op u v with
           | Some true -> (s, no_rows)
           | Some false -> (no_rows, s)
           | None -> (no_rows, no_rows))
        | V (c, at), K v -> cmp_const op ~want_f s c at v
        | K v, V (c, at) -> cmp_const (mirror_cmp op) ~want_f s c at v
        | V (ca, ia), V (cb, ib) -> cmp_cols op ~want_f s ca ia cb ib)
  | Expr.Is_null (x, negated) ->
    let ox = operand b x in
    of_kernel ~total:true (fun ~want_f:_ s ->
        let nl, nn =
          match view s ox with
          | K v -> if Value.is_null v then (s, no_rows) else (no_rows, s)
          | V (c, at) -> null_rows s c at
        in
        if negated then (nn, nl) else (nl, nn))
  | Expr.Like (x, pattern, negated) ->
    let ox = operand b x and m = Expr.like_match ~pattern in
    of_kernel ~total:false (fun ~want_f s ->
        match view s ox with
        | K Value.Null -> (no_rows, no_rows)
        | K (Value.String v) -> if m v <> negated then (s, no_rows) else (no_rows, s)
        | K v -> Expr.type_err "LIKE on %s" (Value.to_string v)
        | V (c, at) -> like_rows ~negated m ~want_f s c at)
  | Expr.In_list (x, items, negated) ->
    let ox = operand b x in
    let has_null = List.exists Value.is_null items in
    let set = in_set items in
    of_kernel ~total:((not has_null) && not (nullable ox)) (fun ~want_f s ->
        match view s ox with
        | K v -> in_rows ~negated ~has_null set ~want_f s (const_col v s.n) (ident s.n)
        | V (c, at) -> in_rows ~negated ~has_null set ~want_f s c at)
  | Expr.Case (branches, else_) ->
    let brs = List.map (fun (c, v) -> (pred b c, pred b v)) branches in
    let els = Option.map (pred b) else_ in
    of_split ~total:false (fun ~strict s ->
        (* [rem]: the rows no earlier condition took *)
        let rec go rem ts fs = function
          | _ when rem.n = 0 -> (ts, fs)
          | [] ->
            (match els with
             | Some pe -> let t, f = pe.split ~strict rem in (t :: ts, f :: fs)
             | None -> (ts, fs))
          | (pc, pv) :: rest ->
            let tc, _ = pc.split ~strict:false rem in
            let t, f = pv.split ~strict tc in
            go (diff rem tc no_rows) (t :: ts) (f :: fs) rest
        in
        let ts, fs = go s [] [] brs in
        (List.fold_left merge no_rows ts, List.fold_left merge no_rows fs))
  | Expr.Col c ->
    (match find_col b c with
     | Some p ->
       let col = b.cols.(p) in
       of_split
         ~total:(match col with
             | Column.Ints { tag = Column.As_bool; nulls = None; _ } -> true
             | _ -> false)
         (fun ~strict s -> classify ~strict s col s.ix)
     | None -> of_split ~total:false (fun ~strict:_ s -> ignore (missing c s); (no_rows, no_rows)))
  | _ ->
    let f = scalar b e in
    of_split ~total:false (fun ~strict s -> classify ~strict s (f s) (ident s.n))

and operand (b : t) (e : Expr.t) : operand =
  match e with
  | Expr.Col c ->
    (match find_col b c with Some p -> Stored b.cols.(p) | None -> Computed (missing c))
  | Expr.Lit v -> Const v
  | _ -> Computed (scalar b e)

(** Compile [e] as a scalar over [b]: applied to a selection, its values
    at those rows as a dense column in selection order, equal cell for
    cell to {!Algebra.Expr.eval}'s. *)
and scalar (b : t) (e : Expr.t) : selection -> Column.t =
  match e with
  | Expr.Col c ->
    (match find_col b c with
     | Some p ->
       let col = b.cols.(p) in
       fun s -> if s.dense then col else Column.gather col s.ix
     | None -> missing c)
  | Expr.Lit v -> fun s -> const_col v s.n
  | Expr.Bin ((Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Mod) as op, x, y) ->
    let fx = scalar b x and fy = scalar b y in
    fun s -> arith_cols op (fx s) (fy s)
  | Expr.Un (Expr.Neg, x) -> let fx = scalar b x in fun s -> neg_col (fx s)
  | Expr.Cast (x, ty) -> let fx = scalar b x in fun s -> cast_col ty (fx s)
  | Expr.Func (fn, args) -> func b fn args
  | Expr.Bin ((Expr.And | Expr.Or) as op, x, y) when not (is_bool b y) ->
    (* a non-Bool right operand passes through where the left one is
       TRUE (AND) or FALSE (OR); beside an UNKNOWN left one only the
       deciding Bool survives, anything else is NULL *)
    let px = pred b x and fy = scalar b y in
    let decided = Value.Bool (op = Expr.Or) in
    fun s ->
      let t, f = px.split ~strict:true s in
      let u = diff s t f in
      let pass, fixed = if op = Expr.And then (t, f) else (f, t) in
      let only = map_cells (fun v -> if v = decided then v else Value.Null) in
      assemble s
        [ (fixed, const_col decided fixed.n); (pass, fy pass); (u, only (fy u)) ]
  | Expr.Case (branches, else_) when not (is_bool b e) ->
    let brs = List.map (fun (c, v) -> (pred b c, scalar b v)) branches in
    let els = Option.map (scalar b) else_ in
    fun s ->
      let rec go rem acc = function
        | _ when rem.n = 0 -> acc
        | [] -> (match els with Some fe -> (rem, fe rem) :: acc | None -> acc)
        | (pc, fv) :: rest ->
          let tc, _ = pc.split ~strict:false rem in
          go (diff rem tc no_rows) ((tc, fv tc) :: acc) rest
      in
      assemble s (go s [] brs)
  | _ ->
    (* Bool-valued: comparisons, tests, NOT, and AND/OR/CASE over them *)
    let p = pred b e in
    fun s -> let t, f = p.split ~strict:false s in tri_col s t f

(* function calls: typed kernels for the workload's shapes (YEAR of a
   date, DATEADD of a literal count, SUBSTRING with literal bounds, ABS),
   [Expr.apply_func] per cell for any other *)
and func (b : t) (fn : Expr.func) (args : Expr.t list) : selection -> Column.t =
  let fargs = List.map (scalar b) args in
  let per_cell n cols =
    let bld = Column.Builder.create ~capacity:(max 1 n) () in
    for k = 0 to n - 1 do
      Column.Builder.add bld (Expr.apply_func fn (List.map (fun c -> Column.get c k) cols))
    done;
    Column.Builder.finish bld
  in
  let lit k = match List.nth_opt args k with Some (Expr.Lit (Value.Int x)) -> Some x | _ -> None in
  match fn, fargs with
  | Expr.F_year, [ fx ] ->
    fun s ->
      map_ints ~tin:Column.As_date ~tout:Column.As_int Value.year_of
        (fun c -> per_cell s.n [ c ]) (fx s)
  | (Expr.F_dateadd_day | Expr.F_dateadd_month | Expr.F_dateadd_year), [ _; fd ]
    when lit 0 <> None ->
    let k = Option.get (lit 0) in
    let f =
      match fn with
      | Expr.F_dateadd_day -> fun d -> d + k
      | Expr.F_dateadd_month -> fun d -> Value.add_months d k
      | _ -> fun d -> Value.add_years d k
    in
    fun s ->
      map_ints ~tin:Column.As_date ~tout:Column.As_date f
        (fun c -> per_cell s.n [ const_col (Value.Int k) s.n; c ]) (fd s)
  | Expr.F_substring, [ fx; _; _ ] when lit 1 <> None && lit 2 <> None ->
    let start = Option.get (lit 1) and len = Option.get (lit 2) in
    fun s ->
      (match fx s with
       | Column.Boxed a ->
         Column.Boxed
           (Array.map
              (function
                | Value.String x -> Value.String (Expr.substring x start len)
                | Value.Null -> Value.Null
                | v -> Expr.apply_func fn [ v; Value.Int start; Value.Int len ])
              a)
       | c -> per_cell s.n [ c; const_col (Value.Int start) s.n; const_col (Value.Int len) s.n ])
  | Expr.F_abs, [ fx ] ->
    fun s ->
      (match fx s with
       | Column.Floats { data; nulls } ->
         let n = Bigarray.Array1.dim data in
         let d = Column.make_floats n in
         for k = 0 to n - 1 do d.{k} <- Float.abs data.{k} done;
         normal (Column.Floats { data = d; nulls })
       | c -> map_ints ~tin:Column.As_int ~tout:Column.As_int abs (fun c -> per_cell s.n [ c ]) c)
  | _ ->
    fun s ->
      let cols = List.map (fun f -> f s) fargs in
      per_cell s.n cols

(* -- typed keys: hash vectors and per-column equality -- *)

(* One key column pair, its representation resolved once per operator:
   side a (the probe side, or the grouped input) and side b (the build
   side, or the grouped input again). Equality has {!Catalog.Value.equal}
   semantics and equal cells hash alike. A NULL equals only a NULL, which
   is how grouping treats it; joins drop null keys before they compare.
   Same-tag int pairs and float pairs read their unboxed buffers, boxed
   pairs compare strings with [String.equal]; every other pair (type-mixed
   columns, Int against Float or Date) goes through {!Column.get},
   {!Catalog.Value.hash} and {!Catalog.Value.equal}, the row engine's own
   key semantics. *)
type kpair =
  | K_ints of Column.ints * Bytes.t option * Column.ints * Bytes.t option
  | K_floats of Column.floats * Bytes.t option * Column.floats * Bytes.t option
  | K_boxed of Value.t array * Value.t array
  | K_mixed of Column.t * Column.t

let kpair (ca : Column.t) (cb : Column.t) : kpair =
  match ca, cb with
  | Column.Ints { tag = ta; data = xa; nulls = na },
    Column.Ints { tag = tb; data = xb; nulls = nb } when ta = tb -> K_ints (xa, na, xb, nb)
  | Column.Floats { data = xa; nulls = na }, Column.Floats { data = xb; nulls = nb } ->
    K_floats (xa, na, xb, nb)
  | Column.Boxed a, Column.Boxed b -> K_boxed (a, b)
  | _ -> K_mixed (ca, cb)

let null_hash = 17

(* one hash per [Float.equal] class: -0. and 0. agree, and so do all NaNs *)
let float_hash x =
  if x = 0. then 0
  else if Float.is_nan x then 1
  else Int64.to_int (Int64.bits_of_float x)

(* Per-domain key scratch: the row hashes and the "some key cell is NULL"
   flags of one side's visible rows. A join copies the build side's
   hashes out before it hashes the probe side, and grouping never nests. *)
let hv_key = int_buf_key ()
let knull_key : Bytes.t ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref Bytes.empty)

(* [hash_rows kp ~a s]: the key hash of each visible row [s.ix.(k)] at
   [hv.(k)], one typed loop per key column of side a (else side b), the
   per-column hashes folded as the row engine's [Local.Key.hash] does;
   [nul.[k]] marks a row with a NULL key cell, and [any] says whether
   there is one ([nul] is only cleared, and only meaningful, when [any]).
   The first key column sets each hash, so no pass fills the vector
   first. No key column: every row hashes alike. *)
let hash_rows (kp : kpair array) ~a (s : selection) : int array * Bytes.t * bool =
  let n = s.n and ix = s.ix in
  let hv = scratch hv_key n in
  let nr = Domain.DLS.get knull_key in
  if Bytes.length !nr < n then nr := Bytes.create (max n (2 * Bytes.length !nr));
  let nul = !nr in
  if Array.length kp = 0 then Array.fill hv 0 n 17;
  let any = ref false in
  (* fold key column [ci]'s hash [h] into row [k]'s *)
  let[@inline] mix ci k h =
    Array.unsafe_set hv k (((if ci = 0 then 17 else Array.unsafe_get hv k) * 31) + h)
  in
  let null_at ci k =
    if not !any then begin Bytes.fill nul 0 n '\000'; any := true end;
    Bytes.unsafe_set nul k '\001';
    mix ci k null_hash
  in
  Array.iteri
    (fun ci p ->
       match p with
       | K_ints (xa, na, xb, nb) ->
         let x, nulls = if a then (xa, na) else (xb, nb) in
         (match nulls with
          | None ->
            for k = 0 to n - 1 do
              mix ci k (Bigarray.Array1.unsafe_get x (Array.unsafe_get ix k))
            done
          | Some m ->
            for k = 0 to n - 1 do
              let i = Array.unsafe_get ix k in
              if Bytes.unsafe_get m i <> '\000' then null_at ci k
              else mix ci k (Bigarray.Array1.unsafe_get x i)
            done)
       | K_floats (xa, na, xb, nb) ->
         let x, nulls = if a then (xa, na) else (xb, nb) in
         (match nulls with
          | None ->
            for k = 0 to n - 1 do
              mix ci k (float_hash (Bigarray.Array1.unsafe_get x (Array.unsafe_get ix k)))
            done
          | Some m ->
            for k = 0 to n - 1 do
              let i = Array.unsafe_get ix k in
              if Bytes.unsafe_get m i <> '\000' then null_at ci k
              else mix ci k (float_hash (Bigarray.Array1.unsafe_get x i))
            done)
       | K_boxed (va, vb) ->
         let v = if a then va else vb in
         for k = 0 to n - 1 do
           match Array.unsafe_get v (Array.unsafe_get ix k) with
           | Value.Null -> null_at ci k
           | v -> mix ci k (Value.hash v)
         done
       | K_mixed (ca, cb) ->
         let col = if a then ca else cb in
         for k = 0 to n - 1 do
           match Column.get col (Array.unsafe_get ix k) with
           | Value.Null -> null_at ci k
           | v -> mix ci k (Value.hash v)
         done)
    kp;
  (hv, nul, !any)

(* side a's row [i] against side b's row [j], column by column *)
let keys_equal (kp : kpair array) i j =
  let n = Array.length kp in
  let c = ref 0 in
  while
    !c < n
    && (match Array.unsafe_get kp !c with
        | K_ints (xa, na, xb, nb) ->
          let ni = Column.null_bit na i and nj = Column.null_bit nb j in
          if ni || nj then ni && nj
          else Bigarray.Array1.unsafe_get xa i = Bigarray.Array1.unsafe_get xb j
        | K_floats (xa, na, xb, nb) ->
          let ni = Column.null_bit na i and nj = Column.null_bit nb j in
          if ni || nj then ni && nj
          else Float.equal (Bigarray.Array1.unsafe_get xa i) (Bigarray.Array1.unsafe_get xb j)
        | K_boxed (va, vb) ->
          (match Array.unsafe_get va i, Array.unsafe_get vb j with
           | Value.String x, Value.String y -> String.equal x y
           | x, y -> Value.equal x y)
        | K_mixed (ca, cb) -> Value.equal (Column.get ca i) (Column.get cb j))
  do
    incr c
  done;
  !c = n

let bucket h mask =
  let h = h * 0x9E3779B1 in
  (h lxor (h lsr 29)) land mask

(* Positions of the layout's columns that a join's consumers read ([need],
   [None]: all). Only those are gathered into the join output, its one
   copy; the others are left out of the output layout. *)
let keep_cols (need : Registry.Col_set.t option) (layout : int array) : int array =
  match need with
  | None -> identity (Array.length layout)
  | Some s ->
    let ps = Ivec.create ~capacity:(Array.length layout) () in
    Array.iteri (fun p c -> if Registry.Col_set.mem c s then Ivec.push ps p) layout;
    Ivec.contents ps

(* Per-domain join scratch: chain heads and links, the output pair
   vectors, and the candidate pairs a residual predicate runs over. A join
   copies its outputs out (the gathers, [Ivec.contents]) before it
   returns, and joins never nest on a domain. *)
let head_key = int_buf_key ()
let next_key = int_buf_key ()
let bhash_key = int_buf_key ()
let ivec_key () : Ivec.t Domain.DLS.key = Domain.DLS.new_key (fun () -> Ivec.create ())
let li_key = ivec_key ()
let rj_key = ivec_key ()
let cand_l_key = ivec_key ()
let cand_r_key = ivec_key ()

let fresh_ivec key =
  let v = Domain.DLS.get key in
  v.Ivec.len <- 0;
  v

(* candidate pairs per residual evaluation: bounds the pair batch of a
   nested-loop join *)
let residual_block = 1 lsl 16

(* The residual predicate over candidate pairs: its columns resolve once,
   with the first-occurrence precedence of the row engine's combined
   (left @ right) layout; each call gathers them for [n] pairs (left rows
   [li], right rows [rj]) into a pair batch and runs the compiled
   predicate there, returning the kept pair positions. *)
let residual (l : t) (r : t) (e : Expr.t) : int array -> int array -> int -> selection =
  let srcs =
    List.filter_map
      (fun c ->
         match find_col l c, find_col r c with
         | Some p, _ -> Some (c, true, l.cols.(p))
         | None, Some p -> Some (c, false, r.cols.(p))
         | None, None -> None)
      (Registry.Col_set.elements (Expr.cols e))
  in
  let layout = Array.of_list (List.map (fun (c, _, _) -> c) srcs) in
  fun li rj n ->
    let cols =
      Array.of_list
        (List.map (fun (_, left, col) -> Column.gather ~n col (if left then li else rj)) srcs)
    in
    (pred { layout; cols; rows = n; sel = None } e).keep (all_rows n)

let hash_join_b ?need ~(kind : Relop.join_kind) ~(pred : Expr.t) (l : t) (r : t) : t =
  (* runs directly through the inputs' selection vectors: compacting a
     wide filtered input would gather every column only to discard most
     rows at the (usually far smaller) join output. [li]/[rj] accumulate
     underlying row indices, so the output gather is the only copy. *)
  let ls = selection l and rs = selection r in
  (* {!Physop.oriented_equi_pairs} over the two layouts *)
  let equi =
    let has b c = find_col b c <> None in
    List.filter_map
      (fun (a, c) ->
         if has l a && has r c then Some (a, c)
         else if has l c && has r a then Some (c, a)
         else None)
      (Expr.equi_pairs pred)
  in
  let lkcols = Array.map (fun p -> l.cols.(p)) (positions l (List.map fst equi)) in
  let rkcols = Array.map (fun p -> r.cols.(p)) (positions r (List.map snd equi)) in
  (* the residual: the conjuncts key equality does not already imply *)
  let rest =
    List.filter
      (fun cj ->
         match cj, Expr.as_col_eq cj with
         | Expr.Lit (Value.Bool true), _ -> false
         | _, Some (a, b) -> not (List.mem (a, b) equi || List.mem (b, a) equi)
         | _, None -> true)
      (Expr.conjuncts pred)
  in
  (* with no equi pair the key is empty: one bucket, every row equal *)
  let kp = Array.map2 kpair lkcols rkcols in
  (* one same-tag int key hashes to [17 * 31 + x], one hash per value, and
     NULL keys are neither chained nor probed: equal hashes are equal keys *)
  let exact = match kp with [| K_ints _ |] -> true | _ -> false in
  (* candidate chains over the build rows, keyed by row index: [head] per
     bucket and [next] per underlying row, no table node or boxed key per
     row. A hash join chains most-recent-first, the order of the row
     engine's per-key cons lists; nested loops chain every row in
     ascending order, the oracle's (left, right) iteration order. *)
  let sz = ref 16 in
  while !sz < 2 * rs.n do sz := !sz * 2 done;
  let mask = !sz - 1 in
  let head = scratch head_key !sz in
  Array.fill head 0 !sz (-1);
  let next = scratch next_key (max 1 r.rows) in
  (* each chained build row's key hash, beside [next] *)
  let bh = scratch bhash_key (max 1 r.rows) in
  let chained = ref 0 in
  (let hv, nul, any = hash_rows kp ~a:false rs in
   let add jk =
     if not (any && Bytes.unsafe_get nul jk <> '\000') then begin
       let j = Array.unsafe_get rs.ix jk and hj = Array.unsafe_get hv jk in
       incr chained;
       Array.unsafe_set bh j hj;
       let h = bucket hj mask in
       Array.unsafe_set next j (Array.unsafe_get head h);
       Array.unsafe_set head h j
     end
   in
   if equi = [] then for jk = rs.n - 1 downto 0 do add jk done
   else for jk = 0 to rs.n - 1 do add jk done);
  (* the probe rows' hashes, only when some build row is chained *)
  let phv, pnul, pany =
    if !chained = 0 then ([||], Bytes.empty, false)
    else hash_rows kp ~a:true ls
  in
  (* [start ik]: the chain of the [ik]-th visible probe row; [first ik j]:
     the first entry at or after chain entry [j] whose key equals that
     row's, its stored hash compared first *)
  let start ik =
    if pany && Bytes.unsafe_get pnul ik <> '\000' then -1
    else Array.unsafe_get head (bucket (Array.unsafe_get phv ik) mask)
  in
  let first ik j =
    let i = Array.unsafe_get ls.ix ik and h = Array.unsafe_get phv ik in
    let j = ref j in
    while !j >= 0 && not (Array.unsafe_get bh !j = h && (exact || keys_equal kp i !j)) do
      j := Array.unsafe_get next !j
    done;
    !j
  in
  let li = fresh_ivec li_key and rj = fresh_ivec rj_key in
  (match rest with
   | _ when !chained = 0 ->
     (* no build row can match: no probe row is hashed and the residual
        never runs, as in the row engine *)
     (match kind with
      | Relop.Anti_semi -> for ik = 0 to ls.n - 1 do Ivec.push li ls.ix.(ik) done
      | Relop.Left_outer ->
        for ik = 0 to ls.n - 1 do Ivec.push li ls.ix.(ik); Ivec.push rj (-1) done
      | Relop.Inner | Relop.Cross | Relop.Semi -> ())
   | [] ->
     for ik = 0 to ls.n - 1 do
       let i = Array.unsafe_get ls.ix ik in
       let j = first ik (start ik) in
       match kind with
       | Relop.Semi -> if j >= 0 then Ivec.push li i
       | Relop.Anti_semi -> if j < 0 then Ivec.push li i
       | Relop.Inner | Relop.Cross | Relop.Left_outer ->
         if j < 0 && kind = Relop.Left_outer then begin
           Ivec.push li i; Ivec.push rj (-1)
         end;
         let j = ref j in
         while !j >= 0 do
           Ivec.push li i;
           Ivec.push rj !j;
           j := first ik (Array.unsafe_get next !j)
         done
     done
   | _ when equi = [] && (kind = Relop.Semi || kind = Relop.Anti_semi) ->
     (* nested loops stop at a probe row's first kept pair, as the row
        engine's [List.exists] does, so no later pair is evaluated: each
        probe row's candidates run in chain order, in blocks that double
        from one pair, up to the first block that keeps a pair. A block
        that raises is re-run a pair at a time, so a type error fires only
        on a pair the row engine also reaches. *)
     let eval = residual l r (Expr.conjoin rest) in
     let cl = fresh_ivec cand_l_key and cr = fresh_ivec cand_r_key in
     for ik = 0 to ls.n - 1 do
       let i = Array.unsafe_get ls.ix ik in
       let j = ref (first ik (start ik)) and size = ref 1 and matched = ref false in
       while (not !matched) && !j >= 0 do
         cl.Ivec.len <- 0;
         cr.Ivec.len <- 0;
         while !j >= 0 && cl.Ivec.len < !size do
           Ivec.push cl i;
           Ivec.push cr !j;
           j := first ik (Array.unsafe_get next !j)
         done;
         let m = cl.Ivec.len in
         (matched :=
            match eval cl.Ivec.a cr.Ivec.a m with
            | kept -> kept.n > 0
            | exception Expr.Type_error _ ->
              let c = ref 0 in
              while !c < m && (eval [| i |] [| cr.Ivec.a.(!c) |] 1).n = 0 do incr c done;
              !c < m);
         size := min residual_block (2 * !size)
       done;
       if !matched = (kind = Relop.Semi) then Ivec.push li i
     done
   | _ ->
     (* every key-equal pair is a candidate, as the row engine filters
        each probe row's matches; the residual runs once per block of
        candidates, and each probe row's kept pairs come out in chain
        order *)
     let eval = residual l r (Expr.conjoin rest) in
     let cl = fresh_ivec cand_l_key and cr = fresh_ivec cand_r_key in
     let ik = ref 0 in
     while !ik < ls.n do
       let from = !ik in
       cl.Ivec.len <- 0;
       cr.Ivec.len <- 0;
       while !ik < ls.n && cl.Ivec.len < residual_block do
         let ik0 = !ik in
         let i = Array.unsafe_get ls.ix ik0 in
         let j = ref (first ik0 (start ik0)) in
         while !j >= 0 do
           Ivec.push cl i;
           Ivec.push cr !j;
           j := first ik0 (Array.unsafe_get next !j)
         done;
         incr ik
       done;
       let kept = eval cl.Ivec.a cr.Ivec.a cl.Ivec.len in
       let c = ref 0 and kk = ref 0 in
       for ik' = from to !ik - 1 do
         let i = Array.unsafe_get ls.ix ik' in
         let matched = ref false in
         while !c < cl.Ivec.len && cl.Ivec.a.(!c) = i do
           if !kk < kept.n && kept.ix.(!kk) = !c then begin
             incr kk;
             matched := true;
             match kind with
             | Relop.Inner | Relop.Cross | Relop.Left_outer ->
               Ivec.push li i; Ivec.push rj cr.Ivec.a.(!c)
             | Relop.Semi | Relop.Anti_semi -> ()
           end;
           incr c
         done;
         match kind with
         | Relop.Semi -> if !matched then Ivec.push li i
         | Relop.Anti_semi -> if not !matched then Ivec.push li i
         | Relop.Left_outer -> if not !matched then begin Ivec.push li i; Ivec.push rj (-1) end
         | Relop.Inner | Relop.Cross -> ()
       done
     done);
  (* the output gathers read the pair vectors in place *)
  let n = li.Ivec.len in
  let gather (b : t) (idx : Ivec.t) =
    let keep = keep_cols need b.layout in
    (Array.map (fun p -> b.layout.(p)) keep,
     Array.map (fun p -> Column.gather ~n b.cols.(p) idx.Ivec.a) keep)
  in
  let llayout, lcols = gather l li in
  match kind with
  | Relop.Semi | Relop.Anti_semi -> { layout = llayout; cols = lcols; rows = n; sel = None }
  | _ ->
    let rlayout, rcols = gather r rj in
    { layout = Array.append llayout rlayout; cols = Array.append lcols rcols;
      rows = n; sel = None }

(* -- grouped aggregation over column slices -- *)

(* group-id scratch, one per domain: aggregation never runs reentrantly on
   a domain, and the kernels it calls use buffers of their own *)
let gid_key = int_buf_key ()

let run_aggregate_b ~(keys : int list) ~(aggs : Expr.agg_def list) (b : t) : t =
  let m = count b in
  let kpos = positions b keys in
  let gid = scratch gid_key (max 1 m) in
  let reps = Ivec.create () in
  let ngroups = ref 0 in
  if keys = [] then begin
    (* the grouped path overwrites every slot; the scalar path reads the
       implicit all-zero group ids, so clear the reused buffer *)
    Array.fill gid 0 m 0;
    if m > 0 then begin
      ngroups := 1;
      Ivec.push reps (match b.sel with Some s -> s.(0) | None -> 0)
    end
  end
  else begin
    (* first-occurrence group ids over a chained index keyed by each
       group's representative row: [heads] per bucket, [gnext] per group,
       no boxed key per row. Buckets double (and re-chain) as groups
       arrive, keeping chains short without sizing for the input. *)
    let heads = ref (Array.make 64 (-1)) in
    let gnext = Ivec.create () and ghash = Ivec.create () in
    (* a new group for row [i] (its [k]-th visible row), chained at bucket [bk] *)
    let add k i h bk =
      let hd = !heads in
      let g = !ngroups in
      incr ngroups;
      Ivec.push reps i;
      Ivec.push ghash h;
      Ivec.push gnext hd.(bk);
      hd.(bk) <- g;
      Array.unsafe_set gid k g;
      if 2 * !ngroups > Array.length hd then begin
        let sz = 2 * Array.length hd in
        let hd' = Array.make sz (-1) in
        for g = 0 to !ngroups - 1 do
          let bk = bucket ghash.Ivec.a.(g) (sz - 1) in
          gnext.Ivec.a.(g) <- hd'.(bk);
          hd'.(bk) <- g
        done;
        heads := hd'
      end
    in
    let visit =
      match kpos with
      | [| p |] when (match b.cols.(p) with Column.Ints { nulls = None; _ } -> true | _ -> false) ->
        (* one null-free int key: its value is its hash, read in place *)
        let data = match b.cols.(p) with Column.Ints { data; _ } -> data | _ -> assert false in
        fun k i ->
          let x = Bigarray.Array1.unsafe_get data i in
          let hd = !heads in
          let bk = bucket x (Array.length hd - 1) in
          let g = ref (Array.unsafe_get hd bk) in
          while
            !g >= 0
            && Bigarray.Array1.unsafe_get data (Array.unsafe_get reps.Ivec.a !g) <> x
          do
            g := Array.unsafe_get gnext.Ivec.a !g
          done;
          if !g >= 0 then Array.unsafe_set gid k !g else add k i x bk
      | _ ->
        (* NULL key cells hash alike and equal each other: one group *)
        let kp = Array.map (fun p -> kpair b.cols.(p) b.cols.(p)) kpos in
        let hv, _, _ = hash_rows kp ~a:true (selection b) in
        fun k i ->
          let h = Array.unsafe_get hv k in
          let hd = !heads in
          let bk = bucket h (Array.length hd - 1) in
          let g = ref (Array.unsafe_get hd bk) in
          while
            !g >= 0
            && not
                 (Array.unsafe_get ghash.Ivec.a !g = h
                  && keys_equal kp i (Array.unsafe_get reps.Ivec.a !g))
          do
            g := Array.unsafe_get gnext.Ivec.a !g
          done;
          if !g >= 0 then Array.unsafe_set gid k !g else add k i h bk
    in
    (match b.sel with
     | None -> for k = 0 to m - 1 do visit k k done
     | Some s -> for k = 0 to m - 1 do visit k (Array.unsafe_get s k) done)
  end;
  (* scalar aggregates emit one row even over empty input *)
  let out_groups = if keys = [] then 1 else !ngroups in
  let fallback_agg (a : Expr.agg_def) (col : Column.t) : Value.t array =
    let sts = Array.init out_groups (fun _ -> Local.new_agg_state a.Expr.agg_distinct) in
    for k = 0 to m - 1 do
      Local.agg_feed a sts.(gid.(k)) (Some (Column.get col k))
    done;
    Array.map (Local.agg_result a) sts
  in
  (* argument views: a bare column reference aggregates in place over the
     stored column through the selection indirection ([vidx]); computed
     expressions materialize densely once ([vidx = None], index by k). The
     duplicated loops keep the per-row work free of closures and gathers. *)
  let do_agg (a : Expr.agg_def) : Value.t array =
    match a.Expr.agg_arg with
    | None ->
      (* COUNT star: every row counts *)
      let cnt = Array.make out_groups 0 in
      for k = 0 to m - 1 do cnt.(gid.(k)) <- cnt.(gid.(k)) + 1 done;
      Array.map (fun c -> Value.Int c) cnt
    | Some e ->
      let vcol, vidx =
        match e with
        | Expr.Col c when not a.Expr.agg_distinct ->
          (b.cols.(col_pos b c), b.sel)
        | _ -> (scalar b e (selection b), None)
      in
      if a.Expr.agg_distinct then fallback_agg a vcol
      else begin
        match a.Expr.agg_func, vcol with
        | (Expr.Sum | Expr.Avg), Column.Ints { tag = Column.As_int; data; nulls } ->
          let sum = Array.make out_groups 0. and cnt = Array.make out_groups 0 in
          (match vidx, nulls with
           | None, None ->
             for k = 0 to m - 1 do
               let g = Array.unsafe_get gid k in
               Array.unsafe_set sum g
                 (Array.unsafe_get sum g
                  +. float_of_int (Bigarray.Array1.unsafe_get data k));
               Array.unsafe_set cnt g (Array.unsafe_get cnt g + 1)
             done
           | Some s, None ->
             for k = 0 to m - 1 do
               let g = Array.unsafe_get gid k in
               Array.unsafe_set sum g
                 (Array.unsafe_get sum g
                  +. float_of_int
                       (Bigarray.Array1.unsafe_get data (Array.unsafe_get s k)));
               Array.unsafe_set cnt g (Array.unsafe_get cnt g + 1)
             done
           | None, Some nb ->
             for k = 0 to m - 1 do
               if Bytes.unsafe_get nb k = '\000' then begin
                 let g = gid.(k) in
                 sum.(g) <- sum.(g) +. float_of_int data.{k};
                 cnt.(g) <- cnt.(g) + 1
               end
             done
           | Some s, Some nb ->
             for k = 0 to m - 1 do
               let i = Array.unsafe_get s k in
               if Bytes.unsafe_get nb i = '\000' then begin
                 let g = gid.(k) in
                 sum.(g) <- sum.(g) +. float_of_int data.{i};
                 cnt.(g) <- cnt.(g) + 1
               end
             done);
          Array.init out_groups (fun g ->
              if cnt.(g) = 0 then Value.Null
              else if a.Expr.agg_func = Expr.Avg then
                Value.Float (sum.(g) /. float_of_int cnt.(g))
              else if Float.is_integer sum.(g) && Float.abs sum.(g) < 4.5e15 then
                Value.Int (int_of_float sum.(g))
              else Value.Float sum.(g))
        | (Expr.Sum | Expr.Avg), Column.Floats { data; nulls } ->
          let sum = Array.make out_groups 0. and cnt = Array.make out_groups 0 in
          (match vidx, nulls with
           | None, None ->
             for k = 0 to m - 1 do
               let g = Array.unsafe_get gid k in
               Array.unsafe_set sum g
                 (Array.unsafe_get sum g +. Bigarray.Array1.unsafe_get data k);
               Array.unsafe_set cnt g (Array.unsafe_get cnt g + 1)
             done
           | Some s, None ->
             for k = 0 to m - 1 do
               let g = Array.unsafe_get gid k in
               Array.unsafe_set sum g
                 (Array.unsafe_get sum g
                  +. Bigarray.Array1.unsafe_get data (Array.unsafe_get s k));
               Array.unsafe_set cnt g (Array.unsafe_get cnt g + 1)
             done
           | None, Some nb ->
             for k = 0 to m - 1 do
               if Bytes.unsafe_get nb k = '\000' then begin
                 let g = gid.(k) in
                 sum.(g) <- sum.(g) +. data.{k};
                 cnt.(g) <- cnt.(g) + 1
               end
             done
           | Some s, Some nb ->
             for k = 0 to m - 1 do
               let i = Array.unsafe_get s k in
               if Bytes.unsafe_get nb i = '\000' then begin
                 let g = gid.(k) in
                 sum.(g) <- sum.(g) +. data.{i};
                 cnt.(g) <- cnt.(g) + 1
               end
             done);
          Array.init out_groups (fun g ->
              if cnt.(g) = 0 then Value.Null
              else if a.Expr.agg_func = Expr.Avg then
                Value.Float (sum.(g) /. float_of_int cnt.(g))
              else Value.Float sum.(g))
        | (Expr.Min | Expr.Max), Column.Ints { tag; data; nulls } ->
          let best = Array.make out_groups 0 and has = Array.make out_groups false in
          let mx = a.Expr.agg_func = Expr.Max in
          let feed k i =
            if not (Column.null_bit nulls i) then begin
              let g = gid.(k) and x = data.{i} in
              if not has.(g) then begin best.(g) <- x; has.(g) <- true end
              else if (if mx then x > best.(g) else x < best.(g)) then best.(g) <- x
            end
          in
          (match vidx with
           | None -> for k = 0 to m - 1 do feed k k done
           | Some s -> for k = 0 to m - 1 do feed k s.(k) done);
          Array.init out_groups (fun g ->
              if has.(g) then Column.decode_int tag best.(g) else Value.Null)
        | (Expr.Min | Expr.Max), Column.Floats { data; nulls } ->
          let best = Array.make out_groups 0. and has = Array.make out_groups false in
          let mx = a.Expr.agg_func = Expr.Max in
          let feed k i =
            if not (Column.null_bit nulls i) then begin
              let g = gid.(k) and x = data.{i} in
              if not has.(g) then begin best.(g) <- x; has.(g) <- true end
              else begin
                let c = Float.compare x best.(g) in
                if (if mx then c > 0 else c < 0) then best.(g) <- x
              end
            end
          in
          (match vidx with
           | None -> for k = 0 to m - 1 do feed k k done
           | Some s -> for k = 0 to m - 1 do feed k s.(k) done);
          Array.init out_groups (fun g ->
              if has.(g) then Value.Float best.(g) else Value.Null)
        | Expr.Count, _ ->
          let cnt = Array.make out_groups 0 in
          (match vidx with
           | None ->
             for k = 0 to m - 1 do
               if not (Column.is_null vcol k) then cnt.(gid.(k)) <- cnt.(gid.(k)) + 1
             done
           | Some s ->
             for k = 0 to m - 1 do
               if not (Column.is_null vcol s.(k)) then
                 cnt.(gid.(k)) <- cnt.(gid.(k)) + 1
             done);
          Array.map (fun c -> Value.Int c) cnt
        | _, (Column.Ints _ | Column.Floats _ | Column.Boxed _) ->
          (match vidx with
           | None -> fallback_agg a vcol
           | Some s -> fallback_agg a (Column.gather vcol s))
      end
  in
  let agg_results = List.map do_agg aggs in
  let rep_arr = Ivec.contents reps in
  let key_cols = Array.map (fun p -> Column.gather b.cols.(p) rep_arr) kpos in
  let agg_cols = List.map Column.of_values agg_results in
  { layout = Array.of_list (keys @ List.map (fun a -> a.Expr.agg_out) aggs);
    cols = Array.append key_cols (Array.of_list agg_cols);
    rows = out_groups; sel = None }
(* -- sort -- *)

let sort_b ~(keys : Relop.sort_key list) ?limit (b : t) : t =
  let b = compact b in
  let m = b.rows in
  let kvals =
    List.map
      (fun (k : Relop.sort_key) ->
         (Column.to_values (scalar b k.Relop.key (all_rows m)), k.Relop.desc))
      keys
  in
  let perm = identity m in
  let cmp i j =
    let rec go = function
      | [] -> 0
      | (arr, desc) :: rest ->
        let c = Value.compare arr.(i) arr.(j) in
        let c = if desc then -c else c in
        if c <> 0 then c else go rest
    in
    go kvals
  in
  (* merge sort: ties keep input order, matching [List.stable_sort] *)
  Array.stable_sort cmp perm;
  let idx = match limit with Some n when n < m -> Array.sub perm 0 n | _ -> perm in
  { b with cols = Array.map (fun c -> Column.gather c idx) b.cols;
    rows = Array.length idx; sel = None }

(* -- union / concat -- *)

let concat_list (bs : t list) : t =
  match bs with
  | [] -> empty []
  | [ b ] -> compact b
  | first :: _ ->
    let bs = List.map compact bs in
    let w = Array.length first.cols in
    List.iter
      (fun b ->
         if Array.length b.cols <> w then
           raise (Local.Exec_error "union arity mismatch"))
      bs;
    { layout = first.layout;
      cols = Array.init w (fun j -> Column.concat (List.map (fun b -> b.cols.(j)) bs));
      rows = List.fold_left (fun acc b -> acc + b.rows) 0 bs;
      sel = None }

(* -- routing (DMS parity with Appliance.route_hash) -- *)

(** Per-visible-row destinations among [parts]: the route hash over the
    columns at positions [kpos], numerically identical to folding
    {!Catalog.Value.hash} over the boxed row key ({!Rset.route_hash}),
    taken modulo [parts]. *)
let route_dests (b : t) (kpos : int array) ~(parts : int) : int array =
  let s = selection b in
  let m = s.n and ix = s.ix in
  let h = Array.make m 17 in
  Array.iter
    (fun p ->
       let c = b.cols.(p) in
       match c with
       | Column.Ints { tag = (Column.As_int | Column.As_date); data; nulls } ->
         for k = 0 to m - 1 do
           let i = ix.(k) in
           let hv = if Column.null_bit nulls i then 17 else Hashtbl.hash data.{i} in
           h.(k) <- (h.(k) * 31) + hv
         done
       | Column.Floats { data; nulls } ->
         for k = 0 to m - 1 do
           let i = ix.(k) in
           let hv =
             if Column.null_bit nulls i then 17
             else
               let x = data.{i} in
               if Float.is_integer x then Hashtbl.hash (int_of_float x)
               else Hashtbl.hash x
           in
           h.(k) <- (h.(k) * 31) + hv
         done
       | _ ->
         for k = 0 to m - 1 do
           h.(k) <- (h.(k) * 31) + Value.hash (Column.get c ix.(k))
         done)
    kpos;
  for k = 0 to m - 1 do h.(k) <- abs h.(k) mod parts done;
  h

(* Scatter each source's column [c] (its rows [ix], routed to [dest]) to
   the parts, sources in order and rows in order within each: one pass
   per column, no per-part gather. A part's column is what concatenating
   the sources' parts would make: unboxed when every source shares one
   unboxed representation, boxed otherwise, with a null mask only where a
   NULL landed. *)
let scatter (srcs : (Column.t * int array * int array) array) (counts : int array) :
  Column.t array =
  let parts = Array.length counts in
  let fill = Array.make parts 0 in
  let tag_of = function Column.Ints { tag; _ } -> Some tag | _ -> None in
  let cols = Array.map (fun (c, _, _) -> c) srcs in
  let all_ints =
    match tag_of cols.(0) with
    | Some t -> Array.for_all (fun c -> tag_of c = Some t) cols
    | None -> false
  in
  let all_floats = Array.for_all (function Column.Floats _ -> true | _ -> false) cols in
  let masks =
    if Array.exists (function
        | Column.Ints { nulls = Some _; _ } | Column.Floats { nulls = Some _; _ } -> true
        | _ -> false) cols
    then Some (Array.map (fun n -> Bytes.make n '\000') counts, Array.make parts false)
    else None
  in
  let mask_of p = match masks with Some (bs, any) when any.(p) -> Some bs.(p) | _ -> None in
  (* the slot of the next row routed to [d], its null bit set when [null] *)
  let slot d null =
    let at = fill.(d) in
    fill.(d) <- at + 1;
    (if null then
       match masks with
       | Some (bs, any) -> Bytes.unsafe_set bs.(d) at '\001'; any.(d) <- true
       | None -> ());
    at
  in
  if all_ints then begin
    let outs = Array.map Column.make_ints counts in
    Array.iter
      (fun (c, ix, dest) ->
         match c with
         | Column.Ints { data; nulls; _ } ->
           for k = 0 to Array.length dest - 1 do
             let d = Array.unsafe_get dest k and i = Array.unsafe_get ix k in
             let null = Column.null_bit nulls i in
             let at = slot d null in
             Bigarray.Array1.unsafe_set outs.(d) at (if null then 0 else data.{i})
           done
         | _ -> assert false)
      srcs;
    let tag = Option.get (tag_of cols.(0)) in
    Array.mapi (fun p o -> Column.Ints { tag; data = o; nulls = mask_of p }) outs
  end
  else if all_floats then begin
    let outs = Array.map Column.make_floats counts in
    Array.iter
      (fun (c, ix, dest) ->
         match c with
         | Column.Floats { data; nulls } ->
           for k = 0 to Array.length dest - 1 do
             let d = Array.unsafe_get dest k and i = Array.unsafe_get ix k in
             let null = Column.null_bit nulls i in
             let at = slot d null in
             Bigarray.Array1.unsafe_set outs.(d) at (if null then 0. else data.{i})
           done
         | _ -> assert false)
      srcs;
    Array.mapi (fun p o -> Column.Floats { data = o; nulls = mask_of p }) outs
  end
  else begin
    let outs = Array.map (fun n -> Array.make n Value.Null) counts in
    Array.iter
      (fun (c, ix, dest) ->
         for k = 0 to Array.length dest - 1 do
           let d = Array.unsafe_get dest k in
           outs.(d).(fill.(d)) <- Column.get c (Array.unsafe_get ix k);
           fill.(d) <- fill.(d) + 1
         done)
      srcs;
    Array.map (fun o -> Column.Boxed o) outs
  end

(** Hash-partition the visible rows of [sources] into [parts] dense
    batches with [layout]: part [p] holds every source's rows whose route
    hash lands on [p], sources in order and rows in order within each —
    the rows of concatenating each source's parts, computed with one
    destination per row and one scatter per column. *)
let shuffle (sources : t list) ~(kpos : int array) ~(parts : int) ~(layout : int array) :
  t array =
  let srcs = Array.of_list sources in
  let w = Array.length layout in
  Array.iter
    (fun b ->
       if Array.length b.cols <> w then raise (Local.Exec_error "union arity mismatch"))
    srcs;
  let ixs = Array.map (fun b -> (selection b).ix) srcs in
  let dests = Array.map (fun b -> route_dests b kpos ~parts) srcs in
  let counts = Array.make parts 0 in
  Array.iter (Array.iter (fun d -> counts.(d) <- counts.(d) + 1)) dests;
  let cols =
    Array.init w (fun j ->
        scatter (Array.mapi (fun s b -> (b.cols.(j), ixs.(s), dests.(s))) srcs) counts)
  in
  Array.init parts (fun p ->
      { layout; cols = Array.map (fun cs -> cs.(p)) cols; rows = counts.(p); sel = None })

(** Hash-partition the visible rows into [parts] dense batches (row order
    preserved within each part). *)
let partition (b : t) ~(kpos : int array) ~(parts : int) : t array =
  shuffle [ b ] ~kpos ~parts ~layout:b.layout

(** Narrow the selection to rows whose route hash lands on [node]. *)
let trim (b : t) ~(kpos : int array) ~(node : int) ~(parts : int) : t =
  let s = selection b in
  let dest = route_dests b kpos ~parts in
  let buf = scratch scratch_t s.n in
  let m = ref 0 in
  for k = 0 to s.n - 1 do
    if dest.(k) = node then begin buf.(!m) <- s.ix.(k); incr m end
  done;
  { b with sel = Some (Array.sub buf 0 !m) }

(** Project the batch to [cols] (selection preserved; no copy for columns,
    only the layout view changes). *)
let project (b : t) (cols : int list) : t =
  if cols = Array.to_list b.layout then b
  else
    { b with layout = Array.of_list cols;
             cols = Array.of_list (List.map (fun c -> b.cols.(col_pos b c)) cols) }

(* -- operator dispatch -- *)

(** Execute one serial physical operator columnar-side; mirrors
    {!Local.exec_op} result-for-result (values and row order). [need], when
    given, is the set of columns the operator's consumers read (see
    {!hash_join_b}); a join's output then carries only those. *)
let exec_op ?(stats : Local.exec_stats option) ?need ~(read_table : string -> t)
    (op : Physop.t) (children : t list) : t =
  let children = Array.of_list children in
  let child n = children.(n) in
  (match stats with Some st -> st.Local.batches <- st.Local.batches + 1 | None -> ());
  match op with
  | Physop.Table_scan { table; cols; _ } ->
    let b = read_table table in
    if Array.length cols <> Array.length b.cols then
      raise
        (Local.Exec_error
           (Printf.sprintf "scan %s: arity mismatch (%d vs %d)" table
              (Array.length b.cols) (Array.length cols)));
    (match stats with
     | Some st -> st.Local.rows_scanned <- st.Local.rows_scanned + count b
     | None -> ());
    { b with layout = Array.copy cols }
  | Physop.Filter p ->
    let c = child 0 in
    let kept = (pred c p).keep (selection c) in
    if kept.dense then c else { c with sel = Some kept.ix }
  | Physop.Compute defs ->
    let c = child 0 in
    let s = selection c in
    { layout = Array.of_list (List.map fst defs);
      cols = Array.of_list (List.map (fun (_, e) -> scalar c e s) defs);
      rows = s.n; sel = None }
  | Physop.Hash_join { kind; pred }
  | Physop.Merge_join { kind; pred }
  | Physop.Nl_join { kind; pred } ->
    (match stats with
     | Some st -> st.Local.probe_rows <- st.Local.probe_rows + count (child 0)
     | None -> ());
    hash_join_b ?need ~kind ~pred (child 0) (child 1)
  | Physop.Hash_agg { keys; aggs } | Physop.Stream_agg { keys; aggs } ->
    run_aggregate_b ~keys ~aggs (child 0)
  | Physop.Sort_op { keys; limit } -> sort_b ~keys ?limit (child 0)
  | Physop.Union_op -> concat_list [ child 0; child 1 ]
  | Physop.Const_empty cols -> empty cols
