(** Columnar batches and vectorized operator kernels: the columnar
    engine's counterpart of {!Local}'s row-at-a-time interpreter.

    A batch is a set of typed columns ({!Catalog.Column.t}) plus an
    optional *selection vector*: filters never materialize, they narrow
    the selection, and downstream kernels (aggregation in particular)
    iterate the selection over the original column slices. Kernels have
    unboxed fast paths for the common numeric cases and fall back to
    per-row {!Algebra.Expr.eval} over boxed values everywhere else, so
    results are row-identical to the {!Local} oracle — including output
    *order*, which mirrors the row engine's construction order exactly
    (probe-side order for joins, first-seen order for groups, stable
    sorts). *)

open Algebra
open Memo
module Value = Catalog.Value
module Column = Catalog.Column

type t = {
  layout : int array;        (** column ids, parallel to [cols] *)
  cols : Column.t array;     (** dense columns, each of [rows] cells *)
  rows : int;                (** dense row count *)
  sel : int array option;    (** selected row indices in order; [None] = all *)
}

(** Visible (selected) row count. *)
let count b = match b.sel with Some s -> Array.length s | None -> b.rows

let identity n =
  let a = Array.make (max n 0) 0 in
  for i = 0 to n - 1 do Array.unsafe_set a i i done;
  a

let sel_array b = match b.sel with Some s -> s | None -> identity b.rows

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
      (fun c -> Array.iter (fun i -> acc := !acc + Column.bytes_at c i) s)
      b.cols;
    float_of_int !acc

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

let to_rset (b : t) : Local.rset =
  let b = compact b in
  let w = Array.length b.cols in
  { Local.layout = Array.to_list b.layout;
    rows = List.init b.rows (fun i -> Array.init w (fun j -> Column.get b.cols.(j) i)) }

(** View a column-major base table as a dense batch (layout filled in by
    the scan operator). *)
let of_table (tbl : Column.table) : t =
  { layout = Array.make (Array.length tbl.Column.cols) (-1);
    cols = tbl.Column.cols; rows = tbl.Column.nrows; sel = None }

let empty (layout : int list) : t =
  { layout = Array.of_list layout;
    cols = Array.of_list (List.map (fun _ -> Column.Boxed [||]) layout);
    rows = 0; sel = None }

(* -- layout resolution -- *)

type ctx = { idx : (int, int) Hashtbl.t; b : t }

let ctx_of b : ctx =
  let idx = Hashtbl.create (Array.length b.layout) in
  Array.iteri (fun i c -> if not (Hashtbl.mem idx c) then Hashtbl.replace idx c i) b.layout;
  { idx; b }

let col_pos ctx c =
  match Hashtbl.find_opt ctx.idx c with
  | Some j -> j
  | None -> raise (Local.Exec_error (Printf.sprintf "column #%d not in layout" c))

(** Positions (first occurrence) of [cols] in the batch layout. *)
let positions (b : t) (cols : int list) : int array =
  let ctx = ctx_of b in
  Array.of_list (List.map (col_pos ctx) cols)

(* boxed row view at dense index [i], for exact-semantics fallbacks *)
let env_at ctx i (c : int) : Value.t = Column.get ctx.b.cols.(col_pos ctx c) i

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
    v.a.(v.len) <- x;
    v.len <- v.len + 1
  let contents v = Array.sub v.a 0 v.len
end

(* -- expression evaluation over column slices -- *)

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

(* generic combiner: exact [Expr.eval] null/arith semantics per row *)
let arith_generic op ca cb n : Column.t =
  let bld = Column.Builder.create ~capacity:(max 1 n) () in
  for i = 0 to n - 1 do
    let x = Column.get ca i and y = Column.get cb i in
    Column.Builder.add bld
      (if Value.is_null x || Value.is_null y then Value.Null else Expr.arith op x y)
  done;
  Column.Builder.finish bld

let arith_cols (op : Expr.binop) (ca : Column.t) (cb : Column.t) : Column.t =
  let n = Column.length ca in
  match ca, cb, op with
  | Column.Ints { tag = Column.As_int; data = xa; nulls = None },
    Column.Ints { tag = Column.As_int; data = xb; nulls = None },
    (Expr.Add | Expr.Sub | Expr.Mul) ->
    let d = Column.make_ints n in
    (match op with
     | Expr.Add -> for i = 0 to n - 1 do d.{i} <- xa.{i} + xb.{i} done
     | Expr.Sub -> for i = 0 to n - 1 do d.{i} <- xa.{i} - xb.{i} done
     | _ -> for i = 0 to n - 1 do d.{i} <- xa.{i} * xb.{i} done);
    Column.Ints { tag = Column.As_int; data = d; nulls = None }
  | Column.Floats { data = xa; nulls = None },
    Column.Floats { data = xb; nulls = None },
    (Expr.Add | Expr.Sub | Expr.Mul) ->
    let d = Column.make_floats n in
    (match op with
     | Expr.Add -> for i = 0 to n - 1 do d.{i} <- xa.{i} +. xb.{i} done
     | Expr.Sub -> for i = 0 to n - 1 do d.{i} <- xa.{i} -. xb.{i} done
     | _ -> for i = 0 to n - 1 do d.{i} <- xa.{i} *. xb.{i} done);
    Column.Floats { data = d; nulls = None }
  | Column.Floats { data = xa; nulls = None },
    Column.Ints { tag = Column.As_int; data = xb; nulls = None },
    (Expr.Add | Expr.Sub | Expr.Mul) ->
    let d = Column.make_floats n in
    (match op with
     | Expr.Add -> for i = 0 to n - 1 do d.{i} <- xa.{i} +. float_of_int xb.{i} done
     | Expr.Sub -> for i = 0 to n - 1 do d.{i} <- xa.{i} -. float_of_int xb.{i} done
     | _ -> for i = 0 to n - 1 do d.{i} <- xa.{i} *. float_of_int xb.{i} done);
    Column.Floats { data = d; nulls = None }
  | Column.Ints { tag = Column.As_int; data = xa; nulls = None },
    Column.Floats { data = xb; nulls = None },
    (Expr.Add | Expr.Sub | Expr.Mul) ->
    let d = Column.make_floats n in
    (match op with
     | Expr.Add -> for i = 0 to n - 1 do d.{i} <- float_of_int xa.{i} +. xb.{i} done
     | Expr.Sub -> for i = 0 to n - 1 do d.{i} <- float_of_int xa.{i} -. xb.{i} done
     | _ -> for i = 0 to n - 1 do d.{i} <- float_of_int xa.{i} *. xb.{i} done);
    Column.Floats { data = d; nulls = None }
  | _ -> arith_generic op ca cb n

let cmp_cols (op : Expr.binop) ca cb n : Column.t =
  let bld = Column.Builder.create ~capacity:(max 1 n) () in
  for i = 0 to n - 1 do
    Column.Builder.add bld
      (match Expr.compare3 op (Column.get ca i) (Column.get cb i) with
       | Some b -> Value.Bool b
       | None -> Value.Null)
  done;
  Column.Builder.finish bld

(** Evaluate [e] over the selected rows of the context batch; the result
    is a dense column of [length sel] cells, in selection order. *)
let rec eval_col ctx (sel : int array option) (e : Expr.t) : Column.t =
  let n = match sel with Some s -> Array.length s | None -> ctx.b.rows in
  match e with
  | Expr.Col c ->
    let col = ctx.b.cols.(col_pos ctx c) in
    (match sel with None -> col | Some s -> Column.gather col s)
  | Expr.Lit v -> const_col v n
  | Expr.Bin ((Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Mod) as op, a, b) ->
    arith_cols op (eval_col ctx sel a) (eval_col ctx sel b)
  | Expr.Bin ((Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op, a, b) ->
    cmp_cols op (eval_col ctx sel a) (eval_col ctx sel b) n
  | Expr.Un (Expr.Neg, a) ->
    let ca = eval_col ctx sel a in
    let bld = Column.Builder.create ~capacity:(max 1 n) () in
    for i = 0 to n - 1 do
      Column.Builder.add bld
        (match Column.get ca i with
         | Value.Int x -> Value.Int (-x)
         | Value.Float x -> Value.Float (-.x)
         | Value.Null -> Value.Null
         | v -> Expr.type_err "negate %s" (Value.to_string v))
    done;
    Column.Builder.finish bld
  | Expr.Un (Expr.Not, a) ->
    let ca = eval_col ctx sel a in
    let bld = Column.Builder.create ~capacity:(max 1 n) () in
    for i = 0 to n - 1 do
      Column.Builder.add bld
        (match Column.get ca i with
         | Value.Bool b -> Value.Bool (not b)
         | Value.Null -> Value.Null
         | v -> Expr.type_err "NOT %s" (Value.to_string v))
    done;
    Column.Builder.finish bld
  | Expr.Is_null (a, negated) ->
    let ca = eval_col ctx sel a in
    let bld = Column.Builder.create ~capacity:(max 1 n) () in
    for i = 0 to n - 1 do
      let nl = Column.is_null ca i in
      Column.Builder.add bld (Value.Bool (if negated then not nl else nl))
    done;
    Column.Builder.finish bld
  | Expr.Like (a, pattern, negated) ->
    let ca = eval_col ctx sel a in
    let bld = Column.Builder.create ~capacity:(max 1 n) () in
    for i = 0 to n - 1 do
      Column.Builder.add bld
        (match Column.get ca i with
         | Value.Null -> Value.Null
         | Value.String s ->
           let m = Expr.like_match ~pattern s in
           Value.Bool (if negated then not m else m)
         | v -> Expr.type_err "LIKE on %s" (Value.to_string v))
    done;
    Column.Builder.finish bld
  | Expr.In_list (a, items, negated) ->
    let ca = eval_col ctx sel a in
    let has_null = List.exists Value.is_null items in
    let bld = Column.Builder.create ~capacity:(max 1 n) () in
    for i = 0 to n - 1 do
      Column.Builder.add bld
        (match Column.get ca i with
         | Value.Null -> Value.Null
         | v ->
           let m =
             List.exists (fun it -> (not (Value.is_null it)) && Value.equal v it) items
           in
           if m then Value.Bool (not negated)
           else if has_null then Value.Null
           else Value.Bool negated)
    done;
    Column.Builder.finish bld
  | Expr.Cast (a, ty) ->
    let ca = eval_col ctx sel a in
    let bld = Column.Builder.create ~capacity:(max 1 n) () in
    for i = 0 to n - 1 do
      Column.Builder.add bld (Expr.cast_value ty (Column.get ca i))
    done;
    Column.Builder.finish bld
  | Expr.Func (fn, args) ->
    let cargs = List.map (eval_col ctx sel) args in
    let bld = Column.Builder.create ~capacity:(max 1 n) () in
    for i = 0 to n - 1 do
      Column.Builder.add bld
        (Expr.apply_func fn (List.map (fun c -> Column.get c i) cargs))
    done;
    Column.Builder.finish bld
  | Expr.Bin ((Expr.And | Expr.Or), _, _) | Expr.Case _ ->
    (* per-row laziness (short-circuit AND/OR, CASE branch selection) is
       part of the row semantics: evaluate exactly like the oracle *)
    let bld = Column.Builder.create ~capacity:(max 1 n) () in
    (match sel with
     | None ->
       for i = 0 to n - 1 do Column.Builder.add bld (Expr.eval (env_at ctx i) e) done
     | Some s ->
       Array.iter (fun i -> Column.Builder.add bld (Expr.eval (env_at ctx i) e)) s);
    Column.Builder.finish bld

(* -- predicate filtering: selection in, narrowed selection out -- *)

let cmp_test (op : Expr.binop) (c : int) =
  match op with
  | Expr.Eq -> c = 0 | Expr.Ne -> c <> 0
  | Expr.Lt -> c < 0 | Expr.Le -> c <= 0
  | Expr.Gt -> c > 0 | Expr.Ge -> c >= 0
  | _ -> assert false

(* mirror a comparison so the literal moves to the right-hand side *)
let mirror_cmp = function
  | Expr.Lt -> Expr.Gt | Expr.Gt -> Expr.Lt
  | Expr.Le -> Expr.Ge | Expr.Ge -> Expr.Le
  | op -> op

(* Zero-materialization comparison filters: the hot WHERE shapes
   (column <op> literal, column <op> column) loop directly over the stored
   column through the selection indirection — no gather, no constant-column
   fill, no intermediate Bigarrays. Semantics are [Expr.compare3]'s exactly
   (numeric int/float mixing, UNKNOWN drops the row). The comparison operator
   is hoisted into sign flags and the null mask matched once, so the per-row
   work is branch + store with no function calls. *)
(* Per-domain scratch buffer for selection outputs: filters write matching
   row indices here, then copy out the exact-size result. Reused across
   calls so the transient full-width buffers never hit the major heap —
   allocation-triggered GC marking otherwise makes filter cost grow with
   the *live* heap, superlinearly in the scale factor. Each pool domain
   gets its own buffer, and outputs never alias it because every result is
   a fresh [Array.sub]. *)
let scratch_key : int array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let scratch_buf n =
  let r = Domain.DLS.get scratch_key in
  if Array.length !r < n then r := Array.make (max n (2 * Array.length !r)) 0;
  !r

(* [sel = None] means the dense rows [0 .. n-1]. *)
let keep_ints (sel : int array option) ~(n : int) ~lt_ok ~eq_ok ~gt_ok
    (data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t)
    (nulls : Bytes.t option) (c : int) : int array option =
  let buf = scratch_buf n in
  let m = ref 0 in
  (match sel, nulls with
   | None, None ->
     for i = 0 to n - 1 do
       let x = Bigarray.Array1.unsafe_get data i in
       if (if x < c then lt_ok else if x = c then eq_ok else gt_ok) then begin
         Array.unsafe_set buf !m i; incr m
       end
     done
   | Some s, None ->
     for k = 0 to n - 1 do
       let i = Array.unsafe_get s k in
       let x = Bigarray.Array1.unsafe_get data i in
       if (if x < c then lt_ok else if x = c then eq_ok else gt_ok) then begin
         Array.unsafe_set buf !m i; incr m
       end
     done
   | None, Some nb ->
     for i = 0 to n - 1 do
       if Bytes.unsafe_get nb i = '\000' then begin
         let x = Bigarray.Array1.unsafe_get data i in
         if (if x < c then lt_ok else if x = c then eq_ok else gt_ok) then begin
           Array.unsafe_set buf !m i; incr m
         end
       end
     done
   | Some s, Some nb ->
     for k = 0 to n - 1 do
       let i = Array.unsafe_get s k in
       if Bytes.unsafe_get nb i = '\000' then begin
         let x = Bigarray.Array1.unsafe_get data i in
         if (if x < c then lt_ok else if x = c then eq_ok else gt_ok) then begin
           Array.unsafe_set buf !m i; incr m
         end
       end
     done);
  Some (Array.sub buf 0 !m)

let keep_floats (sel : int array option) ~(n : int) ~lt_ok ~eq_ok ~gt_ok
    (data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t)
    (nulls : Bytes.t option) (c : float) : int array option =
  let buf = scratch_buf n in
  let m = ref 0 in
  (match sel, nulls with
   | None, None ->
     for i = 0 to n - 1 do
       let v = Float.compare (Bigarray.Array1.unsafe_get data i) c in
       if (if v < 0 then lt_ok else if v = 0 then eq_ok else gt_ok) then begin
         Array.unsafe_set buf !m i; incr m
       end
     done
   | Some s, None ->
     for k = 0 to n - 1 do
       let i = Array.unsafe_get s k in
       let v = Float.compare (Bigarray.Array1.unsafe_get data i) c in
       if (if v < 0 then lt_ok else if v = 0 then eq_ok else gt_ok) then begin
         Array.unsafe_set buf !m i; incr m
       end
     done
   | None, Some nb ->
     for i = 0 to n - 1 do
       if Bytes.unsafe_get nb i = '\000' then begin
         let v = Float.compare (Bigarray.Array1.unsafe_get data i) c in
         if (if v < 0 then lt_ok else if v = 0 then eq_ok else gt_ok) then begin
           Array.unsafe_set buf !m i; incr m
         end
       end
     done
   | Some s, Some nb ->
     for k = 0 to n - 1 do
       let i = Array.unsafe_get s k in
       if Bytes.unsafe_get nb i = '\000' then begin
         let v = Float.compare (Bigarray.Array1.unsafe_get data i) c in
         if (if v < 0 then lt_ok else if v = 0 then eq_ok else gt_ok) then begin
           Array.unsafe_set buf !m i; incr m
         end
       end
     done);
  Some (Array.sub buf 0 !m)

let filter_cmp_fast ctx (sel : int array option) ~(n : int) op ea eb :
  int array option =
  let lt_ok = (op = Expr.Lt || op = Expr.Le || op = Expr.Ne) in
  let eq_ok = (op = Expr.Le || op = Expr.Ge || op = Expr.Eq) in
  let gt_ok = (op = Expr.Gt || op = Expr.Ge || op = Expr.Ne) in
  let keep test =
    let buf = scratch_buf n in
    let m = ref 0 in
    (match sel with
     | None ->
       for i = 0 to n - 1 do
         if test i then begin buf.(!m) <- i; incr m end
       done
     | Some s ->
       for k = 0 to n - 1 do
         let i = Array.unsafe_get s k in
         if test i then begin buf.(!m) <- i; incr m end
       done);
    Some (Array.sub buf 0 !m)
  in
  let col = function Expr.Col c -> Some ctx.b.cols.(col_pos ctx c) | _ -> None in
  match col ea, col eb, ea, eb with
  | Some ca, Some cb, _, _ ->
    (match ca, cb with
     | Column.Ints { tag = ta; data = xa; nulls = None },
       Column.Ints { tag = tb; data = xb; nulls = None } when ta = tb ->
       let buf = scratch_buf n in
       let m = ref 0 in
       let row i =
         let x = Bigarray.Array1.unsafe_get xa i
         and y = Bigarray.Array1.unsafe_get xb i in
         if (if x < y then lt_ok else if x = y then eq_ok else gt_ok) then begin
           Array.unsafe_set buf !m i; incr m
         end
       in
       (match sel with
        | None -> for i = 0 to n - 1 do row i done
        | Some s -> for k = 0 to n - 1 do row (Array.unsafe_get s k) done);
       Some (Array.sub buf 0 !m)
     | Column.Ints { tag = ta; data = xa; nulls = na },
       Column.Ints { tag = tb; data = xb; nulls = nb } when ta = tb ->
       keep (fun i ->
           (not (Column.null_bit na i)) && (not (Column.null_bit nb i))
           && cmp_test op (Int.compare xa.{i} xb.{i}))
     | Column.Floats { data = xa; nulls = None }, Column.Floats { data = xb; nulls = None } ->
       let buf = scratch_buf n in
       let m = ref 0 in
       let row i =
         let v =
           Float.compare (Bigarray.Array1.unsafe_get xa i)
             (Bigarray.Array1.unsafe_get xb i)
         in
         if (if v < 0 then lt_ok else if v = 0 then eq_ok else gt_ok) then begin
           Array.unsafe_set buf !m i; incr m
         end
       in
       (match sel with
        | None -> for i = 0 to n - 1 do row i done
        | Some s -> for k = 0 to n - 1 do row (Array.unsafe_get s k) done);
       Some (Array.sub buf 0 !m)
     | Column.Floats { data = xa; nulls = na }, Column.Floats { data = xb; nulls = nb } ->
       keep (fun i ->
           (not (Column.null_bit na i)) && (not (Column.null_bit nb i))
           && cmp_test op (Float.compare xa.{i} xb.{i}))
     | Column.Ints { tag = Column.As_int; data = xa; nulls = na },
       Column.Floats { data = xb; nulls = nb } ->
       keep (fun i ->
           (not (Column.null_bit na i)) && (not (Column.null_bit nb i))
           && cmp_test op (Float.compare (float_of_int xa.{i}) xb.{i}))
     | Column.Floats { data = xa; nulls = na },
       Column.Ints { tag = Column.As_int; data = xb; nulls = nb } ->
       keep (fun i ->
           (not (Column.null_bit na i)) && (not (Column.null_bit nb i))
           && cmp_test op (Float.compare xa.{i} (float_of_int xb.{i})))
     | _ ->
       keep (fun i ->
           match Expr.compare3 op (Column.get ca i) (Column.get cb i) with
           | Some true -> true
           | _ -> false))
  | Some ca, None, _, Expr.Lit v | None, Some ca, Expr.Lit v, _ ->
    let op = match eb with Expr.Lit _ -> op | _ -> mirror_cmp op in
    let lt_ok = (op = Expr.Lt || op = Expr.Le || op = Expr.Ne) in
    let eq_ok = (op = Expr.Le || op = Expr.Ge || op = Expr.Eq) in
    let gt_ok = (op = Expr.Gt || op = Expr.Ge || op = Expr.Ne) in
    if Value.is_null v then Some [||]
    else begin
      match ca, v with
      | Column.Ints { tag = Column.As_int; data; nulls }, Value.Int c ->
        keep_ints sel ~n ~lt_ok ~eq_ok ~gt_ok data nulls c
      | Column.Ints { tag = Column.As_date; data; nulls }, Value.Date c ->
        keep_ints sel ~n ~lt_ok ~eq_ok ~gt_ok data nulls c
      | Column.Ints { tag = Column.As_bool; data; nulls }, Value.Bool c ->
        keep_ints sel ~n ~lt_ok ~eq_ok ~gt_ok data nulls (if c then 1 else 0)
      | Column.Ints { tag = Column.As_int; data; nulls }, Value.Float f ->
        keep (fun i ->
            (not (Column.null_bit nulls i))
            && cmp_test op (Float.compare (float_of_int data.{i}) f))
      | Column.Floats { data; nulls }, Value.Float f ->
        keep_floats sel ~n ~lt_ok ~eq_ok ~gt_ok data nulls f
      | Column.Floats { data; nulls }, Value.Int c ->
        keep_floats sel ~n ~lt_ok ~eq_ok ~gt_ok data nulls (float_of_int c)
      | Column.Boxed arr, _ ->
        keep (fun i ->
            match Expr.compare3 op arr.(i) v with Some true -> true | _ -> false)
      | _ ->
        keep (fun i ->
            match Expr.compare3 op (Column.get ca i) v with
            | Some true -> true
            | _ -> false)
    end
  | _ -> None

(* [sel = None] = all dense rows of the batch, avoiding the identity
   selection array entirely (its allocation alone dominated cheap
   filters). Returns the surviving row indices. *)
let rec filter_sel ctx (sel : int array option) (e : Expr.t) : int array =
  let n = match sel with Some s -> Array.length s | None -> ctx.b.rows in
  (* map a position in the evaluated (selection-compacted) column back to
     its dense row index *)
  let row_of =
    match sel with None -> fun k -> k | Some s -> fun k -> Array.unsafe_get s k
  in
  match e with
  | Expr.Bin (Expr.And, a, b) ->
    (* WHERE-clause AND: both conjuncts must be true, which sequential
       narrowing computes (UNKNOWN drops the row either way) *)
    filter_sel ctx (Some (filter_sel ctx sel a)) b
  | Expr.Bin ((Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op, a, b) ->
    (match filter_cmp_fast ctx sel ~n op a b with
     | Some narrowed -> narrowed
     | None ->
       (* operands are computed expressions: materialize them densely once,
          then compare in selection order *)
       let ca = eval_col ctx sel a and cb = eval_col ctx sel b in
       let buf = scratch_buf n in
       let m = ref 0 in
       (match ca, cb with
        | Column.Ints { tag = ta; data = xa; nulls = None },
          Column.Ints { tag = tb; data = xb; nulls = None }
          when ta = tb ->
          for k = 0 to n - 1 do
            if cmp_test op (Int.compare xa.{k} xb.{k}) then begin
              buf.(!m) <- row_of k; incr m
            end
          done
        | Column.Floats { data = xa; nulls = None },
          Column.Floats { data = xb; nulls = None } ->
          for k = 0 to n - 1 do
            if cmp_test op (Float.compare xa.{k} xb.{k}) then begin
              buf.(!m) <- row_of k; incr m
            end
          done
        | Column.Ints { tag = Column.As_int; data = xa; nulls = None },
          Column.Floats { data = xb; nulls = None } ->
          for k = 0 to n - 1 do
            if cmp_test op (Float.compare (float_of_int xa.{k}) xb.{k}) then begin
              buf.(!m) <- row_of k; incr m
            end
          done
        | Column.Floats { data = xa; nulls = None },
          Column.Ints { tag = Column.As_int; data = xb; nulls = None } ->
          for k = 0 to n - 1 do
            if cmp_test op (Float.compare xa.{k} (float_of_int xb.{k})) then begin
              buf.(!m) <- row_of k; incr m
            end
          done
        | _ ->
          for k = 0 to n - 1 do
            match Expr.compare3 op (Column.get ca k) (Column.get cb k) with
            | Some true -> buf.(!m) <- row_of k; incr m
            | _ -> ()
          done);
       Array.sub buf 0 !m)
  | Expr.Like (a, pattern, negated) ->
    (* LIKE kernel: match each selected string where it is stored (a bare
       column is read through the selection, a computed operand is
       evaluated once) and narrow the selection, no Bool column between *)
    let col, at =
      match a with
      | Expr.Col c -> (ctx.b.cols.(col_pos ctx c), row_of)
      | _ -> (eval_col ctx sel a, Fun.id)
    in
    let buf = scratch_buf n in
    let m = ref 0 in
    for k = 0 to n - 1 do
      match Column.get col (at k) with
      | Value.String s ->
        if Expr.like_match ~pattern s <> negated then begin
          buf.(!m) <- row_of k; incr m
        end
      | Value.Null -> ()
      | v -> Expr.type_err "LIKE on %s" (Value.to_string v)
    done;
    Array.sub buf 0 !m
  | _ ->
    (* evaluate as a boolean column and keep the TRUE rows; any non-bool
       non-null result is a type error, as in [Expr.eval_pred] *)
    let cc = eval_col ctx sel e in
    let buf = scratch_buf n in
    let m = ref 0 in
    for k = 0 to n - 1 do
      match Column.get cc k with
      | Value.Bool true -> buf.(!m) <- row_of k; incr m
      | Value.Bool false | Value.Null -> ()
      | v -> Expr.type_err "predicate evaluated to %s" (Value.to_string v)
    done;
    Array.sub buf 0 !m

(* -- typed keys: hash and equality resolved once per operator -- *)

(* One key column pair, resolved once per operator: a hash of a cell on
   each side ([ha] over side a's rows, [hb] over side b's) and an equality
   over (a-row, b-row) with {!Catalog.Value.equal} semantics, so equal
   cells hash alike. A NULL equals only a NULL, which is how grouping
   treats it; joins drop null keys before they hash. Same-tag int pairs
   and float pairs read their unboxed buffers; every other pair (boxed
   strings, type-mixed columns, Int against Float) goes through
   {!Column.get}, {!Catalog.Value.hash} and {!Catalog.Value.equal}, the
   row engine's own key semantics. *)
type keycol = { ha : int -> int; hb : int -> int; eq : int -> int -> bool }

let null_hash = 17

(* one hash per [Float.equal] class: -0. and 0. agree, and so do all NaNs *)
let float_hash x =
  if x = 0. then 0
  else if Float.is_nan x then 1
  else Int64.to_int (Int64.bits_of_float x)

let keycol (ca : Column.t) (cb : Column.t) : keycol =
  match ca, cb with
  | Column.Ints { tag = ta; data = xa; nulls = na },
    Column.Ints { tag = tb; data = xb; nulls = nb } when ta = tb ->
    let h x nulls i =
      if Column.null_bit nulls i then null_hash else Bigarray.Array1.unsafe_get x i
    in
    { ha = h xa na; hb = h xb nb;
      eq = (fun i j ->
          let ni = Column.null_bit na i and nj = Column.null_bit nb j in
          if ni || nj then ni && nj
          else Bigarray.Array1.unsafe_get xa i = Bigarray.Array1.unsafe_get xb j) }
  | Column.Floats { data = xa; nulls = na }, Column.Floats { data = xb; nulls = nb } ->
    let h x nulls i =
      if Column.null_bit nulls i then null_hash
      else float_hash (Bigarray.Array1.unsafe_get x i)
    in
    { ha = h xa na; hb = h xb nb;
      eq = (fun i j ->
          let ni = Column.null_bit na i and nj = Column.null_bit nb j in
          if ni || nj then ni && nj
          else Float.equal (Bigarray.Array1.unsafe_get xa i) (Bigarray.Array1.unsafe_get xb j)) }
  | _ ->
    { ha = (fun i -> Value.hash (Column.get ca i));
      hb = (fun j -> Value.hash (Column.get cb j));
      eq = (fun i j -> Value.equal (Column.get ca i) (Column.get cb j)) }

(* A multi-column key: per-column hashes folded as the row engine's
   [Local.Key.hash] does, and every column equal. *)
let key_of (kc : keycol array) : keycol =
  match kc with
  | [| k |] -> k
  | _ ->
    let n = Array.length kc in
    let fold side i =
      let h = ref 17 in
      for c = 0 to n - 1 do
        let k = Array.unsafe_get kc c in
        h := (!h * 31) + (if side then k.ha i else k.hb i)
      done;
      !h
    in
    { ha = fold true; hb = fold false;
      eq = (fun i j ->
          let c = ref 0 in
          while !c < n && (Array.unsafe_get kc !c).eq i j do incr c done;
          !c = n) }

let bucket h mask =
  let h = h * 0x9E3779B1 in
  (h lxor (h lsr 29)) land mask

let any_null (cols : Column.t array) i =
  let c = ref 0 in
  while !c < Array.length cols && not (Column.is_null (Array.unsafe_get cols !c) i) do
    incr c
  done;
  !c < Array.length cols

(* -- joins -- *)

(* A residual-predicate column: where its first occurrence in the row
   engine's combined (left @ right) layout lives. *)
type pcol = Left of Column.t | Right of Column.t | Missing

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

let hash_join_b ?need ~(kind : Relop.join_kind) ~(pred : Expr.t) (l : t) (r : t) : t =
  (* runs directly through the inputs' selection vectors: compacting a
     wide filtered input would gather every column only to discard most
     rows at the (usually far smaller) join output. [li]/[rj] accumulate
     underlying row indices, so the output gather is the only copy. *)
  let ln_rows = count l and rn_rows = count r in
  let lrow =
    match l.sel with
    | Some s -> fun k -> Array.unsafe_get s k
    | None -> fun k -> k
  in
  let rrow =
    match r.sel with
    | Some s -> fun k -> Array.unsafe_get s k
    | None -> fun k -> k
  in
  let equi =
    Physop.oriented_equi_pairs pred
      ~left_cols:(Registry.Col_set.of_list (Array.to_list l.layout))
      ~right_cols:(Registry.Col_set.of_list (Array.to_list r.layout))
  in
  (* the predicate's columns resolved once to a side and a column, with
     the first-occurrence precedence of the row engine's
     [make_env (l.layout @ r.layout)]; a cell lookup is then a short scan
     of the predicate's own columns *)
  let pids = Array.of_list (Registry.Col_set.elements (Expr.cols pred)) in
  let pcols =
    Array.map
      (fun c ->
         let find layout = Array.find_index (fun c' -> c' = c) layout in
         match find l.layout, find r.layout with
         | Some p, _ -> Left l.cols.(p)
         | None, Some p -> Right r.cols.(p)
         | None, None -> Missing)
      pids
  in
  let cenv i jr c =
    let k = ref 0 in
    while !k < Array.length pids && Array.unsafe_get pids !k <> c do incr k done;
    match if !k < Array.length pids then pcols.(!k) else Missing with
    | Left col -> Column.get col i
    | Right col -> Column.get col jr
    | Missing -> raise (Local.Exec_error (Printf.sprintf "column #%d not in layout" c))
  in
  let pred_ok i jr = Expr.eval_pred (cenv i jr) pred in
  let li = Ivec.create ~capacity:(max 16 ln_rows) () in
  let rj = Ivec.create ~capacity:(max 16 ln_rows) () in
  let lkcols = Array.map (fun p -> l.cols.(p)) (positions l (List.map fst equi)) in
  let rkcols = Array.map (fun p -> r.cols.(p)) (positions r (List.map snd equi)) in
  (* with no equi pair the key is empty: one bucket, every row equal *)
  let key = key_of (Array.map2 keycol lkcols rkcols) in
  (* the residual check can be skipped when every conjunct is one of the
     hashed equi pairs: key equality already implies them *)
  let covered =
    equi <> []
    && List.for_all
      (fun cj ->
         match Expr.as_col_eq cj with
         | Some (a, b) -> List.mem (a, b) equi || List.mem (b, a) equi
         | None -> false)
      (Expr.conjuncts pred)
  in
  (* candidate chains over the build rows, keyed by row index: [head] per
     bucket and [next] per underlying row, no table node or boxed key per
     row. A hash join chains most-recent-first, the order of the row
     engine's per-key cons lists; nested loops chain every row in
     ascending order, the oracle's (left, right) iteration order. [scan]
     keeps only key-equal rows that pass the predicate, so matches come
     out in the row engine's order. *)
  let sz = ref 16 in
  while !sz < 2 * rn_rows do sz := !sz * 2 done;
  let mask = !sz - 1 in
  let head = Array.make !sz (-1) in
  let next = Array.make (max 1 r.rows) (-1) in
  let add jk =
    let j = rrow jk in
    if not (any_null rkcols j) then begin
      let h = bucket (key.hb j) mask in
      Array.unsafe_set next j (Array.unsafe_get head h);
      Array.unsafe_set head h j
    end
  in
  if equi = [] then for jk = rn_rows - 1 downto 0 do add jk done
  else for jk = 0 to rn_rows - 1 do add jk done;
  (* the first match of probe row [i] at or after chain entry [j] *)
  let rec scan i j =
    if j < 0 || (key.eq i j && (covered || pred_ok i j)) then j
    else scan i (Array.unsafe_get next j)
  in
  for ik = 0 to ln_rows - 1 do
    let i = lrow ik in
    let j =
      if any_null lkcols i then -1
      else scan i (Array.unsafe_get head (bucket (key.ha i) mask))
    in
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
        j := scan i (Array.unsafe_get next !j)
      done
  done;
  let lidx = Ivec.contents li in
  let gather (b : t) idx =
    let keep = keep_cols need b.layout in
    (Array.map (fun p -> b.layout.(p)) keep,
     Array.map (fun p -> Column.gather b.cols.(p) idx) keep)
  in
  let llayout, lcols = gather l lidx in
  match kind with
  | Relop.Semi | Relop.Anti_semi ->
    { layout = llayout; cols = lcols; rows = Array.length lidx; sel = None }
  | _ ->
    let rlayout, rcols = gather r (Ivec.contents rj) in
    { layout = Array.append llayout rlayout; cols = Array.append lcols rcols;
      rows = Array.length lidx; sel = None }

(* -- grouped aggregation over column slices -- *)

(* Compile a no-null numeric expression into a per-row float program over
   the stored columns: Sum/Avg/Count aggregate arguments evaluate with
   zero materialization (no gathers, no constant columns, no arithmetic
   temporaries). The boolean says the expression is integer-typed
   throughout — the row engine would produce [Value.Int]s — which the Sum
   finisher needs to reproduce Int results. Float operation order mirrors
   the expression tree and [Expr.arith]'s promotion exactly, so group sums
   are bit-identical to the row engine's accumulator. Returns [None] when
   any leaf is nullable, non-numeric, or an operator falls outside +,-,*. *)
let rec float_prog ctx (e : Expr.t) : ((int -> float) * bool) option =
  match e with
  | Expr.Lit (Value.Int x) ->
    let f = float_of_int x in
    Some ((fun _ -> f), true)
  | Expr.Lit (Value.Float f) -> Some ((fun _ -> f), false)
  | Expr.Col c ->
    (match ctx.b.cols.(col_pos ctx c) with
     | Column.Floats { data; nulls = None } ->
       Some ((fun i -> Bigarray.Array1.unsafe_get data i), false)
     | Column.Ints { tag = Column.As_int; data; nulls = None } ->
       Some ((fun i -> float_of_int (Bigarray.Array1.unsafe_get data i)), true)
     | _ -> None)
  | Expr.Bin ((Expr.Add | Expr.Sub | Expr.Mul) as op, a, b) ->
    (match float_prog ctx a, float_prog ctx b with
     | Some (fa, ia), Some (fb, ib) ->
       let g =
         match op with
         | Expr.Add -> fun i -> fa i +. fb i
         | Expr.Sub -> fun i -> fa i -. fb i
         | _ -> fun i -> fa i *. fb i
       in
       Some (g, ia && ib)
     | _ -> None)
  | _ -> None

(* group-id scratch, one per domain: aggregation never runs reentrantly on
   a domain and never calls the filter path, so reusing the buffer is safe
   and keeps the per-call transient allocation out of the major heap *)
let gid_key : int array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let gid_buf n =
  let r = Domain.DLS.get gid_key in
  if Array.length !r < n then r := Array.make (max n (2 * Array.length !r)) 0;
  !r

let run_aggregate_b ~(keys : int list) ~(aggs : Expr.agg_def list) (b : t) : t =
  let ctx = ctx_of b in
  let m = count b in
  let kpos = Array.of_list (List.map (col_pos ctx) keys) in
  let gid = gid_buf (max 1 m) in
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
    let key = key_of (Array.map (fun p -> keycol b.cols.(p) b.cols.(p)) kpos) in
    let heads = ref (Array.make 64 (-1)) in
    let gnext = Ivec.create () and ghash = Ivec.create () in
    let visit k i =
      let hv = key.ha i in
      let hd = !heads in
      let bk = bucket hv (Array.length hd - 1) in
      let g = ref (Array.unsafe_get hd bk) in
      while !g >= 0 && not (key.eq i (Array.unsafe_get reps.Ivec.a !g)) do
        g := Array.unsafe_get gnext.Ivec.a !g
      done;
      if !g >= 0 then Array.unsafe_set gid k !g
      else begin
        let g = !ngroups in
        incr ngroups;
        Ivec.push reps i;
        Ivec.push ghash hv;
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
      end
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
      let fprog =
        match e, a.Expr.agg_distinct with
        | Expr.Col _, _ | _, true -> None   (* bare columns use the view kernels *)
        | _ -> float_prog ctx e
      in
      (match a.Expr.agg_func, fprog with
       | (Expr.Sum | Expr.Avg), Some (f, is_int) ->
         let sum = Array.make out_groups 0. and cnt = Array.make out_groups 0 in
         (match b.sel with
          | None ->
            for k = 0 to m - 1 do
              let g = Array.unsafe_get gid k in
              Array.unsafe_set sum g (Array.unsafe_get sum g +. f k);
              Array.unsafe_set cnt g (Array.unsafe_get cnt g + 1)
            done
          | Some s ->
            for k = 0 to m - 1 do
              let g = Array.unsafe_get gid k in
              Array.unsafe_set sum g
                (Array.unsafe_get sum g +. f (Array.unsafe_get s k));
              Array.unsafe_set cnt g (Array.unsafe_get cnt g + 1)
            done);
         Array.init out_groups (fun g ->
             if cnt.(g) = 0 then Value.Null
             else if a.Expr.agg_func = Expr.Avg then
               Value.Float (sum.(g) /. float_of_int cnt.(g))
             else if
               is_int && Float.is_integer sum.(g) && Float.abs sum.(g) < 4.5e15
             then Value.Int (int_of_float sum.(g))
             else Value.Float sum.(g))
       | Expr.Count, Some _ ->
         (* the program only compiles over no-null inputs: every row counts *)
         let cnt = Array.make out_groups 0 in
         for k = 0 to m - 1 do cnt.(gid.(k)) <- cnt.(gid.(k)) + 1 done;
         Array.map (fun c -> Value.Int c) cnt
       | _ ->
      let vcol, vidx =
        match e with
        | Expr.Col c when not a.Expr.agg_distinct ->
          (ctx.b.cols.(col_pos ctx c), b.sel)
        | _ -> (eval_col ctx b.sel e, None)
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
      end)
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
  let ctx = ctx_of b in
  let m = b.rows in
  let kvals =
    List.map
      (fun (k : Relop.sort_key) ->
         (Column.to_values (eval_col ctx None k.Relop.key), k.Relop.desc))
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

(** Per-selected-row route hashes over the columns at positions [kpos],
    numerically identical to folding {!Catalog.Value.hash} over the boxed
    row key. *)
let route_hashes (b : t) (kpos : int array) : int array =
  let sel = sel_array b in
  let m = Array.length sel in
  let h = Array.make m 17 in
  Array.iter
    (fun p ->
       let c = b.cols.(p) in
       match c with
       | Column.Ints { tag = (Column.As_int | Column.As_date); data; nulls } ->
         for k = 0 to m - 1 do
           let i = sel.(k) in
           let hv = if Column.null_bit nulls i then 17 else Hashtbl.hash data.{i} in
           h.(k) <- (h.(k) * 31) + hv
         done
       | Column.Floats { data; nulls } ->
         for k = 0 to m - 1 do
           let i = sel.(k) in
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
           h.(k) <- (h.(k) * 31) + Value.hash (Column.get c sel.(k))
         done)
    kpos;
  Array.map abs h

(** Hash-partition the visible rows into [parts] dense batches (row order
    preserved within each part). *)
let partition (b : t) ~(kpos : int array) ~(parts : int) : t array =
  let sel = sel_array b in
  let m = Array.length sel in
  let hs = route_hashes b kpos in
  let counts = Array.make parts 0 in
  let dest = Array.make m 0 in
  for k = 0 to m - 1 do
    let d = hs.(k) mod parts in
    dest.(k) <- d;
    counts.(d) <- counts.(d) + 1
  done;
  let idxs = Array.init parts (fun p -> Array.make counts.(p) 0) in
  let fill = Array.make parts 0 in
  for k = 0 to m - 1 do
    let d = dest.(k) in
    idxs.(d).(fill.(d)) <- sel.(k);
    fill.(d) <- fill.(d) + 1
  done;
  Array.init parts (fun p ->
      { layout = b.layout;
        cols = Array.map (fun c -> Column.gather c idxs.(p)) b.cols;
        rows = counts.(p); sel = None })

(** Narrow the selection to rows whose route hash lands on [node]. *)
let trim (b : t) ~(kpos : int array) ~(node : int) ~(parts : int) : t =
  let sel = sel_array b in
  let hs = route_hashes b kpos in
  let buf = Array.make (Array.length sel) 0 in
  let m = ref 0 in
  Array.iteri
    (fun k i -> if hs.(k) mod parts = node then begin buf.(!m) <- i; incr m end)
    sel;
  { b with sel = Some (Array.sub buf 0 !m) }

(** Project the batch to [cols] (selection preserved; no copy for columns,
    only the layout view changes). *)
let project (b : t) (cols : int list) : t =
  if cols = Array.to_list b.layout then b
  else begin
    let ctx = ctx_of b in
    let cols' = Array.of_list (List.map (fun c -> b.cols.(col_pos ctx c)) cols) in
    { b with layout = Array.of_list cols; cols = cols' }
  end

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
  | Physop.Filter pred ->
    let c = child 0 in
    let ctx = ctx_of c in
    { c with sel = Some (filter_sel ctx c.sel pred) }
  | Physop.Compute defs ->
    let c = child 0 in
    let ctx = ctx_of c in
    { layout = Array.of_list (List.map fst defs);
      cols = Array.of_list (List.map (fun (_, e) -> eval_col ctx c.sel e) defs);
      rows = count c; sel = None }
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
