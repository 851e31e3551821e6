(** XML encoding of the MEMO (paper Fig. 2, component 3: "XML generator",
    and component 4's "PDW memo parser").

    The encoding carries the full search space: the column registry (with
    NDVs, so the PDW side can reason about group-by and join key
    distinctness), every group with its statistics (global cardinality Y
    and row width w), and every logical and physical group expression.

    Scalar expressions are interned. The serial optimizer copies a join
    predicate onto every Join, HashJoin and MergeJoin variant of a group, so
    a MEMO carries the same few dozen predicates many hundreds of times.
    [<memo>] therefore holds a [<scalars>] table of [<s id="i">] entries,
    one per distinct scalar, and a group expression refers to an entry by
    index: [pred="i"] on the [<expr>], [e="i"] on a [<def>] or [<sk>], and
    [arg="i"] on an [<agg>]. Two scalars share an entry exactly when their
    encodings are byte-identical, so [Float 0.] and [Float (-0.)] (equal
    under [=] and under [Hashtbl.hash]) stay apart. On import the table is
    decoded once, and every expression that refers to an entry shares the
    same [Expr.t] value.

    Both directions are single passes with no document tree: export writes
    the groups straight into a buffer while it fills the scalar table (in
    its own buffer, placed before the groups), and import reads the
    document with an {!Xml.reader} cursor into the registry, the scalar
    table and the groups.

    Group ids are written densely, in group order, so exporting an
    imported MEMO reproduces the document byte for byte.

    Malformed input of any kind raises {!Xml.Xml_error}. *)

open Algebra

let bad fmt = Printf.ksprintf (fun s -> raise (Xml.Xml_error s)) fmt

(* -- names -- *)

(* each table maps a name in the document to the value it encodes; the
   writer looks values up in it, the reader names *)
let rec name_from table v i =
  if snd table.(i) == v then fst table.(i) else name_from table v (i + 1)

(* every table lists every constructor of its type, and only constant
   ones, for which [==] is equality *)
let name_of table v = name_from table v 0

let type_names =
  Catalog.Types.[| ("int", Tint); ("float", Tfloat); ("varchar", Tstring); ("bool", Tbool);
                   ("date", Tdate) |]

let binop_names =
  Expr.[| ("add", Add); ("sub", Sub); ("mul", Mul); ("div", Div); ("mod", Mod); ("eq", Eq);
          ("ne", Ne); ("lt", Lt); ("le", Le); ("gt", Gt); ("ge", Ge); ("and", And);
          ("or", Or) |]

let func_names =
  Expr.[| ("dateadd_year", F_dateadd_year); ("dateadd_month", F_dateadd_month);
          ("dateadd_day", F_dateadd_day); ("year", F_year); ("substring", F_substring);
          ("abs", F_abs) |]

let agg_names =
  Expr.[| ("count_star", Count_star); ("count", Count); ("sum", Sum); ("avg", Avg);
          ("min", Min); ("max", Max) |]

let join_kind_names =
  Relop.[| ("inner", Inner); ("cross", Cross); ("semi", Semi); ("antisemi", Anti_semi);
           ("leftouter", Left_outer) |]

(* -- writing attributes -- *)

let bool_attr buf name b =
  Xml.attr_open buf name;
  Buffer.add_char buf (if b then '1' else '0');
  Xml.attr_close buf

let float_attr buf name fmt x = Xml.add_attr buf name (Printf.sprintf fmt x)

(** Append [Printf.sprintf "%g" x]. An integer below 10{^6} in magnitude
    (most column widths and NDVs) prints as its digits, so it skips the
    format interpreter. *)
let add_g buf x =
  if Float.is_integer x && Float.abs x < 1e6 && not (x = 0. && Float.sign_bit x) then
    Xml.add_int buf (int_of_float x)
  else Buffer.add_string buf (Printf.sprintf "%g" x)

let g_attr buf name x =
  Xml.attr_open buf name;
  add_g buf x;
  Xml.attr_close buf

let rec add_ints buf = function
  | [] -> ()
  | [ x ] -> Xml.add_int buf x
  | x :: rest ->
    Xml.add_int buf x;
    Buffer.add_char buf ',';
    add_ints buf rest

let ints_attr buf name l =
  Xml.attr_open buf name;
  add_ints buf l;
  Xml.attr_close buf

(* -- scalar expression encoding -- *)

let value_attrs buf (v : Catalog.Value.t) =
  match v with
  | Catalog.Value.Null -> Xml.add_attr buf "t" "null"
  | Catalog.Value.Int x -> Xml.add_attr buf "t" "int"; Xml.add_int_attr buf "v" x
  | Catalog.Value.Float x -> Xml.add_attr buf "t" "float"; float_attr buf "v" "%h" x
  | Catalog.Value.String s -> Xml.add_attr buf "t" "str"; Xml.add_attr buf "v" s
  | Catalog.Value.Bool b -> Xml.add_attr buf "t" "bool"; bool_attr buf "v" b
  | Catalog.Value.Date d -> Xml.add_attr buf "t" "date"; Xml.add_int_attr buf "v" d

let read_value r : Catalog.Value.t =
  match Xml.attr_string r "t" with
  | "null" -> Catalog.Value.Null
  | "int" -> Catalog.Value.Int (Xml.attr_int r "v")
  | "float" -> Catalog.Value.Float (Xml.attr_float r "v")
  | "str" -> Catalog.Value.String (Xml.attr_string r "v")
  | "bool" -> Catalog.Value.Bool (Xml.attr_is r "v" "1")
  | "date" -> Catalog.Value.Date (Xml.attr_int r "v")
  | t -> bad "unknown value type %s" t

(** Append the [<e>] element encoding [e] at nesting [depth]. *)
let rec write_expr buf depth (e : Expr.t) =
  let start k =
    Xml.start_tag buf depth "e";
    Xml.add_attr buf "k" k
  in
  (* the rest of the element: [kids] as its children *)
  let body kids =
    if kids = [] then Xml.end_empty buf
    else begin
      Xml.end_start buf;
      List.iter (write_expr buf (depth + 1)) kids;
      Xml.end_tag buf depth "e"
    end
  in
  (* a [<when>] or [<else>] wrapper one level down *)
  let wrap tag kids =
    Xml.start_tag buf (depth + 1) tag;
    Xml.end_start buf;
    List.iter (write_expr buf (depth + 2)) kids;
    Xml.end_tag buf (depth + 1) tag
  in
  match e with
  | Expr.Col c -> start "col"; Xml.add_int_attr buf "id" c; Xml.end_empty buf
  | Expr.Lit v -> start "lit"; value_attrs buf v; Xml.end_empty buf
  | Expr.Bin (op, a, b) ->
    start "bin"; Xml.add_attr buf "op" (name_of binop_names op); body [ a; b ]
  | Expr.Un (Expr.Neg, a) -> start "un"; Xml.add_attr buf "op" "neg"; body [ a ]
  | Expr.Un (Expr.Not, a) -> start "un"; Xml.add_attr buf "op" "not"; body [ a ]
  | Expr.Is_null (a, neg) -> start "isnull"; bool_attr buf "neg" neg; body [ a ]
  | Expr.Like (a, pat, neg) ->
    start "like"; Xml.add_attr buf "pat" pat; bool_attr buf "neg" neg; body [ a ]
  | Expr.In_list (a, items, neg) ->
    start "inlist";
    bool_attr buf "neg" neg;
    Xml.end_start buf;
    write_expr buf (depth + 1) a;
    List.iter
      (fun v ->
         Xml.start_tag buf (depth + 1) "v";
         value_attrs buf v;
         Xml.end_empty buf)
      items;
    Xml.end_tag buf depth "e"
  | Expr.Case (branches, else_) ->
    start "case";
    if branches = [] && else_ = None then Xml.end_empty buf
    else begin
      Xml.end_start buf;
      List.iter (fun (c, v) -> wrap "when" [ c; v ]) branches;
      Option.iter (fun e -> wrap "else" [ e ]) else_;
      Xml.end_tag buf depth "e"
    end
  | Expr.Func (f, args) -> start "func"; Xml.add_attr buf "f" (name_of func_names f); body args
  | Expr.Cast (a, ty) -> start "cast"; Xml.add_attr buf "t" (name_of type_names ty); body [ a ]

(* the current element's [<e>] children *)
let rec read_kids r =
  let acc = ref [] in
  Xml.children r (fun () -> if Xml.is r "e" then acc := read_expr r :: !acc);
  List.rev !acc

(** Decode the [<e>] element the reader has just opened, children
    included. *)
and read_expr r : Expr.t =
  let one what = function [ a ] -> a | _ -> bad "%s expects 1 child" what in
  let neg () = Xml.attr_is r "neg" "1" in
  match Xml.attr_string r "k" with
  | "col" -> Expr.Col (Xml.attr_int r "id")
  | "lit" -> Expr.Lit (read_value r)
  | "bin" ->
    let op = Xml.attr_enum r "op" ~what:"binop" binop_names in
    (match read_kids r with
     | [ a; b ] -> Expr.Bin (op, a, b)
     | _ -> bad "bin expects 2 children")
  | "un" ->
    let op = if Xml.attr_is r "op" "neg" then Expr.Neg else Expr.Not in
    Expr.Un (op, one "un" (read_kids r))
  | "isnull" ->
    let neg = neg () in
    Expr.Is_null (one "isnull" (read_kids r), neg)
  | "like" ->
    let pat = Xml.attr_string r "pat" and neg = neg () in
    Expr.Like (one "like" (read_kids r), pat, neg)
  | "inlist" ->
    let neg = neg () in
    let kids = ref [] and items = ref [] in
    Xml.children r (fun () ->
        if Xml.is r "e" then kids := read_expr r :: !kids
        else if Xml.is r "v" then items := read_value r :: !items);
    Expr.In_list (one "inlist" !kids, List.rev !items, neg)
  | "case" ->
    let branches = ref [] and else_ = ref None in
    Xml.children r (fun () ->
        if Xml.is r "when" then
          match read_kids r with
          | [ c; v ] -> branches := (c, v) :: !branches
          | _ -> bad "when expects 2 children"
        else if Xml.is r "else" && Option.is_none !else_ then
          else_ := Some (one "else" (read_kids r)));
    Expr.Case (List.rev !branches, !else_)
  | "func" ->
    let f = Xml.attr_enum r "f" ~what:"func" func_names in
    Expr.Func (f, read_kids r)
  | "cast" ->
    let ty = Xml.attr_enum r "t" ~what:"type" type_names in
    Expr.Cast (one "cast" (read_kids r), ty)
  | k -> bad "unknown expression kind %s" k

(* -- the scalar table -- *)

let float_bits_alike x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  || (Float.is_nan x && Float.is_nan y && Float.sign_bit x = Float.sign_bit y)

let value_alike (a : Catalog.Value.t) (b : Catalog.Value.t) =
  match a, b with
  | Catalog.Value.Float x, Catalog.Value.Float y -> float_bits_alike x y
  | Catalog.Value.Float _, _ | _, Catalog.Value.Float _ -> false
  | _ -> a = b

(** Whether [a] and [b] encode to the same bytes: structural equality,
    except that floats compare as ["%h"] prints them (by bit pattern, with
    every NaN of one sign alike). *)
let rec alike (a : Expr.t) (b : Expr.t) =
  a == b
  ||
  match a, b with
  | Expr.Col x, Expr.Col y -> x = y
  | Expr.Lit x, Expr.Lit y -> value_alike x y
  | Expr.Bin (o, a1, a2), Expr.Bin (p, b1, b2) -> o = p && alike a1 b1 && alike a2 b2
  | Expr.Un (o, x), Expr.Un (p, y) -> o = p && alike x y
  | Expr.Is_null (x, n), Expr.Is_null (y, m) -> n = m && alike x y
  | Expr.Like (x, p, n), Expr.Like (y, q, m) -> String.equal p q && n = m && alike x y
  | Expr.In_list (x, vs, n), Expr.In_list (y, ws, m) ->
    n = m && alike x y && List.equal value_alike vs ws
  | Expr.Case (bs, e), Expr.Case (cs, f) ->
    List.equal (fun (c1, v1) (c2, v2) -> alike c1 c2 && alike v1 v2) bs cs
    && Option.equal alike e f
  | Expr.Func (f, xs), Expr.Func (g, ys) -> f = g && List.equal alike xs ys
  | Expr.Cast (x, s), Expr.Cast (y, t) -> s = t && alike x y
  | _ -> false

(* [Hashtbl.hash] sends 0. and -0. (and every NaN) to one bucket, which
   is coarser than [alike], as a hash must be *)
module By_identity = Hashtbl.Make (struct
    type t = Expr.t
    let equal = ( == )
    let hash = Hashtbl.hash
  end)

module By_encoding = Hashtbl.Make (struct
    type t = Expr.t
    let equal = alike
    let hash = Hashtbl.hash
  end)

(** Export side: the distinct scalars seen so far and their rendered
    [<s>] entries, in order of first appearance. The serial optimizer
    copies one predicate value onto every join variant, so most lookups
    stop at physical identity; the rest find their entry by encoding, and
    each entry is rendered once. *)
type interner = {
  by_identity : int By_identity.t;
  by_encoding : int By_encoding.t;
  entries : Buffer.t;
}

let interner () =
  { by_identity = By_identity.create 64; by_encoding = By_encoding.create 64;
    entries = Buffer.create 1024 }

(** The table index of [e]. *)
let intern t (e : Expr.t) =
  match By_identity.find_opt t.by_identity e with
  | Some id -> id
  | None ->
    let id =
      match By_encoding.find_opt t.by_encoding e with
      | Some id -> id
      | None ->
        let id = By_encoding.length t.by_encoding in
        By_encoding.add t.by_encoding e id;
        Xml.start_tag t.entries 2 "s";
        Xml.add_int_attr t.entries "id" id;
        Xml.end_start t.entries;
        write_expr t.entries 3 e;
        Xml.end_tag t.entries 2 "s";
        id
    in
    By_identity.add t.by_identity e id;
    id

let scalar_attr buf t name e = Xml.add_int_attr buf name (intern t e)

let read_scalars r : Expr.t array =
  let acc = ref [] and n = ref 0 in
  Xml.children r (fun () ->
      if Xml.is r "s" then begin
        if Xml.attr_int r "id" <> !n then bad "scalar ids must be dense and ordered";
        (match read_kids r with
         | [ e ] -> acc := e :: !acc
         | _ -> bad "s expects 1 child");
        incr n
      end);
  Array.of_list (List.rev !acc)

(** The scalar that attribute [name] of the current element refers to. *)
let scalar_ref (table : Expr.t array) r name =
  let i = Xml.attr_int r name in
  if i < 0 || i >= Array.length table then bad "dangling scalar reference %d" i;
  table.(i)

(* -- operator encoding -- *)

let write_aggs buf t depth aggs =
  List.iter
    (fun (a : Expr.agg_def) ->
       Xml.start_tag buf depth "agg";
       Xml.add_int_attr buf "out" a.Expr.agg_out;
       Xml.add_attr buf "f" (name_of agg_names a.Expr.agg_func);
       bool_attr buf "distinct" a.Expr.agg_distinct;
       Option.iter (scalar_attr buf t "arg") a.Expr.agg_arg;
       Xml.end_empty buf)
    aggs

let read_aggs table r =
  let acc = ref [] in
  Xml.children r (fun () ->
      if Xml.is r "agg" then begin
        let agg_out = Xml.attr_int r "out" in
        let agg_func = Xml.attr_enum r "f" ~what:"aggregate" agg_names in
        let agg_distinct = Xml.attr_is r "distinct" "1" in
        let agg_arg = if Xml.has_attr r "arg" then Some (scalar_ref table r "arg") else None in
        acc := { Expr.agg_out; agg_func; agg_distinct; agg_arg } :: !acc
      end);
  List.rev !acc

let write_sort_keys buf t depth keys =
  List.iter
    (fun (k : Relop.sort_key) ->
       Xml.start_tag buf depth "sk";
       bool_attr buf "desc" k.Relop.desc;
       scalar_attr buf t "e" k.Relop.key;
       Xml.end_empty buf)
    keys

let read_sort_keys table r =
  let acc = ref [] in
  Xml.children r (fun () ->
      if Xml.is r "sk" then begin
        let desc = Xml.attr_is r "desc" "1" in
        acc := { Relop.key = scalar_ref table r "e"; desc } :: !acc
      end);
  List.rev !acc

let write_defs buf t depth defs =
  List.iter
    (fun (c, e) ->
       Xml.start_tag buf depth "def";
       Xml.add_int_attr buf "out" c;
       scalar_attr buf t "e" e;
       Xml.end_empty buf)
    defs

let read_defs table r =
  let acc = ref [] in
  Xml.children r (fun () ->
      if Xml.is r "def" then begin
        let out = Xml.attr_int r "out" in
        acc := (out, scalar_ref table r "e") :: !acc
      end);
  List.rev !acc

let op_name : Memo_def.op -> string = function
  | Memo_def.Logical l ->
    (match l with
     | Relop.Get _ -> "Get" | Relop.Select _ -> "Select" | Relop.Project _ -> "Project"
     | Relop.Join _ -> "Join" | Relop.Group_by _ -> "GroupBy" | Relop.Sort _ -> "Sort"
     | Relop.Union_all -> "UnionAll" | Relop.Empty _ -> "Empty")
  | Memo_def.Physical p ->
    (match p with
     | Physop.Table_scan _ -> "TableScan" | Physop.Filter _ -> "Filter"
     | Physop.Compute _ -> "Compute" | Physop.Hash_join _ -> "HashJoin"
     | Physop.Merge_join _ -> "MergeJoin" | Physop.Nl_join _ -> "NestedLoopJoin"
     | Physop.Hash_agg _ -> "HashAggregate" | Physop.Stream_agg _ -> "StreamAggregate"
     | Physop.Sort_op _ -> "PhysicalSort" | Physop.Union_op -> "PhysUnionAll"
     | Physop.Const_empty _ -> "ConstEmpty")

(* the rest of an [<expr>] element: [write] appends [items] as its
   children *)
let end_expr buf t depth items write =
  match items with
  | [] -> Xml.end_empty buf
  | _ ->
    Xml.end_start buf;
    write buf t (depth + 1) items;
    Xml.end_tag buf depth "expr"

(** Append the rest of the [<expr>] element of [op] at nesting [depth],
    from after its [children] attribute: a function of [op] alone. *)
let write_op_tail buf t depth (op : Memo_def.op) =
  match op with
  | Memo_def.Logical (Relop.Get { table; alias; cols })
  | Memo_def.Physical (Physop.Table_scan { table; alias; cols }) ->
    Xml.add_attr buf "table" table;
    Xml.add_attr buf "alias" alias;
    ints_attr buf "cols" (Array.to_list cols);
    Xml.end_empty buf
  | Memo_def.Logical (Relop.Select p) | Memo_def.Physical (Physop.Filter p) ->
    scalar_attr buf t "pred" p;
    Xml.end_empty buf
  | Memo_def.Logical (Relop.Project defs) | Memo_def.Physical (Physop.Compute defs) ->
    end_expr buf t depth defs write_defs
  | Memo_def.Logical (Relop.Join { kind; pred })
  | Memo_def.Physical
      ( Physop.Hash_join { kind; pred } | Physop.Merge_join { kind; pred }
      | Physop.Nl_join { kind; pred } ) ->
    Xml.add_attr buf "kind" (name_of join_kind_names kind);
    scalar_attr buf t "pred" pred;
    Xml.end_empty buf
  | Memo_def.Logical (Relop.Group_by { keys; aggs })
  | Memo_def.Physical (Physop.Hash_agg { keys; aggs } | Physop.Stream_agg { keys; aggs }) ->
    ints_attr buf "keys" keys;
    end_expr buf t depth aggs write_aggs
  | Memo_def.Logical (Relop.Sort { keys; limit })
  | Memo_def.Physical (Physop.Sort_op { keys; limit }) ->
    Option.iter (Xml.add_int_attr buf "limit") limit;
    end_expr buf t depth keys write_sort_keys
  | Memo_def.Logical Relop.Union_all | Memo_def.Physical Physop.Union_op -> Xml.end_empty buf
  | Memo_def.Logical (Relop.Empty cols) | Memo_def.Physical (Physop.Const_empty cols) ->
    ints_attr buf "cols" cols;
    Xml.end_empty buf

(* the operator of the current [<expr>] element: its attributes, then
   its children *)
let decode_op table r : Memo_def.op =
  let pred () = scalar_ref table r "pred" in
  let kind () = Xml.attr_enum r "kind" ~what:"join kind" join_kind_names in
  let keys () = Xml.attr_int_list r "keys" in
  let limit () = if Xml.has_attr r "limit" then Some (Xml.attr_int r "limit") else None in
  let scan () =
    (Xml.attr_string r "table", Xml.attr_string r "alias", Xml.attr_int_array r "cols")
  in
  match Xml.attr_string r "op" with
  | "Get" ->
    let table, alias, cols = scan () in
    Memo_def.Logical (Relop.Get { table; alias; cols })
  | "Select" -> Memo_def.Logical (Relop.Select (pred ()))
  | "Project" -> Memo_def.Logical (Relop.Project (read_defs table r))
  | "Join" ->
    let kind = kind () in
    Memo_def.Logical (Relop.Join { kind; pred = pred () })
  | "GroupBy" ->
    let keys = keys () in
    Memo_def.Logical (Relop.Group_by { keys; aggs = read_aggs table r })
  | "Sort" ->
    let limit = limit () in
    Memo_def.Logical (Relop.Sort { keys = read_sort_keys table r; limit })
  | "UnionAll" -> Memo_def.Logical Relop.Union_all
  | "Empty" -> Memo_def.Logical (Relop.Empty (Xml.attr_int_list r "cols"))
  | "TableScan" ->
    let table, alias, cols = scan () in
    Memo_def.Physical (Physop.Table_scan { table; alias; cols })
  | "Filter" -> Memo_def.Physical (Physop.Filter (pred ()))
  | "Compute" -> Memo_def.Physical (Physop.Compute (read_defs table r))
  | "HashJoin" ->
    let kind = kind () in
    Memo_def.Physical (Physop.Hash_join { kind; pred = pred () })
  | "MergeJoin" ->
    let kind = kind () in
    Memo_def.Physical (Physop.Merge_join { kind; pred = pred () })
  | "NestedLoopJoin" ->
    let kind = kind () in
    Memo_def.Physical (Physop.Nl_join { kind; pred = pred () })
  | "HashAggregate" ->
    let keys = keys () in
    Memo_def.Physical (Physop.Hash_agg { keys; aggs = read_aggs table r })
  | "StreamAggregate" ->
    let keys = keys () in
    Memo_def.Physical (Physop.Stream_agg { keys; aggs = read_aggs table r })
  | "PhysicalSort" ->
    let limit = limit () in
    Memo_def.Physical (Physop.Sort_op { keys = read_sort_keys table r; limit })
  | "PhysUnionAll" -> Memo_def.Physical Physop.Union_op
  | "ConstEmpty" -> Memo_def.Physical (Physop.Const_empty (Xml.attr_int_list r "cols"))
  | op -> bad "unknown operator %s" op

(* A float literal that [compare] equates with one that encodes to other
   bytes: a zero (0. and -0.) or a NaN (of either sign). Two operators
   that share an oid encode alike unless one holds such a literal. *)
let rec ambiguous_float (e : Expr.t) =
  match e with
  | Expr.Col _ -> false
  | Expr.Lit v -> ambiguous_value v
  | Expr.Bin (_, a, b) -> ambiguous_float a || ambiguous_float b
  | Expr.Un (_, a) | Expr.Is_null (a, _) | Expr.Like (a, _, _) | Expr.Cast (a, _) ->
    ambiguous_float a
  | Expr.In_list (a, items, _) -> ambiguous_float a || List.exists ambiguous_value items
  | Expr.Case (branches, else_) ->
    List.exists (fun (c, v) -> ambiguous_float c || ambiguous_float v) branches
    || Option.fold ~none:false ~some:ambiguous_float else_
  | Expr.Func (_, args) -> List.exists ambiguous_float args

and ambiguous_value = function
  | Catalog.Value.Float x -> x = 0. || Float.is_nan x
  | _ -> false

let op_scalars : Memo_def.op -> Expr.t list = function
  | Memo_def.Logical (Relop.Select p | Relop.Join { pred = p; _ })
  | Memo_def.Physical
      ( Physop.Filter p | Physop.Hash_join { pred = p; _ } | Physop.Merge_join { pred = p; _ }
      | Physop.Nl_join { pred = p; _ } ) -> [ p ]
  | Memo_def.Logical (Relop.Project defs) | Memo_def.Physical (Physop.Compute defs) ->
    List.map snd defs
  | Memo_def.Logical (Relop.Group_by { aggs; _ })
  | Memo_def.Physical (Physop.Hash_agg { aggs; _ } | Physop.Stream_agg { aggs; _ }) ->
    List.filter_map (fun (a : Expr.agg_def) -> a.Expr.agg_arg) aggs
  | Memo_def.Logical (Relop.Sort { keys; _ }) | Memo_def.Physical (Physop.Sort_op { keys; _ }) ->
    List.map (fun (k : Relop.sort_key) -> k.Relop.key) keys
  | Memo_def.Logical (Relop.Get _ | Relop.Union_all | Relop.Empty _)
  | Memo_def.Physical (Physop.Table_scan _ | Physop.Union_op | Physop.Const_empty _) -> []

(** An operator's bytes on either side of its [children] value, per oid. *)
type rendering =
  | Unseen
  | Shared of { head : string; tail : string }
      (** for every expression of the oid: the start tag up to the child
          ids, and the rest of the element after them *)
  | Own  (** rendered per expression: see {!ambiguous_float} *)

let write_head buf op =
  Xml.start_tag buf 2 "expr";
  Xml.add_attr buf "op" (op_name op);
  Xml.attr_open buf "children"

let write_tail buf t op =
  Xml.attr_close buf;
  write_op_tail buf t 2 op

let rendered f =
  let b = Buffer.create 64 in
  f b;
  Buffer.contents b

let write_children buf group_ref children =
  Array.iteri
    (fun i c ->
       if i > 0 then Buffer.add_char buf ',';
       Xml.add_int buf (group_ref c))
    children

(** Append the [<expr>] element of [e] at nesting 2; [group_ref] maps its
    child groups to their document ids. [cache] keeps operator renderings
    by oid: the serial optimizer places one operator in many expressions
    (a join over each pair of equivalent inputs), and the first rendering
    interns its scalars in document order. *)
let rec write_expr_elt buf t cache group_ref (e : Memo_def.gexpr) =
  let op = e.Memo_def.op in
  match cache.(e.Memo_def.oid) with
  | Unseen ->
    cache.(e.Memo_def.oid) <-
      (if List.exists ambiguous_float (op_scalars op) then Own
       else
         let head = rendered (fun b -> write_head b op) in
         Shared { head; tail = rendered (fun b -> write_tail b t op) });
    write_expr_elt buf t cache group_ref e
  | Shared { head; tail } ->
    Buffer.add_string buf head;
    write_children buf group_ref e.Memo_def.children;
    Buffer.add_string buf tail
  | Own ->
    write_head buf op;
    write_children buf group_ref e.Memo_def.children;
    write_tail buf t op

(* the operator of the current [<expr>] element and its oid in [m]. The
   writer repeats one operator's bytes in every expression that holds it,
   so a self-closing element is decoded and interned once per distinct
   start tag, children aside; [seen] keeps them *)
let read_op m table seen r : Memo_def.op * int =
  let decode () =
    let op = decode_op table r in
    (op, Memo_def.intern m op)
  in
  if not (Xml.self_closing r) then decode ()
  else begin
    let key = Xml.tag_bytes_without r "children" in
    match Hashtbl.find_opt seen key with
    | Some op -> op
    | None ->
      let op = decode () in
      Hashtbl.add seen key op;
      op
  end

(* -- whole memo -- *)

let write_column buf reg id =
  let info = Registry.info reg id in
  let ndv =
    match Registry.stats reg id with
    | Some s -> s.Catalog.Col_stats.ndv
    | None -> 0.
  in
  Xml.start_tag buf 2 "col";
  Xml.add_int_attr buf "id" id;
  Xml.add_attr buf "name" info.Registry.name;
  Xml.add_attr buf "type" (name_of type_names info.Registry.ty);
  g_attr buf "width" info.Registry.width;
  g_attr buf "ndv" ndv;
  (match info.Registry.source with
   | Registry.Base { table; alias; column } ->
     Xml.add_attr buf "src" "base";
     Xml.add_attr buf "table" table;
     Xml.add_attr buf "salias" alias;
     Xml.add_attr buf "column" column
   | Registry.Derived d ->
     Xml.add_attr buf "src" "derived";
     Xml.add_attr buf "desc" d);
  Xml.end_empty buf

let read_column r reg =
  let id = Xml.attr_int r "id" in
  let source =
    if Xml.attr_is r "src" "base" then
      let table = Xml.attr_string r "table" in
      let alias = Xml.attr_string r "salias" in
      Registry.Base { table; alias; column = Xml.attr_string r "column" }
    else Registry.Derived (if Xml.has_attr r "desc" then Xml.attr_string r "desc" else "?")
  in
  let name = Xml.attr_string r "name" in
  let ty = Xml.attr_enum r "type" ~what:"type" type_names in
  let id' = Registry.fresh reg ~name ~ty ~width:(Xml.attr_float r "width") source in
  if id' <> id then bad "column ids must be dense and ordered";
  let ndv = Xml.attr_float r "ndv" in
  if ndv > 0. then Registry.set_stats reg id (Catalog.Col_stats.make ~ndv ())

(* the buffers' contents, one after the other, copied once *)
let concat buffers =
  let doc = Bytes.create (List.fold_left (fun n b -> n + Buffer.length b) 0 buffers) in
  ignore
    (List.fold_left
       (fun pos b ->
          Buffer.blit b 0 doc pos (Buffer.length b);
          pos + Buffer.length b)
       0 buffers);
  Bytes.unsafe_to_string doc

(** The XML document for [m], and the number of distinct scalars in its
    table. *)
let export (m : Memo_def.t) : string * int =
  (* live groups are numbered densely, in group order *)
  let dense = Array.make m.Memo_def.ngroups (-1) in
  let live = ref 0 in
  Memo_def.iter_groups m (fun g ->
      dense.(g.Memo_def.gid) <- !live;
      incr live);
  let group_ref gid = dense.(Memo_def.find m gid) in
  (* sized from typical documents: about 140 bytes a column and 90 an
     expression *)
  let ncols = Registry.count m.Memo_def.reg in
  let head = Buffer.create (256 + (140 * ncols)) in
  Xml.start_tag head 0 "memo";
  Xml.add_int_attr head "root" (group_ref m.Memo_def.root);
  Xml.add_int_attr head "nodes" (Catalog.Shell_db.node_count m.Memo_def.shell);
  Xml.end_start head;
  Xml.start_tag head 1 "columns";
  if ncols = 0 then Xml.end_empty head
  else begin
    Xml.end_start head;
    for id = 0 to ncols - 1 do write_column head m.Memo_def.reg id done;
    Xml.end_tag head 1 "columns"
  end;
  (* the groups fill the scalar table as they are written; the table goes
     first in the document *)
  let scalars = interner () in
  let cache = Array.make (Memo_def.Ops.length m.Memo_def.ops) Unseen in
  let groups = Buffer.create (256 + (90 * Memo_def.total_exprs m)) in
  Memo_def.iter_groups m (fun g ->
      Xml.start_tag groups 1 "group";
      Xml.add_int_attr groups "id" (group_ref g.Memo_def.gid);
      float_attr groups "card" "%h" g.Memo_def.props.Memo_def.card;
      float_attr groups "width" "%h" g.Memo_def.props.Memo_def.width;
      ints_attr groups "cols" (Registry.Col_set.elements g.Memo_def.props.Memo_def.cols);
      match g.Memo_def.exprs with
      | [] -> Xml.end_empty groups
      | exprs ->
        Xml.end_start groups;
        List.iter (write_expr_elt groups scalars cache group_ref) (List.rev exprs);
        Xml.end_tag groups 1 "group");
  Xml.end_tag groups 0 "memo";
  let nscalars = By_encoding.length scalars.by_encoding in
  Xml.start_tag head 1 "scalars";
  if nscalars = 0 then Xml.end_empty head
  else begin
    Xml.end_start head;
    Xml.end_tag scalars.entries 1 "scalars"
  end;
  (concat [ head; scalars.entries; groups ], nscalars)

let export_string ?(obs = Obs.null) m =
  let s, nscalars = Obs.with_span obs "memo_xml.export" (fun () -> export m) in
  if Obs.enabled obs then begin
    Obs.add obs "memo_xml.bytes" (String.length s);
    Obs.add obs "memo_xml.export.groups" (Memo_def.live_groups m);
    Obs.add obs "memo_xml.export.exprs" (Memo_def.total_exprs m);
    Obs.add obs "memo_xml.export.scalars" nscalars
  end;
  s

(** Rebuild a MEMO (and a fresh registry) from its XML encoding; also
    returns the number of scalars decoded from the table. The logical
    properties are taken from the file, not re-derived. The columns and
    the scalar table must come before the groups. *)
let import (shell : Catalog.Shell_db.t) (s : string) : Memo_def.t * int =
  let r = Xml.reader s in
  Xml.expect r "memo";
  let root = Xml.attr_int r "root" in
  let reg = Registry.create () in
  (* an expression takes about 90 bytes of the document *)
  let m = Memo_def.create ~exprs:(String.length s / 90) reg shell in
  let columns = ref false and scalars = ref None in
  (* expressions may refer to later groups: the highest reference is
     checked once every group is read *)
  let max_ref = ref (-1) in
  let seen = Hashtbl.create 64 in
  let read_group () =
    let gid = Memo_def.ngroups m in
    if Xml.attr_int r "id" <> gid then bad "group ids must be dense and ordered";
    let cols = Registry.Col_set.of_list (Xml.attr_int_list r "cols") in
    let card = Xml.attr_float r "card" in
    let width = Xml.attr_float r "width" in
    ignore (Memo_def.add_group m { Memo_def.cols; card; width });
    let table = Option.value !scalars ~default:[||] in
    Xml.children r (fun () ->
        if Xml.is r "expr" then begin
          let children = Xml.attr_int_array r "children" in
          for i = 0 to Array.length children - 1 do
            let c = children.(i) in
            if c < 0 then bad "dangling group reference %d" c;
            if c > !max_ref then max_ref := c
          done;
          let op, oid = read_op m table seen r in
          Memo_def.add_expr m gid op oid children
        end)
  in
  Xml.children r (fun () ->
      if Xml.is r "columns" then begin
        if not !columns then begin
          columns := true;
          Xml.children r (fun () -> if Xml.is r "col" then read_column r reg)
        end
      end
      else if Xml.is r "scalars" then begin
        if Option.is_none !scalars then scalars := Some (read_scalars r)
      end
      else if Xml.is r "group" then read_group ());
  if not !columns then bad "missing child <columns> of <memo>";
  let table =
    match !scalars with Some t -> t | None -> bad "missing child <scalars> of <memo>"
  in
  let ngroups = Memo_def.ngroups m in
  if !max_ref >= ngroups then bad "dangling group reference %d" !max_ref;
  if root < 0 || root >= ngroups then bad "dangling group reference %d" root;
  m.Memo_def.root <- root;
  (m, Array.length table)

let import_string ?(obs = Obs.null) shell s =
  let m, nscalars = Obs.with_span obs "memo_xml.import" (fun () -> import shell s) in
  if Obs.enabled obs then begin
    Obs.add obs "memo_xml.import.groups" (Memo_def.live_groups m);
    Obs.add obs "memo_xml.import.exprs" (Memo_def.total_exprs m);
    Obs.add obs "memo_xml.import.scalars" nscalars
  end;
  m
