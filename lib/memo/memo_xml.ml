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

    Group ids are written densely, in group order, so exporting an
    imported MEMO reproduces the document byte for byte.

    Malformed input of any kind raises {!Xml.Xml_error}. *)

open Algebra

let bad what s = raise (Xml.Xml_error (Printf.sprintf "bad %s %S" what s))

let int_of s = match int_of_string_opt s with Some i -> i | None -> bad "integer" s
let float_of s = match float_of_string_opt s with Some f -> f | None -> bad "float" s
let int_attr n name = int_of (Xml.attr n name)
let float_attr n name = float_of (Xml.attr n name)

(* -- scalar expression encoding -- *)

let string_of_ty = Catalog.Types.to_string

let ty_of_string = function
  | "int" -> Catalog.Types.Tint
  | "float" -> Catalog.Types.Tfloat
  | "varchar" -> Catalog.Types.Tstring
  | "bool" -> Catalog.Types.Tbool
  | "date" -> Catalog.Types.Tdate
  | s -> raise (Xml.Xml_error ("unknown type " ^ s))

let value_to_attrs (v : Catalog.Value.t) =
  match v with
  | Catalog.Value.Null -> [ ("t", "null") ]
  | Catalog.Value.Int x -> [ ("t", "int"); ("v", string_of_int x) ]
  | Catalog.Value.Float x -> [ ("t", "float"); ("v", Printf.sprintf "%h" x) ]
  | Catalog.Value.String s -> [ ("t", "str"); ("v", s) ]
  | Catalog.Value.Bool b -> [ ("t", "bool"); ("v", if b then "1" else "0") ]
  | Catalog.Value.Date d -> [ ("t", "date"); ("v", string_of_int d) ]

let value_of_node n =
  match Xml.attr n "t" with
  | "null" -> Catalog.Value.Null
  | "int" -> Catalog.Value.Int (int_attr n "v")
  | "float" -> Catalog.Value.Float (float_attr n "v")
  | "str" -> Catalog.Value.String (Xml.attr n "v")
  | "bool" -> Catalog.Value.Bool (Xml.attr n "v" = "1")
  | "date" -> Catalog.Value.Date (int_attr n "v")
  | t -> raise (Xml.Xml_error ("unknown value type " ^ t))

let binop_name = function
  | Expr.Add -> "add" | Expr.Sub -> "sub" | Expr.Mul -> "mul" | Expr.Div -> "div"
  | Expr.Mod -> "mod" | Expr.Eq -> "eq" | Expr.Ne -> "ne" | Expr.Lt -> "lt"
  | Expr.Le -> "le" | Expr.Gt -> "gt" | Expr.Ge -> "ge" | Expr.And -> "and"
  | Expr.Or -> "or"

let binop_of_name = function
  | "add" -> Expr.Add | "sub" -> Expr.Sub | "mul" -> Expr.Mul | "div" -> Expr.Div
  | "mod" -> Expr.Mod | "eq" -> Expr.Eq | "ne" -> Expr.Ne | "lt" -> Expr.Lt
  | "le" -> Expr.Le | "gt" -> Expr.Gt | "ge" -> Expr.Ge | "and" -> Expr.And
  | "or" -> Expr.Or
  | s -> raise (Xml.Xml_error ("unknown binop " ^ s))

let func_name = function
  | Expr.F_dateadd_year -> "dateadd_year" | Expr.F_dateadd_month -> "dateadd_month"
  | Expr.F_dateadd_day -> "dateadd_day" | Expr.F_year -> "year"
  | Expr.F_substring -> "substring" | Expr.F_abs -> "abs"

let func_of_name = function
  | "dateadd_year" -> Expr.F_dateadd_year | "dateadd_month" -> Expr.F_dateadd_month
  | "dateadd_day" -> Expr.F_dateadd_day | "year" -> Expr.F_year
  | "substring" -> Expr.F_substring | "abs" -> Expr.F_abs
  | s -> raise (Xml.Xml_error ("unknown func " ^ s))

let agg_name = function
  | Expr.Count_star -> "count_star" | Expr.Count -> "count" | Expr.Sum -> "sum"
  | Expr.Avg -> "avg" | Expr.Min -> "min" | Expr.Max -> "max"

let agg_of_name = function
  | "count_star" -> Expr.Count_star | "count" -> Expr.Count | "sum" -> Expr.Sum
  | "avg" -> Expr.Avg | "min" -> Expr.Min | "max" -> Expr.Max
  | s -> raise (Xml.Xml_error ("unknown aggregate " ^ s))

let rec expr_to_xml (e : Expr.t) : Xml.node =
  let n ?(attrs = []) ?(children = []) k =
    Xml.node ~attrs:(("k", k) :: attrs) ~children "e"
  in
  match e with
  | Expr.Col c -> n ~attrs:[ ("id", string_of_int c) ] "col"
  | Expr.Lit v -> n ~attrs:(value_to_attrs v) "lit"
  | Expr.Bin (op, a, b) ->
    n ~attrs:[ ("op", binop_name op) ] ~children:[ expr_to_xml a; expr_to_xml b ] "bin"
  | Expr.Un (Expr.Neg, a) -> n ~attrs:[ ("op", "neg") ] ~children:[ expr_to_xml a ] "un"
  | Expr.Un (Expr.Not, a) -> n ~attrs:[ ("op", "not") ] ~children:[ expr_to_xml a ] "un"
  | Expr.Is_null (a, neg) ->
    n ~attrs:[ ("neg", if neg then "1" else "0") ] ~children:[ expr_to_xml a ] "isnull"
  | Expr.Like (a, pat, neg) ->
    n ~attrs:[ ("pat", pat); ("neg", if neg then "1" else "0") ]
      ~children:[ expr_to_xml a ] "like"
  | Expr.In_list (a, items, neg) ->
    n ~attrs:[ ("neg", if neg then "1" else "0") ]
      ~children:(expr_to_xml a :: List.map (fun v -> Xml.node ~attrs:(value_to_attrs v) "v") items)
      "inlist"
  | Expr.Case (branches, else_) ->
    let b =
      List.map
        (fun (c, v) -> Xml.node ~children:[ expr_to_xml c; expr_to_xml v ] "when")
        branches
    in
    let e_ = match else_ with
      | Some e -> [ Xml.node ~children:[ expr_to_xml e ] "else" ]
      | None -> []
    in
    n ~children:(b @ e_) "case"
  | Expr.Func (f, args) ->
    n ~attrs:[ ("f", func_name f) ] ~children:(List.map expr_to_xml args) "func"
  | Expr.Cast (a, ty) ->
    n ~attrs:[ ("t", string_of_ty ty) ] ~children:[ expr_to_xml a ] "cast"

let rec expr_of_xml (n : Xml.node) : Expr.t =
  let kids () = List.filter (fun c -> c.Xml.tag = "e") n.Xml.children in
  match Xml.attr n "k" with
  | "col" -> Expr.Col (int_attr n "id")
  | "lit" -> Expr.Lit (value_of_node n)
  | "bin" ->
    (match kids () with
     | [ a; b ] -> Expr.Bin (binop_of_name (Xml.attr n "op"), expr_of_xml a, expr_of_xml b)
     | _ -> raise (Xml.Xml_error "bin expects 2 children"))
  | "un" ->
    (match kids () with
     | [ a ] ->
       let op = if Xml.attr n "op" = "neg" then Expr.Neg else Expr.Not in
       Expr.Un (op, expr_of_xml a)
     | _ -> raise (Xml.Xml_error "un expects 1 child"))
  | "isnull" ->
    (match kids () with
     | [ a ] -> Expr.Is_null (expr_of_xml a, Xml.attr n "neg" = "1")
     | _ -> raise (Xml.Xml_error "isnull expects 1 child"))
  | "like" ->
    (match kids () with
     | [ a ] -> Expr.Like (expr_of_xml a, Xml.attr n "pat", Xml.attr n "neg" = "1")
     | _ -> raise (Xml.Xml_error "like expects 1 child"))
  | "inlist" ->
    (match kids () with
     | [ a ] ->
       let items = List.map value_of_node (Xml.children_named n "v") in
       Expr.In_list (expr_of_xml a, items, Xml.attr n "neg" = "1")
     | _ -> raise (Xml.Xml_error "inlist expects 1 expression child"))
  | "case" ->
    let branches =
      List.map
        (fun w ->
           match w.Xml.children with
           | [ c; v ] -> (expr_of_xml c, expr_of_xml v)
           | _ -> raise (Xml.Xml_error "when expects 2 children"))
        (Xml.children_named n "when")
    in
    let else_ =
      match Xml.child_opt n "else" with
      | Some e ->
        (match e.Xml.children with
         | [ v ] -> Some (expr_of_xml v)
         | _ -> raise (Xml.Xml_error "else expects 1 child"))
      | None -> None
    in
    Expr.Case (branches, else_)
  | "func" -> Expr.Func (func_of_name (Xml.attr n "f"), List.map expr_of_xml (kids ()))
  | "cast" ->
    (match kids () with
     | [ a ] -> Expr.Cast (expr_of_xml a, ty_of_string (Xml.attr n "t"))
     | _ -> raise (Xml.Xml_error "cast expects 1 child"))
  | k -> raise (Xml.Xml_error ("unknown expression kind " ^ k))

let ints_to_attr l = String.concat "," (List.map string_of_int l)
let ints_of_attr s =
  if s = "" then [] else List.map int_of (String.split_on_char ',' s)

let join_kind_name = function
  | Relop.Inner -> "inner" | Relop.Cross -> "cross" | Relop.Semi -> "semi"
  | Relop.Anti_semi -> "antisemi" | Relop.Left_outer -> "leftouter"

let join_kind_of_name = function
  | "inner" -> Relop.Inner | "cross" -> Relop.Cross | "semi" -> Relop.Semi
  | "antisemi" -> Relop.Anti_semi | "leftouter" -> Relop.Left_outer
  | s -> raise (Xml.Xml_error ("unknown join kind " ^ s))

(* -- the scalar table -- *)

(* scalars by physical identity: the serial optimizer copies one predicate
   value onto every join variant, so most lookups stop here *)
module Seen = Hashtbl.Make (struct
    type t = Expr.t
    let equal = ( == )
    let hash = Hashtbl.hash
  end)

(** Export side: the distinct scalars seen so far, keyed by their encoded
    bytes, in order of first appearance. *)
type interner = {
  ids : (string, int) Hashtbl.t;
  seen : string Seen.t;
  buf : Buffer.t;
  mutable entries : Xml.node list;   (** reversed *)
}

let interner () =
  { ids = Hashtbl.create 64; seen = Seen.create 64; buf = Buffer.create 512; entries = [] }

(** The table index of [e], as an attribute value. *)
let intern t (e : Expr.t) =
  match Seen.find_opt t.seen e with
  | Some id -> id
  | None ->
    let node = expr_to_xml e in
    Buffer.clear t.buf;
    Xml.to_buffer t.buf node;
    let key = Buffer.contents t.buf in
    let id =
      match Hashtbl.find_opt t.ids key with
      | Some id -> id
      | None ->
        let id = Hashtbl.length t.ids in
        Hashtbl.add t.ids key id;
        t.entries <- Xml.node ~attrs:[ ("id", string_of_int id) ] ~children:[ node ] "s"
                     :: t.entries;
        id
    in
    let id = string_of_int id in
    Seen.add t.seen e id;
    id

let scalars_of_node n : Expr.t array =
  Array.of_list
    (List.mapi
       (fun i s ->
          if int_attr s "id" <> i then raise (Xml.Xml_error "scalar ids must be dense and ordered");
          match s.Xml.children with
          | [ e ] -> expr_of_xml e
          | _ -> raise (Xml.Xml_error "s expects 1 child"))
       (Xml.children_named n "s"))

(** The scalar that attribute [name] of [n] refers to. *)
let scalar_ref (table : Expr.t array) n name =
  let i = int_attr n name in
  if i < 0 || i >= Array.length table then
    raise (Xml.Xml_error (Printf.sprintf "dangling scalar reference %d" i));
  table.(i)

(* -- operator encoding -- *)

let agg_to_xml t (a : Expr.agg_def) =
  Xml.node
    ~attrs:
      ([ ("out", string_of_int a.Expr.agg_out);
         ("f", agg_name a.Expr.agg_func);
         ("distinct", if a.Expr.agg_distinct then "1" else "0") ]
       @ match a.Expr.agg_arg with Some e -> [ ("arg", intern t e) ] | None -> [])
    "agg"

let agg_of_xml table n =
  { Expr.agg_out = int_attr n "out";
    agg_func = agg_of_name (Xml.attr n "f");
    agg_distinct = Xml.attr n "distinct" = "1";
    agg_arg =
      (match Xml.attr_opt n "arg" with
       | Some _ -> Some (scalar_ref table n "arg")
       | None -> None) }

let sort_key_to_xml t (k : Relop.sort_key) =
  Xml.node ~attrs:[ ("desc", if k.Relop.desc then "1" else "0"); ("e", intern t k.Relop.key) ]
    "sk"

let sort_key_of_xml table n =
  { Relop.key = scalar_ref table n "e"; desc = Xml.attr n "desc" = "1" }

let defs_to_children t defs =
  List.map
    (fun (c, e) -> Xml.node ~attrs:[ ("out", string_of_int c); ("e", intern t e) ] "def")
    defs

let defs_of_node table n =
  List.map
    (fun d -> (int_attr d "out", scalar_ref table d "e"))
    (Xml.children_named n "def")

let op_to_xml t (op : Memo_def.op) (children : int list) : Xml.node =
  let mk name ?(attrs = []) ?(body = []) () =
    Xml.node
      ~attrs:(("op", name) :: ("children", ints_to_attr children) :: attrs)
      ~children:body "expr"
  in
  let pred p = ("pred", intern t p) in
  let join name kind p = mk name ~attrs:[ ("kind", join_kind_name kind); pred p ] () in
  let limit_attr = function Some l -> [ ("limit", string_of_int l) ] | None -> [] in
  match op with
  | Memo_def.Logical l ->
    (match l with
     | Relop.Get { table; alias; cols } ->
       mk "Get" ~attrs:[ ("table", table); ("alias", alias);
                         ("cols", ints_to_attr (Array.to_list cols)) ] ()
     | Relop.Select p -> mk "Select" ~attrs:[ pred p ] ()
     | Relop.Project defs -> mk "Project" ~body:(defs_to_children t defs) ()
     | Relop.Join { kind; pred } -> join "Join" kind pred
     | Relop.Group_by { keys; aggs } ->
       mk "GroupBy" ~attrs:[ ("keys", ints_to_attr keys) ]
         ~body:(List.map (agg_to_xml t) aggs) ()
     | Relop.Sort { keys; limit } ->
       mk "Sort" ~attrs:(limit_attr limit) ~body:(List.map (sort_key_to_xml t) keys) ()
     | Relop.Union_all -> mk "UnionAll" ()
     | Relop.Empty cols -> mk "Empty" ~attrs:[ ("cols", ints_to_attr cols) ] ())
  | Memo_def.Physical p ->
    (match p with
     | Physop.Table_scan { table; alias; cols } ->
       mk "TableScan" ~attrs:[ ("table", table); ("alias", alias);
                               ("cols", ints_to_attr (Array.to_list cols)) ] ()
     | Physop.Filter e -> mk "Filter" ~attrs:[ pred e ] ()
     | Physop.Compute defs -> mk "Compute" ~body:(defs_to_children t defs) ()
     | Physop.Hash_join { kind; pred } -> join "HashJoin" kind pred
     | Physop.Merge_join { kind; pred } -> join "MergeJoin" kind pred
     | Physop.Nl_join { kind; pred } -> join "NestedLoopJoin" kind pred
     | Physop.Hash_agg { keys; aggs } ->
       mk "HashAggregate" ~attrs:[ ("keys", ints_to_attr keys) ]
         ~body:(List.map (agg_to_xml t) aggs) ()
     | Physop.Stream_agg { keys; aggs } ->
       mk "StreamAggregate" ~attrs:[ ("keys", ints_to_attr keys) ]
         ~body:(List.map (agg_to_xml t) aggs) ()
     | Physop.Sort_op { keys; limit } ->
       mk "PhysicalSort" ~attrs:(limit_attr limit)
         ~body:(List.map (sort_key_to_xml t) keys) ()
     | Physop.Union_op -> mk "PhysUnionAll" ()
     | Physop.Const_empty cols -> mk "ConstEmpty" ~attrs:[ ("cols", ints_to_attr cols) ] ())

let op_of_xml table (n : Xml.node) : Memo_def.op * int array =
  let children = Array.of_list (ints_of_attr (Xml.attr n "children")) in
  let pred () = scalar_ref table n "pred" in
  let aggs () = List.map (agg_of_xml table) (Xml.children_named n "agg") in
  let sort_keys () = List.map (sort_key_of_xml table) (Xml.children_named n "sk") in
  let keys () = ints_of_attr (Xml.attr n "keys") in
  let cols_arr () = Array.of_list (ints_of_attr (Xml.attr n "cols")) in
  let limit () = Option.map int_of (Xml.attr_opt n "limit") in
  let kind () = join_kind_of_name (Xml.attr n "kind") in
  let op =
    match Xml.attr n "op" with
    | "Get" ->
      Memo_def.Logical (Relop.Get { table = Xml.attr n "table"; alias = Xml.attr n "alias";
                                cols = cols_arr () })
    | "Select" -> Memo_def.Logical (Relop.Select (pred ()))
    | "Project" -> Memo_def.Logical (Relop.Project (defs_of_node table n))
    | "Join" -> Memo_def.Logical (Relop.Join { kind = kind (); pred = pred () })
    | "GroupBy" -> Memo_def.Logical (Relop.Group_by { keys = keys (); aggs = aggs () })
    | "Sort" -> Memo_def.Logical (Relop.Sort { keys = sort_keys (); limit = limit () })
    | "UnionAll" -> Memo_def.Logical Relop.Union_all
    | "PhysUnionAll" -> Memo_def.Physical Physop.Union_op
    | "Empty" -> Memo_def.Logical (Relop.Empty (ints_of_attr (Xml.attr n "cols")))
    | "TableScan" ->
      Memo_def.Physical (Physop.Table_scan { table = Xml.attr n "table";
                                         alias = Xml.attr n "alias"; cols = cols_arr () })
    | "Filter" -> Memo_def.Physical (Physop.Filter (pred ()))
    | "Compute" -> Memo_def.Physical (Physop.Compute (defs_of_node table n))
    | "HashJoin" -> Memo_def.Physical (Physop.Hash_join { kind = kind (); pred = pred () })
    | "MergeJoin" -> Memo_def.Physical (Physop.Merge_join { kind = kind (); pred = pred () })
    | "NestedLoopJoin" -> Memo_def.Physical (Physop.Nl_join { kind = kind (); pred = pred () })
    | "HashAggregate" -> Memo_def.Physical (Physop.Hash_agg { keys = keys (); aggs = aggs () })
    | "StreamAggregate" ->
      Memo_def.Physical (Physop.Stream_agg { keys = keys (); aggs = aggs () })
    | "PhysicalSort" ->
      Memo_def.Physical (Physop.Sort_op { keys = sort_keys (); limit = limit () })
    | "ConstEmpty" -> Memo_def.Physical (Physop.Const_empty (ints_of_attr (Xml.attr n "cols")))
    | op -> raise (Xml.Xml_error ("unknown operator " ^ op))
  in
  (op, children)

(* -- whole memo -- *)

let source_to_attrs = function
  | Registry.Base { table; alias; column } ->
    [ ("src", "base"); ("table", table); ("salias", alias); ("column", column) ]
  | Registry.Derived d -> [ ("src", "derived"); ("desc", d) ]

(** The XML document for [m], and the number of distinct scalars in its
    table. *)
let export (m : Memo_def.t) : Xml.node * int =
  let cols = ref [] in
  for id = Registry.count m.Memo_def.reg - 1 downto 0 do
    let info = Registry.info m.Memo_def.reg id in
    let ndv =
      match Registry.stats m.Memo_def.reg id with
      | Some s -> s.Catalog.Col_stats.ndv
      | None -> 0.
    in
    cols :=
      Xml.node
        ~attrs:
          ([ ("id", string_of_int id);
             ("name", info.Registry.name);
             ("type", string_of_ty info.Registry.ty);
             ("width", Printf.sprintf "%g" info.Registry.width);
             ("ndv", Printf.sprintf "%g" ndv) ]
           @ source_to_attrs info.Registry.source)
        "col"
      :: !cols
  done;
  (* live groups are numbered densely, in group order *)
  let dense = Array.make m.Memo_def.ngroups (-1) in
  let live = ref 0 in
  Memo_def.iter_groups m (fun g ->
      dense.(g.Memo_def.gid) <- !live;
      incr live);
  let group_ref gid = dense.(Memo_def.find m gid) in
  let scalars = interner () in
  let groups = ref [] in
  Memo_def.iter_groups m (fun g ->
      let exprs =
        List.map
          (fun (e : Memo_def.gexpr) ->
             op_to_xml scalars e.Memo_def.op
               (List.map group_ref (Array.to_list e.Memo_def.children)))
          (List.rev g.Memo_def.exprs)
      in
      groups :=
        Xml.node
          ~attrs:
            [ ("id", string_of_int (group_ref g.Memo_def.gid));
              ("card", Printf.sprintf "%h" g.Memo_def.props.Memo_def.card);
              ("width", Printf.sprintf "%h" g.Memo_def.props.Memo_def.width);
              ("cols", ints_to_attr (Registry.Col_set.elements g.Memo_def.props.Memo_def.cols)) ]
          ~children:exprs "group"
        :: !groups);
  ( Xml.node
      ~attrs:[ ("root", string_of_int (group_ref m.Memo_def.root));
               ("nodes", string_of_int (Catalog.Shell_db.node_count m.Memo_def.shell)) ]
      ~children:
        (Xml.node ~children:!cols "columns"
         :: Xml.node ~children:(List.rev scalars.entries) "scalars"
         :: List.rev !groups)
      "memo",
    Hashtbl.length scalars.ids )

let export_string ?(obs = Obs.null) m =
  let node, nscalars = export m in
  let s = Xml.to_string node in
  Obs.add obs "memo_xml.bytes" (String.length s);
  Obs.add obs "memo_xml.export.groups" (Memo_def.live_groups m);
  Obs.add obs "memo_xml.export.exprs" (Memo_def.total_exprs m);
  Obs.add obs "memo_xml.export.scalars" nscalars;
  s

(** Rebuild a MEMO (and a fresh registry) from its XML encoding; also
    returns the number of scalars decoded from the table. The logical
    properties are taken from the file, not re-derived. *)
let import (shell : Catalog.Shell_db.t) (n : Xml.node) : Memo_def.t * int =
  if n.Xml.tag <> "memo" then raise (Xml.Xml_error "expected <memo>");
  let reg = Registry.create () in
  List.iter
    (fun c ->
       let id = int_attr c "id" in
       let source =
         match Xml.attr c "src" with
         | "base" ->
           Registry.Base { table = Xml.attr c "table"; alias = Xml.attr c "salias";
                           column = Xml.attr c "column" }
         | _ -> Registry.Derived (match Xml.attr_opt c "desc" with Some d -> d | None -> "?")
       in
       let id' =
         Registry.fresh reg ~name:(Xml.attr c "name") ~ty:(ty_of_string (Xml.attr c "type"))
           ~width:(float_attr c "width") source
       in
       if id' <> id then raise (Xml.Xml_error "column ids must be dense and ordered");
       let ndv = float_attr c "ndv" in
       if ndv > 0. then Registry.set_stats reg id (Catalog.Col_stats.make ~ndv ()))
    (Xml.child n "columns").Xml.children;
  let scalars = scalars_of_node (Xml.child n "scalars") in
  let m = Memo_def.create reg shell in
  let group_nodes = Xml.children_named n "group" in
  let ngroups = List.length group_nodes in
  let group_ref gid =
    if gid < 0 || gid >= ngroups then
      raise (Xml.Xml_error (Printf.sprintf "dangling group reference %d" gid));
    gid
  in
  (* create every group first: an expression may refer to a later one *)
  List.iteri
    (fun gid gnode ->
       if int_attr gnode "id" <> gid then
         raise (Xml.Xml_error "group ids must be dense and ordered");
       ignore
         (Memo_def.add_group m
            { Memo_def.cols = Registry.Col_set.of_list (ints_of_attr (Xml.attr gnode "cols"));
              card = float_attr gnode "card";
              width = float_attr gnode "width" }))
    group_nodes;
  List.iteri
    (fun gid gnode ->
       List.iter
         (fun enode ->
            let op, children = op_of_xml scalars enode in
            Memo_def.restore_expr m gid op (Array.map group_ref children))
         (Xml.children_named gnode "expr"))
    group_nodes;
  m.Memo_def.root <- group_ref (int_attr n "root");
  (m, Array.length scalars)

let import_string ?(obs = Obs.null) shell s =
  let m, nscalars = import shell (Xml.parse s) in
  Obs.add obs "memo_xml.import.groups" (Memo_def.live_groups m);
  Obs.add obs "memo_xml.import.exprs" (Memo_def.total_exprs m);
  Obs.add obs "memo_xml.import.scalars" nscalars;
  m
