(** The MEMO data structure (paper §2.5, Fig. 3 and [5, 6]): two mutually
    recursive structures, groups and groupExpressions. A group represents
    all equivalent operator trees producing the same output; a
    groupExpression is an operator whose children are groups. The MEMO
    provides duplicate detection of operator trees, logical properties
    (output columns, cardinality, row width) and cost management. *)

open Algebra

type op =
  | Logical of Relop.op
  | Physical of Physop.t

type gexpr = {
  op : op;
  oid : int;               (** interned id of [op]: equal ops share one *)
  children : int array;    (** group ids (canonicalize through [find]) *)
}

(** Logical properties shared by every expression of a group. *)
type lprops = {
  cols : Registry.Col_set.t;   (** output columns *)
  card : float;                (** estimated global cardinality (the paper's Y) *)
  width : float;               (** average output row width in bytes (w) *)
}

type group = {
  gid : int;
  mutable exprs : gexpr list;       (** in insertion order, reversed *)
  mutable props : lprops;
  mutable explored : bool;
  mutable merged_into : int option; (** set when this group was merged away *)
}

(* The duplicate-detection key: an interned operator id and its canonical
   child groups, hashed and compared as integers. *)
module Dedup = Hashtbl.Make (struct
    type t = int * int array

    let equal ((a, xs) : t) ((b, ys) : t) =
      a = b
      && Array.length xs = Array.length ys
      &&
      let rec same i = i < 0 || (xs.(i) = ys.(i) && same (i - 1)) in
      same (Array.length xs - 1)

    let hash ((oid, cs) : t) =
      let h = ref oid in
      for i = 0 to Array.length cs - 1 do
        h := (!h * 65599) + cs.(i)
      done;
      (!h lxor (!h lsr 17)) land max_int
  end)

(* A hash-table key equal as the polymorphic table compares it, but
   hashed over the whole value. The bounded [Hashtbl.hash] stops after 10
   meaningful words, before the column ids of a long join conjunction, so
   the joins of a many-way shared-key join would fall into a few
   buckets. *)
module Full_key (T : sig type t end) = struct
  type t = T.t

  let equal (a : t) b = compare a b = 0

  let hash (k : t) = Hashtbl.hash_param 100_000 100_000 k
end

module Op_key = Full_key (struct type t = op end)

(* The interning table's key: an operator beside its full hash, computed
   once on lookup, so a table resize rehashes ints, not whole predicates. *)
module Ops = Hashtbl.Make (struct
    type t = int * op

    let equal ((h, a) : t) (h', b) = h = h' && Op_key.equal a b

    let hash ((h, _) : t) = h
  end)

type t = {
  reg : Registry.t;
  shell : Catalog.Shell_db.t;
  mutable groups : group array;     (** index = gid; grows *)
  mutable ngroups : int;
  ops : int Ops.t;                   (** (hash, op) -> oid, by structural equality *)
  dedup : int Dedup.t;
      (** (oid, canonical child ids) -> owning group *)
  mutable root : int;
}

(** [exprs] sizes the duplicate-detection table for that many
    expressions (an import knows roughly how many it will add). *)
let create ?(exprs = 256) reg shell =
  { reg; shell; groups = Array.make 64 { gid = -1; exprs = []; props = { cols = Registry.Col_set.empty; card = 0.; width = 0. }; explored = false; merged_into = None };
    ngroups = 0; ops = Ops.create 256; dedup = Dedup.create exprs; root = -1 }

(** Canonical group id (groups can be merged when a transformation proves
    two groups equivalent). *)
let rec find t gid =
  let g = t.groups.(gid) in
  match g.merged_into with
  | None -> gid
  | Some p ->
    let r = find t p in
    if r <> p then g.merged_into <- Some r;
    r

let group t gid = t.groups.(find t gid)

let ngroups t = t.ngroups

let props t gid = (group t gid).props

let exprs t gid = List.rev (group t gid).exprs

let root t = find t t.root

let iter_groups t f =
  for i = 0 to t.ngroups - 1 do
    if t.groups.(i).merged_into = None then f t.groups.(i)
  done

(* -- logical properties -- *)

let cols_of_op t (op : op) (children : int array) : Registry.Col_set.t =
  let child n = (props t children.(n)).cols in
  let open Registry in
  match op with
  | Logical (Relop.Get { cols; _ }) | Physical (Physop.Table_scan { cols; _ }) ->
    Col_set.of_list (Array.to_list cols)
  | Logical (Relop.Select _) | Physical (Physop.Filter _) -> child 0
  | Logical (Relop.Project defs) | Physical (Physop.Compute defs) ->
    Col_set.of_list (List.map fst defs)
  | Logical (Relop.Join { kind = Relop.Semi | Relop.Anti_semi; _ })
  | Physical (Physop.Hash_join { kind = Relop.Semi | Relop.Anti_semi; _ })
  | Physical (Physop.Merge_join { kind = Relop.Semi | Relop.Anti_semi; _ })
  | Physical (Physop.Nl_join { kind = Relop.Semi | Relop.Anti_semi; _ }) -> child 0
  | Logical (Relop.Join _)
  | Physical (Physop.Hash_join _ | Physop.Merge_join _ | Physop.Nl_join _) ->
    Col_set.union (child 0) (child 1)
  | Logical (Relop.Group_by { keys; aggs })
  | Physical (Physop.Hash_agg { keys; aggs } | Physop.Stream_agg { keys; aggs }) ->
    Col_set.of_list (keys @ List.map (fun a -> a.Expr.agg_out) aggs)
  | Logical (Relop.Sort _) | Physical (Physop.Sort_op _) -> child 0
  | Logical Relop.Union_all | Physical Physop.Union_op -> child 0
  | Logical (Relop.Empty cols) | Physical (Physop.Const_empty cols) ->
    Col_set.of_list cols

let card_of_op t (op : op) (children : int array) : float =
  let env = { Cardinality.reg = t.reg; shell = t.shell } in
  let child_props = Array.to_list (Array.map (fun c -> { Cardinality.card = (props t c).card }) children) in
  let logical =
    match op with
    | Logical l -> l
    | Physical p ->
      (match p with
       | Physop.Table_scan { table; alias; cols } -> Relop.Get { table; alias; cols }
       | Physop.Filter e -> Relop.Select e
       | Physop.Compute defs -> Relop.Project defs
       | Physop.Hash_join { kind; pred } | Physop.Merge_join { kind; pred }
       | Physop.Nl_join { kind; pred } -> Relop.Join { kind; pred }
       | Physop.Hash_agg { keys; aggs } | Physop.Stream_agg { keys; aggs } ->
         Relop.Group_by { keys; aggs }
       | Physop.Sort_op { keys; limit } -> Relop.Sort { keys; limit }
       | Physop.Union_op -> Relop.Union_all
       | Physop.Const_empty cols -> Relop.Empty cols)
  in
  let child_cols = Array.to_list (Array.map (fun c -> (props t c).cols) children) in
  (Cardinality.of_op env logical ~child_cols child_props).Cardinality.card

let width_of_cols t cols =
  Registry.Col_set.fold (fun c acc -> acc +. Registry.width t.reg c) cols 0.

(* -- insertion -- *)

(* Operators are interned once: every later comparison of an expression
   (the dedup table here, the rule-application set of exploration) is on
   the integer [oid], never on the operator itself. [intern] and
   [add_expr] are the only writers of [ops], [dedup] and [oid]s. *)
let intern t op =
  let key = (Op_key.hash op, op) in
  match Ops.find_opt t.ops key with
  | Some oid -> oid
  | None ->
    let oid = Ops.length t.ops in
    Ops.add t.ops key oid;
    oid

(** The oid [op] was interned under, if any expression carries it: two
    expressions hold equal operators exactly when their oids are equal. *)
let oid_of t op = Ops.find_opt t.ops (Op_key.hash op, op)

(** Add an expression to group [gid]: [oid] must be [intern t op] and
    [children] canonical. No merging or property derivation: the XML
    import restores expressions through it as the file gives them. *)
let add_expr t gid op oid children =
  let g = t.groups.(gid) in
  g.exprs <- { op; oid; children } :: g.exprs;
  Dedup.replace t.dedup (oid, children) gid

let grow t =
  if t.ngroups >= Array.length t.groups then begin
    let bigger = Array.make (2 * Array.length t.groups) t.groups.(0) in
    Array.blit t.groups 0 bigger 0 t.ngroups;
    t.groups <- bigger
  end

(** Append an empty group with the given properties; returns its id. *)
let add_group t props =
  grow t;
  let gid = t.ngroups in
  t.groups.(gid) <- { gid; exprs = []; props; explored = false; merged_into = None };
  t.ngroups <- gid + 1;
  gid

let new_group t op oid children =
  let cols = cols_of_op t op children in
  let card = card_of_op t op children in
  let gid = add_group t { cols; card; width = width_of_cols t cols } in
  add_expr t gid op oid children;
  gid

(** Merge group [b] into group [a] (they were proven equivalent). *)
let merge_groups t a b =
  let a = find t a and b = find t b in
  if a <> b then begin
    let ga = t.groups.(a) and gb = t.groups.(b) in
    ga.exprs <- gb.exprs @ ga.exprs;
    (* keep the tighter cardinality estimate *)
    if gb.props.card < ga.props.card then
      ga.props <- { ga.props with card = gb.props.card };
    gb.merged_into <- Some a;
    gb.exprs <- []
  end

(** Insert an expression into group [target] (or a fresh group when [target]
    is [None]). Returns the (canonical) group that owns the expression.
    If the expression already exists in a different group, the groups are
    merged. *)
let insert ?target t op (children : int array) : int =
  let children = Array.map (fun c -> find t c) children in
  let oid = intern t op in
  match Dedup.find_opt t.dedup (oid, children), target with
  | Some g, None -> find t g
  | Some g, Some tgt ->
    let g = find t g and tgt = find t tgt in
    if g <> tgt then merge_groups t tgt g;
    find t tgt
  | None, None -> new_group t op oid children
  | None, Some tgt ->
    let tgt = find t tgt in
    add_expr t tgt op oid children;
    tgt

(** Insert a whole logical operator tree; returns its group. *)
let rec insert_tree t (tree : Relop.t) : int =
  let children = Array.of_list (List.map (insert_tree t) tree.Relop.children) in
  insert t (Logical tree.Relop.op) children

(** Initialize a MEMO from a normalized logical tree (the "initial plan"
    of paper Fig. 2 step 2a). *)
let of_tree reg shell tree =
  let t = create reg shell in
  t.root <- insert_tree t tree;
  t

let total_exprs t =
  let n = ref 0 in
  iter_groups t (fun g -> n := !n + List.length g.exprs);
  !n

(** Groups that have not been merged away (what the XML export carries). *)
let live_groups t =
  let n = ref 0 in
  iter_groups t (fun _ -> incr n);
  !n

let logical_exprs t gid =
  List.filter_map
    (fun e -> match e.op with Logical l -> Some (l, e.children) | Physical _ -> None)
    (exprs t gid)

let physical_exprs t gid =
  List.filter_map
    (fun e -> match e.op with Physical p -> Some (p, e.children) | Logical _ -> None)
    (exprs t gid)

(* -- printing (the Fig. 3 style group listing) -- *)

let op_to_string reg = function
  | Logical l ->
    (match l with
     | Relop.Get { table; _ } -> Printf.sprintf "Get(%s)" table
     | Relop.Select p -> Printf.sprintf "Select[%s]" (Expr.to_string reg p)
     | Relop.Project _ -> "Project"
     | Relop.Join { kind; pred } ->
       Printf.sprintf "%s[%s]"
         (match kind with
          | Relop.Inner -> "Join" | Relop.Cross -> "CrossJoin" | Relop.Semi -> "SemiJoin"
          | Relop.Anti_semi -> "AntiSemiJoin" | Relop.Left_outer -> "LeftOuterJoin")
         (Expr.to_string reg pred)
     | Relop.Group_by { keys; _ } ->
       Printf.sprintf "GroupBy[%s]" (String.concat "," (List.map (Registry.label reg) keys))
     | Relop.Sort _ -> "Sort"
     | Relop.Union_all -> "UnionAll"
     | Relop.Empty _ -> "Empty")
  | Physical p -> Physop.to_string reg p

let pp ppf t =
  let open Format in
  fprintf ppf "@[<v>";
  iter_groups t (fun g ->
      fprintf ppf "Group %d%s: card=%.0f width=%.0f@," g.gid
        (if g.gid = root t then " (root)" else "")
        g.props.card g.props.width;
      List.iteri
        (fun i e ->
           fprintf ppf "  %d.%d %s(%s)@," g.gid (i + 1) (op_to_string t.reg e.op)
             (String.concat ","
                (List.map (fun c -> string_of_int (find t c)) (Array.to_list e.children))))
        (List.rev g.exprs));
  fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t
