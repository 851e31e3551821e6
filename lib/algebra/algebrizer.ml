(** Name resolution and translation from the SQL AST to logical operator
    trees, including subquery removal (paper §4: "sub-query removal,
    sub-query into join transformation" are exercised by Q20).

    Subquery transformations implemented here:
    - [e IN (SELECT x ...)]            -> left semi join on [e = x] (+ correlation)
    - [e NOT IN (SELECT x ...)]        -> anti semi join
    - [EXISTS (SELECT ...)]            -> semi join on the correlation predicate
    - [NOT EXISTS ...]                 -> anti semi join
    - [e cmp (SELECT agg ...)] correlated -> inner join against a group-by on
      the correlation columns (valid because comparisons reject NULL, which
      covers the empty-group case; this is the Q20 SQ3 shape). *)

open Sqlfront

exception Unsupported of string
exception Resolve_error of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt
let resolve_err fmt = Printf.ksprintf (fun s -> raise (Resolve_error s)) fmt

type binding = {
  b_alias : string;
  b_cols : (string * int) list;    (** column name (lowercase) -> id *)
}

type scope = {
  bindings : binding list;
  parent : scope option;
}

type result = {
  tree : Relop.t;
  reg : Registry.t;
  output : (string * int) list;     (** display name, column id, in order *)
}

type ctx = {
  shell : Catalog.Shell_db.t;
  reg : Registry.t;
}

let lower = String.lowercase_ascii

(* -- scope handling -- *)

let resolve_in_bindings bindings qual name =
  let name = lower name in
  match qual with
  | Some q ->
    let q = lower q in
    (match List.find_opt (fun b -> lower b.b_alias = q) bindings with
     | None -> None
     | Some b ->
       (match List.assoc_opt name b.b_cols with
        | Some id -> Some id
        | None -> resolve_err "unknown column %s.%s" q name))
  | None ->
    let hits =
      List.filter_map (fun b -> List.assoc_opt name b.b_cols) bindings
    in
    (match hits with
     | [ id ] -> Some id
     | [] -> None
     | _ -> resolve_err "ambiguous column %s" name)

let rec resolve scope qual name =
  match resolve_in_bindings scope.bindings qual name with
  | Some id -> Some id
  | None ->
    (match scope.parent with
     | Some p -> resolve p qual name
     | None -> None)

let resolve_exn scope qual name =
  match resolve scope qual name with
  | Some id -> id
  | None ->
    resolve_err "unknown column %s"
      (match qual with Some q -> q ^ "." ^ name | None -> name)

(* -- base tables -- *)

let instantiate_get ctx ~name ~alias =
  let tbl =
    match Catalog.Shell_db.find ctx.shell name with
    | Some t -> t
    | None -> resolve_err "unknown table %s" name
  in
  let schema = tbl.Catalog.Shell_db.schema in
  let cols =
    Array.map
      (fun (c : Catalog.Schema.column) ->
         let id =
           Registry.fresh ctx.reg ~name:c.col_name ~ty:c.col_type
             ~width:(float_of_int c.col_width)
             (Registry.Base { table = schema.Catalog.Schema.name; alias; column = c.col_name })
         in
         (match Catalog.Tbl_stats.col tbl.Catalog.Shell_db.stats c.col_name with
          | Some s -> Registry.set_stats ctx.reg id s
          | None -> ());
         id)
      schema.Catalog.Schema.columns
  in
  let binding =
    { b_alias = alias;
      b_cols =
        Array.to_list
          (Array.mapi (fun i (c : Catalog.Schema.column) -> (lower c.col_name, cols.(i)))
             schema.Catalog.Schema.columns) }
  in
  (Relop.get ~table:schema.Catalog.Schema.name ~alias ~cols, binding)

(* -- aggregate extraction context -- *)

type agg_ctx = {
  mutable defs : Expr.agg_def list;  (** accumulated, in reverse order *)
  ctx : ctx;
}

let find_or_add_agg actx func distinct arg =
  let existing =
    List.find_opt
      (fun d ->
         d.Expr.agg_func = func && d.Expr.agg_distinct = distinct
         && (match d.Expr.agg_arg, arg with
             | None, None -> true
             | Some a, Some b -> Expr.equal a b
             | _ -> false))
      actx.defs
  in
  match existing with
  | Some d -> d.Expr.agg_out
  | None ->
    let desc =
      Expr.agg_to_string_with (Registry.label actx.ctx.reg)
        { Expr.agg_out = -1; agg_func = func; agg_arg = arg; agg_distinct = distinct }
    in
    let ty =
      match func, arg with
      | (Expr.Count | Expr.Count_star), _ -> Catalog.Types.Tint
      | Expr.Avg, _ -> Catalog.Types.Tfloat
      | _, Some a -> (try Expr.type_of actx.ctx.reg a with _ -> Catalog.Types.Tfloat)
      | _, None -> Catalog.Types.Tfloat
    in
    let out =
      Registry.fresh actx.ctx.reg ~name:desc ~ty
        ~width:(float_of_int (Catalog.Types.default_width ty)) (Registry.Derived desc)
    in
    actx.defs <- { Expr.agg_out = out; agg_func = func; agg_arg = arg; agg_distinct = distinct }
                 :: actx.defs;
    out

(* -- expression translation -- *)

let agg_of_ast = function
  | Ast.Count_star -> Expr.Count_star
  | Ast.Count -> Expr.Count
  | Ast.Sum -> Expr.Sum
  | Ast.Avg -> Expr.Avg
  | Ast.Min -> Expr.Min
  | Ast.Max -> Expr.Max

let binop_of_ast = function
  | Ast.Add -> Expr.Add | Ast.Sub -> Expr.Sub | Ast.Mul -> Expr.Mul
  | Ast.Div -> Expr.Div | Ast.Mod -> Expr.Mod
  | Ast.Eq -> Expr.Eq | Ast.Ne -> Expr.Ne | Ast.Lt -> Expr.Lt
  | Ast.Le -> Expr.Le | Ast.Gt -> Expr.Gt | Ast.Ge -> Expr.Ge
  | Ast.And -> Expr.And | Ast.Or -> Expr.Or

(* Coerce a string literal to a date when compared against a date-typed
   expression (e.g. [l_shipdate >= '1994-01-01']). *)
let coerce_date_literal reg a b =
  let is_date e = try Expr.type_of reg e = Catalog.Types.Tdate with _ -> false in
  let fix e other =
    match e with
    | Expr.Lit (Catalog.Value.String s) when is_date other ->
      (match Catalog.Value.date_of_string s with
       | Some d -> Expr.Lit (Catalog.Value.Date d)
       | None -> e)
    | _ -> e
  in
  (fix a b, fix b a)

(** Translate a scalar AST expression. [aggs] is [Some actx] when aggregates
    are allowed (select list / having / order by of a grouped query).
    Subqueries are NOT allowed here; they are handled at the predicate level
    by [translate_where]. *)
let rec translate_expr ?aggs scope ctx (e : Ast.expr) : Expr.t =
  let tr e = translate_expr ?aggs scope ctx e in
  match e with
  | Ast.Col (qual, name) -> Expr.Col (resolve_exn scope qual name)
  | Ast.Lit v -> Expr.Lit v
  | Ast.Bin (op, a, b) ->
    let a = tr a and b = tr b in
    let a, b = coerce_date_literal ctx.reg a b in
    Expr.Bin (binop_of_ast op, a, b)
  | Ast.Un (Ast.Neg, a) -> Expr.Un (Expr.Neg, tr a)
  | Ast.Un (Ast.Not, a) -> Expr.Un (Expr.Not, tr a)
  | Ast.Is_null { e; negated } -> Expr.Is_null (tr e, negated)
  | Ast.Like { e; pattern; negated } -> Expr.Like (tr e, pattern, negated)
  | Ast.In_list { e; items; negated } ->
    let e = tr e in
    let values =
      List.map
        (fun it ->
           match tr it with
           | Expr.Lit v ->
             (match v, (try Some (Expr.type_of ctx.reg e) with _ -> None) with
              | Catalog.Value.String s, Some Catalog.Types.Tdate ->
                (match Catalog.Value.date_of_string s with
                 | Some d -> Catalog.Value.Date d
                 | None -> v)
              | _ -> v)
           | _ -> unsupported "IN list items must be literals")
        items
    in
    Expr.In_list (e, values, negated)
  | Ast.Between { e; lo; hi; negated } ->
    let e = tr e and lo = tr lo and hi = tr hi in
    let e1, lo = coerce_date_literal ctx.reg e lo in
    let _, hi = coerce_date_literal ctx.reg e hi in
    let range = Expr.Bin (Expr.And, Expr.Bin (Expr.Ge, e1, lo), Expr.Bin (Expr.Le, e1, hi)) in
    if negated then Expr.Un (Expr.Not, range) else range
  | Ast.Agg { func; distinct; arg } ->
    (match aggs with
     | None -> unsupported "aggregate not allowed in this context"
     | Some actx ->
       let arg = Option.map (translate_expr scope ctx) arg in
       Expr.Col (find_or_add_agg actx (agg_of_ast func) distinct arg))
  | Ast.Func (name, args) -> translate_func ?aggs scope ctx name args
  | Ast.Case { branches; else_ } ->
    Expr.Case (List.map (fun (c, v) -> (tr c, tr v)) branches, Option.map tr else_)
  | Ast.Cast (e, ty) -> Expr.Cast (tr e, ty)
  | Ast.In_query _ | Ast.Exists _ ->
    unsupported "subquery predicate outside of WHERE/HAVING conjunction"
  | Ast.Scalar_query _ ->
    unsupported "scalar subquery outside of a top-level comparison"

and translate_func ?aggs scope ctx name args =
  let tr e = translate_expr ?aggs scope ctx e in
  let as_date e =
    let e' = tr e in
    match e' with
    | Expr.Lit (Catalog.Value.String s) ->
      (match Catalog.Value.date_of_string s with
       | Some d -> Expr.Lit (Catalog.Value.Date d)
       | None -> e')
    | _ -> e'
  in
  match name, args with
  | "DATEADD", [ unit_arg; n; d ] ->
    let unit_name =
      match unit_arg with
      | Ast.Col (None, u) -> lower u
      | Ast.Lit (Catalog.Value.String u) -> lower u
      | _ -> unsupported "DATEADD unit must be an identifier"
    in
    let fn =
      match unit_name with
      | "year" | "yy" | "yyyy" -> Expr.F_dateadd_year
      | "month" | "mm" -> Expr.F_dateadd_month
      | "day" | "dd" -> Expr.F_dateadd_day
      | u -> unsupported "DATEADD unit %s" u
    in
    Expr.Func (fn, [ tr n; as_date d ])
  | "YEAR", [ d ] -> Expr.Func (Expr.F_year, [ as_date d ])
  | "SUBSTRING", [ s; a; b ] -> Expr.Func (Expr.F_substring, [ tr s; tr a; tr b ])
  | "ABS", [ a ] -> Expr.Func (Expr.F_abs, [ tr a ])
  | _ -> unsupported "function %s/%d" name (List.length args)

(* -- query blocks -- *)

(** Information exported by a subquery algebrization: its tree plus the
    correlated conjuncts (already translated) that reference columns outside
    the subquery's own FROM. *)
type sub_result = {
  sub_tree : Relop.t;
  sub_corr : Expr.t list;
  sub_output : (string * int) list;
}

let rec algebrize_block ?(want_sort = true) scope ctx (q : Ast.query) : result * Expr.t list =
  match q.Ast.union_all with
  | Some _ -> algebrize_union ~want_sort scope ctx q
  | None -> algebrize_single_block ~want_sort scope ctx q

(** [b1 UNION ALL b2 ...]: branches are algebrized independently; each
    subsequent branch is projected onto the first branch's column ids; the
    trailing ORDER BY/TOP (carried by the last block) applies to the whole
    union and may reference the first branch's output names. *)
and algebrize_union ~want_sort scope ctx (q : Ast.query) : result * Expr.t list =
  let rec chain (b : Ast.query) =
    match b.Ast.union_all with
    | Some tail -> { b with Ast.union_all = None; order_by = []; top = None } :: chain tail
    | None -> [ { b with Ast.order_by = []; top = None } ]
  in
  let rec last_block (b : Ast.query) =
    match b.Ast.union_all with Some tail -> last_block tail | None -> b
  in
  let blocks = chain q in
  let order_by = (last_block q).Ast.order_by and top = (last_block q).Ast.top in
  let results =
    List.map
      (fun b ->
         let r, exported = algebrize_block ~want_sort:false scope ctx b in
         if exported <> [] then unsupported "correlated UNION branch";
         r)
      blocks
  in
  let first, rest =
    match results with
    | f :: r -> (f, r)
    | [] -> assert false
  in
  let arity = List.length first.output in
  let tree =
    List.fold_left
      (fun acc (r : result) ->
         if List.length r.output <> arity then
           unsupported "UNION branches must have the same number of columns";
         let defs =
           List.map2
             (fun (_, out_id) (_, branch_id) -> (out_id, Expr.Col branch_id))
             first.output r.output
         in
         Relop.union_all acc (Relop.project defs r.tree))
      first.tree rest
  in
  let order' =
    List.map
      (fun (e, dir) ->
         let key =
           match e with
           | Ast.Col (None, name) ->
             (match List.assoc_opt (lower name) first.output with
              | Some id -> Expr.Col id
              | None -> unsupported "UNION ORDER BY must name an output column")
           | _ -> unsupported "UNION ORDER BY must name an output column"
         in
         { Relop.key; desc = (dir = Ast.Desc) })
      order_by
  in
  let tree =
    if want_sort && (order' <> [] || top <> None) then Relop.sort order' top tree
    else tree
  in
  ({ tree; reg = ctx.reg; output = first.output }, [])

and algebrize_single_block ~want_sort scope ctx (q : Ast.query) : result * Expr.t list =
  if q.Ast.from = [] then unsupported "SELECT without FROM";
  (* 1. FROM *)
  let trees_bindings = List.map (algebrize_table_ref scope ctx) q.Ast.from in
  let from_tree =
    match trees_bindings with
    | [] -> assert false
    | (t, _) :: rest ->
      List.fold_left
        (fun acc (t, _) -> Relop.join Relop.Cross (Expr.Lit (Catalog.Value.Bool true)) acc t)
        t rest
  in
  let local_bindings = List.concat_map snd trees_bindings in
  let block_scope = { bindings = local_bindings; parent = scope.parent } in
  (* scope for resolution inside this block: local bindings first, then the
     original outer scope chain *)
  let block_scope = { block_scope with parent = scope.parent } in
  let avail = Relop.output_col_set from_tree in
  (* 2. WHERE: split conjuncts, handle subqueries, export correlated ones *)
  let tree, exported =
    match q.Ast.where with
    | None -> (from_tree, [])
    | Some w -> translate_where block_scope ctx ~avail from_tree (Ast.conjuncts w)
  in
  (* 3. aggregates over select list / having / order by *)
  let actx = { defs = []; ctx } in
  let has_group = q.Ast.group_by <> [] in
  (* group-by keys: plain columns directly; computed keys via a pre-project *)
  let pre_defs = ref [] in
  let keys =
    List.map
      (fun k ->
         match translate_expr block_scope ctx k with
         | Expr.Col c -> c
         | e ->
           let name = Printf.sprintf "expr%d" (List.length !pre_defs) in
           let ty = (try Expr.type_of ctx.reg e with _ -> Catalog.Types.Tint) in
           let id =
             Registry.fresh ctx.reg ~name ~ty
               ~width:(float_of_int (Catalog.Types.default_width ty))
               (Registry.Derived (Expr.to_string ctx.reg e))
           in
           pre_defs := (id, e) :: !pre_defs;
           id)
      q.Ast.group_by
  in
  let select_items =
    List.concat_map
      (fun item ->
         match item with
         | Ast.Sel_star qual ->
           let bs =
             match qual with
             | None -> local_bindings
             | Some q ->
               (match List.find_opt (fun b -> lower b.b_alias = lower q) local_bindings with
                | Some b -> [ b ]
                | None -> resolve_err "unknown table alias %s" q)
           in
           List.concat_map
             (fun b -> List.map (fun (n, id) -> (n, Expr.Col id)) b.b_cols)
             bs
         | Ast.Sel_expr (e, alias) ->
           let e' = translate_expr ~aggs:actx block_scope ctx e in
           let name =
             match alias, e with
             | Some a, _ -> lower a
             | None, Ast.Col (_, c) -> lower c
             | None, _ -> "col"
           in
           [ (name, e') ])
      q.Ast.select
  in
  (* HAVING: plain conjuncts become a Select above the group-by; scalar
     aggregate subqueries (Q11's shape) decorrelate into a join above it *)
  let having_plain = ref [] and having_joins = ref [] in
  List.iter
    (fun conj ->
       match conj with
       | Ast.Bin (cmp, lhs, Ast.Scalar_query sub)
       | Ast.Bin (cmp, Ast.Scalar_query sub, lhs)
         when (match cmp with
             | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> true
             | _ -> false) ->
         let swap = (match conj with Ast.Bin (_, Ast.Scalar_query _, _) -> true | _ -> false) in
         let lhs' = translate_expr ~aggs:actx block_scope ctx lhs in
         let value_col, sub_tree, corr = algebrize_scalar_agg_subquery block_scope ctx sub in
         if corr <> [] then unsupported "correlated scalar subquery in HAVING";
         let cmp' = binop_of_ast cmp in
         let comparison =
           if swap then Expr.Bin (cmp', value_col, lhs')
           else Expr.Bin (cmp', lhs', value_col)
         in
         having_joins := (comparison, sub_tree) :: !having_joins
       | _ -> having_plain := translate_expr ~aggs:actx block_scope ctx conj :: !having_plain)
    (match q.Ast.having with Some h -> Ast.conjuncts h | None -> []);
  let order' =
    List.map
      (fun (e, dir) ->
         (* ORDER BY may reference select aliases *)
         let e' =
           match e with
           | Ast.Col (None, name) when List.mem_assoc (lower name) select_items
                                       && resolve block_scope None name = None ->
             List.assoc (lower name) select_items
           | _ -> translate_expr ~aggs:actx block_scope ctx e
         in
         { Relop.key = e'; desc = (dir = Ast.Desc) })
      q.Ast.order_by
  in
  let aggs = List.rev actx.defs in
  (* above the group-by a computed group key is read as its key column *)
  let key_exprs = List.map (fun (id, e) -> (e, id)) !pre_defs in
  let rec as_keys e =
    match List.assoc_opt e key_exprs with
    | Some id -> Expr.Col id
    | None ->
      (match e with
       | Expr.Col _ | Expr.Lit _ -> e
       | Expr.Bin (op, a, b) -> Expr.Bin (op, as_keys a, as_keys b)
       | Expr.Un (op, a) -> Expr.Un (op, as_keys a)
       | Expr.Is_null (a, n) -> Expr.Is_null (as_keys a, n)
       | Expr.Like (a, p, n) -> Expr.Like (as_keys a, p, n)
       | Expr.In_list (a, items, n) -> Expr.In_list (as_keys a, items, n)
       | Expr.Case (branches, else_) ->
         Expr.Case (List.map (fun (c, v) -> (as_keys c, as_keys v)) branches,
                    Option.map as_keys else_)
       | Expr.Func (fn, args) -> Expr.Func (fn, List.map as_keys args)
       | Expr.Cast (a, ty) -> Expr.Cast (as_keys a, ty))
  in
  let as_keys e = if key_exprs = [] then e else as_keys e in
  let select_items = List.map (fun (name, e) -> (name, as_keys e)) select_items in
  having_plain := List.map as_keys !having_plain;
  having_joins := List.map (fun (cmp, sub) -> (as_keys cmp, sub)) !having_joins;
  let order' = List.map (fun k -> { k with Relop.key = as_keys k.Relop.key }) order' in
  (* a grouped block's rows are groups: what it selects, filters on and
     sorts by may read a FROM column only as a group key *)
  if has_group || aggs <> [] then begin
    let grouped = Registry.Col_set.of_list keys in
    let check e =
      Registry.Col_set.iter
        (fun c ->
           if Registry.Col_set.mem c avail && not (Registry.Col_set.mem c grouped) then
             resolve_err "column %s is neither grouped nor aggregated"
               (Registry.label ctx.reg c))
        (Expr.cols e)
    in
    List.iter (fun (_, e) -> check e) select_items;
    List.iter check !having_plain;
    List.iter (fun (cmp, _) -> check cmp) !having_joins;
    if want_sort then List.iter (fun k -> check k.Relop.key) order'
  end;
  (* 4. assemble: [pre-project] -> group-by -> having -> project -> sort *)
  let tree =
    if !pre_defs = [] then tree
    else
      let pass = List.map (fun c -> (c, Expr.Col c)) (Relop.output_cols tree) in
      Relop.project (pass @ List.rev !pre_defs) tree
  in
  let tree =
    if has_group || aggs <> [] then Relop.group_by keys aggs tree else tree
  in
  let tree =
    List.fold_left
      (fun acc (comparison, sub_tree) ->
         Relop.join Relop.Inner comparison acc sub_tree)
      tree (List.rev !having_joins)
  in
  let tree =
    match Expr.conjoin_opt (List.rev !having_plain) with
    | Some h -> Relop.select h tree
    | None -> tree
  in
  (* final projection *)
  let output, defs =
    List.fold_left
      (fun (out, defs) (name, e) ->
         match e with
         | Expr.Col id -> ((name, id) :: out, (id, e) :: defs)
         | _ ->
           let ty = (try Expr.type_of ctx.reg e with _ -> Catalog.Types.Tfloat) in
           let id =
             Registry.fresh ctx.reg ~name ~ty
               ~width:(float_of_int (Catalog.Types.default_width ty))
               (Registry.Derived (Expr.to_string ctx.reg e))
           in
           ((name, id) :: out, (id, e) :: defs))
      ([], []) select_items
  in
  let output = List.rev output and defs = List.rev defs in
  (* ORDER BY sorts the projected rows: a key equal to a select item sorts
     on that item's column, and any other key may read selected columns
     only *)
  let items = List.map2 (fun (_, e) (_, id) -> (e, id)) select_items output in
  let selected = Registry.Col_set.of_list (List.map snd output) in
  let on_output (k : Relop.sort_key) =
    match List.assoc_opt k.Relop.key items with
    | Some id -> { k with Relop.key = Expr.Col id }
    | None ->
      if Registry.Col_set.subset (Expr.cols k.Relop.key) selected then k
      else unsupported "ORDER BY on a column that is not selected"
  in
  let tree =
    if q.Ast.distinct then begin
      let tree = Relop.project defs tree in
      Relop.group_by (List.map snd output) [] tree
    end else Relop.project defs tree
  in
  let tree =
    if want_sort && (order' <> [] || q.Ast.top <> None) then
      Relop.sort (List.map on_output order') q.Ast.top tree
    else tree
  in
  ({ tree; reg = ctx.reg; output }, exported)

and algebrize_table_ref scope ctx (tref : Ast.table_ref) : Relop.t * binding list =
  match tref with
  | Ast.Tref_table { name; alias } ->
    let alias = match alias with Some a -> a | None -> name in
    let tree, b = instantiate_get ctx ~name ~alias in
    (tree, [ b ])
  | Ast.Tref_subquery { q; alias } ->
    let sub_scope = { bindings = []; parent = None } in
    let r, exported = algebrize_block ~want_sort:false sub_scope ctx q in
    if exported <> [] then unsupported "correlated derived table";
    let binding = { b_alias = alias; b_cols = List.map (fun (n, id) -> (lower n, id)) r.output } in
    (r.tree, [ binding ])
  | Ast.Tref_join { left; kind; right; on } ->
    let lt, lb = algebrize_table_ref scope ctx left in
    let rt, rb = algebrize_table_ref scope ctx right in
    let join_scope = { bindings = lb @ rb; parent = scope.parent } in
    let pred =
      match on with
      | Some e -> translate_expr join_scope ctx e
      | None -> Expr.Lit (Catalog.Value.Bool true)
    in
    let k =
      match kind with
      | Ast.Jinner -> Relop.Inner
      | Ast.Jleft -> Relop.Left_outer
      | Ast.Jright -> Relop.Left_outer (* normalized by swapping children *)
      | Ast.Jcross -> Relop.Cross
    in
    let lt, rt = if kind = Ast.Jright then (rt, lt) else (lt, rt) in
    (Relop.join k pred lt rt, lb @ rb)

(** Process WHERE conjuncts over [tree]. Returns the augmented tree (with
    subquery joins and a Select of local plain conjuncts) plus the conjuncts
    that reference columns outside [avail] (exported to the enclosing
    block). *)
and translate_where scope ctx ~avail tree (conjs : Ast.expr list) : Relop.t * Expr.t list =
  let plain = ref [] and exported = ref [] in
  let tree = ref tree in
  let classify e' =
    let refs = Expr.cols e' in
    if Registry.Col_set.subset refs avail then plain := e' :: !plain
    else exported := e' :: !exported
  in
  List.iter
    (fun conj ->
       match conj with
       | Ast.In_query { e; q; negated } ->
         let lhs = translate_expr scope ctx e in
         let sub = algebrize_subquery scope ctx q in
         let item_col =
           match sub.sub_output with
           | [ (_, id) ] -> id
           | _ -> unsupported "IN subquery must produce exactly one column"
         in
         let pred =
           Expr.conjoin (Expr.eq lhs (Expr.Col item_col) :: sub.sub_corr)
         in
         let kind = if negated then Relop.Anti_semi else Relop.Semi in
         tree := Relop.join kind pred !tree sub.sub_tree
       | Ast.Exists { q; negated } ->
         let sub = algebrize_subquery scope ctx q in
         let pred = Expr.conjoin sub.sub_corr in
         let kind = if negated then Relop.Anti_semi else Relop.Semi in
         tree := Relop.join kind pred !tree sub.sub_tree
       | Ast.Un (Ast.Not, Ast.Exists { q; negated }) ->
         let sub = algebrize_subquery scope ctx q in
         let pred = Expr.conjoin sub.sub_corr in
         let kind = if negated then Relop.Semi else Relop.Anti_semi in
         tree := Relop.join kind pred !tree sub.sub_tree
       | Ast.Bin (cmp, lhs, Ast.Scalar_query q)
       | Ast.Bin (cmp, Ast.Scalar_query q, lhs)
         when (match cmp with
             | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> true
             | _ -> false) ->
         let swap = (match conj with Ast.Bin (_, Ast.Scalar_query _, _) -> true | _ -> false) in
         let lhs' = translate_expr scope ctx lhs in
         let value_col, sub_tree, corr = algebrize_scalar_agg_subquery scope ctx q in
         let cmp' = binop_of_ast cmp in
         let comparison =
           if swap then Expr.Bin (cmp', value_col, lhs')
           else Expr.Bin (cmp', lhs', value_col)
         in
         let pred = Expr.conjoin (comparison :: corr) in
         tree := Relop.join Relop.Inner pred !tree sub_tree
       | _ -> classify (translate_expr scope ctx conj))
    conjs;
  let tree =
    match Expr.conjoin_opt (List.rev !plain) with
    | Some p -> Relop.select p !tree
    | None -> !tree
  in
  (tree, List.rev !exported)

(** Algebrize a (possibly correlated) subquery used under IN / EXISTS. *)
and algebrize_subquery scope ctx (q : Ast.query) : sub_result =
  let sub_scope = { bindings = []; parent = Some scope } in
  let r, exported = algebrize_block ~want_sort:false sub_scope ctx q in
  if exported <> [] && (q.Ast.group_by <> [] || q.Ast.distinct) then
    unsupported "correlated subquery with GROUP BY/DISTINCT under IN/EXISTS";
  (* The correlated conjuncts become the join predicate, so the inner-side
     columns they reference must survive the subquery's final projection. *)
  let tree =
    match r.tree.Relop.op, r.tree.Relop.children, exported with
    | _, _, [] -> r.tree
    | Relop.Project defs, [ child ], _ ->
      let corr_cols = Expr.cols_of_list exported in
      let child_cols = Relop.output_col_set child in
      let present = Registry.Col_set.of_list (List.map fst defs) in
      let missing =
        Registry.Col_set.elements
          (Registry.Col_set.diff (Registry.Col_set.inter corr_cols child_cols) present)
      in
      if missing = [] then r.tree
      else Relop.project (defs @ List.map (fun c -> (c, Expr.Col c)) missing) child
    | _ -> r.tree
  in
  { sub_tree = tree; sub_corr = exported; sub_output = r.output }

(** Algebrize a correlated scalar aggregate subquery: returns the value
    expression (over the group-by outputs), the group-by tree, and the
    correlated conjuncts to fold into the join predicate. *)
and algebrize_scalar_agg_subquery scope ctx (q : Ast.query) : Expr.t * Relop.t * Expr.t list =
  if q.Ast.group_by <> [] then
    unsupported "scalar subquery with explicit GROUP BY";
  (match q.Ast.select with
   | [ Ast.Sel_expr (_, _) ] -> ()
   | _ -> unsupported "scalar subquery must select exactly one expression");
  if q.Ast.from = [] then unsupported "scalar subquery without FROM";
  (* Build the subquery's FROM + WHERE, exporting correlated conjuncts. *)
  let sub_scope = { bindings = []; parent = Some scope } in
  let trees_bindings = List.map (algebrize_table_ref sub_scope ctx) q.Ast.from in
  let from_tree =
    match trees_bindings with
    | (t, _) :: rest ->
      List.fold_left
        (fun acc (t, _) -> Relop.join Relop.Cross (Expr.Lit (Catalog.Value.Bool true)) acc t)
        t rest
    | [] -> assert false
  in
  let local_bindings = List.concat_map snd trees_bindings in
  let block_scope = { bindings = local_bindings; parent = Some scope } in
  let avail = Relop.output_col_set from_tree in
  let tree, exported =
    match q.Ast.where with
    | None -> (from_tree, [])
    | Some w -> translate_where block_scope ctx ~avail from_tree (Ast.conjuncts w)
  in
  (* Group keys: the inner columns appearing in correlated equality
     conjuncts (e.g. l_partkey, l_suppkey for Q20's SQ3). *)
  let inner_cols = Relop.output_col_set tree in
  let keys =
    List.concat_map
      (fun conj ->
         match conj with
         | Expr.Bin (Expr.Eq, a, b) ->
           let pick e other =
             let refs = Expr.cols e in
             if Registry.Col_set.subset refs inner_cols
             && not (Registry.Col_set.is_empty refs)
             && not (Registry.Col_set.subset (Expr.cols other) inner_cols)
             then
               match e with Expr.Col c -> [ c ] | _ -> []
             else []
           in
           pick a b @ pick b a
         | _ -> [])
      exported
    |> List.sort_uniq Int.compare
  in
  if keys = [] && exported <> [] then
    unsupported "correlated scalar subquery without equality correlation";
  (* Aggregates in the single select item. *)
  let actx = { defs = []; ctx } in
  let value_expr =
    match q.Ast.select with
    | [ Ast.Sel_expr (e, _) ] -> translate_expr ~aggs:actx block_scope ctx e
    | _ -> assert false
  in
  let aggs = List.rev actx.defs in
  if aggs = [] then unsupported "scalar subquery must be an aggregate";
  let gb = Relop.group_by keys aggs tree in
  (value_expr, gb, exported)

(** Algebrize a full SQL statement against a shell database. *)
let algebrize (shell : Catalog.Shell_db.t) (q : Ast.query) : result =
  let ctx = { shell; reg = Registry.create () } in
  let scope = { bindings = []; parent = None } in
  let r, exported = algebrize_block scope ctx q in
  if exported <> [] then resolve_err "unresolved correlated columns at top level";
  r

(** Parse and algebrize SQL text. *)
let of_sql shell sql = algebrize shell (Parser.parse sql)
