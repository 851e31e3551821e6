(** QRel-style SQL generation (paper §3.4 and Fig. 6): serial fragments of a
    physical operator tree are translated back into (T-)SQL statements that
    each compute node's DBMS executes. The nesting style — derived tables
    aliased T1_1, T2_1, ... — follows the paper's Fig. 7 output. *)

open Algebra
open Memo

type rendered = {
  sql : string;                       (** a full SELECT statement *)
  outputs : (int * string) list;      (** col id -> emitted column name *)
}

(** A FROM-clause item: either a base/temp table or a derived table. *)
type from_item = {
  relation : string;                  (** [db].[dbo].[table] or (SELECT ...) *)
  alias : string;
  cols : (int * string) list;         (** col id -> column name within item *)
}

type ctx = {
  reg : Registry.t;
  mutable alias_n : int;
  temp_of_move : Pdwopt.Pplan.t -> string;
      (** resolves a Move child to its temp table name *)
  temp_cols : Pdwopt.Pplan.t -> (int * string) list;
}

let fresh_alias ctx depth =
  ctx.alias_n <- ctx.alias_n + 1;
  Printf.sprintf "T%d_%d" depth ctx.alias_n

(* emitted column names must be unique within one select list *)
let uniquify names =
  let seen = Hashtbl.create 16 in
  List.map
    (fun (id, base) ->
       let base = if base = "" then "col" else base in
       let base =
         String.map
           (fun c ->
              if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
              || (c >= '0' && c <= '9') || c = '_' then c
              else '_')
           base
       in
       let name =
         if Hashtbl.mem seen base then Printf.sprintf "%s_%d" base id else base
       in
       Hashtbl.replace seen name ();
       (id, name))
    names

let col_name_of ctx id =
  let info = Registry.info ctx.reg id in
  match info.Registry.source with
  | Registry.Base { column; _ } -> column
  | Registry.Derived _ ->
    let n = info.Registry.name in
    if String.length n > 0
    && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
    && String.for_all
         (fun c ->
            (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
            || c = '_')
         n
    then n
    else Printf.sprintf "col%d" id

(* T-SQL spells the DATEADD family with a datepart argument; every other
   function keeps its internal spelling *)
let tsql_call fn args =
  match fn, args with
  | Expr.F_dateadd_year, [ n; d ] -> Printf.sprintf "DATEADD(year, %s, %s)" n d
  | Expr.F_dateadd_month, [ n; d ] -> Printf.sprintf "DATEADD(month, %s, %s)" n d
  | Expr.F_dateadd_day, [ n; d ] -> Printf.sprintf "DATEADD(day, %s, %s)" n d
  | _ -> Expr.call_to_string fn args

(* columns are qualified by the FROM item that outputs them *)
let qualify (items : from_item list) c =
  let rec go = function
    | [] -> Printf.sprintf "col%d" c
    | it :: rest ->
      (match List.assoc_opt c it.cols with
       | Some name -> Printf.sprintf "%s.%s" it.alias name
       | None -> go rest)
  in
  go items

let expr_sql items e = Expr.to_string_with ~func:tsql_call (qualify items) e

let agg_sql items a = Expr.agg_to_string_with ~func:tsql_call (qualify items) a

(* -- rendering of serial plan fragments -- *)

let base_table_ref table = Printf.sprintf "[tpch].[dbo].[%s]" (String.lowercase_ascii table)

(** Render a serial subtree as a FROM item. [depth] controls alias naming. *)
let rec as_from_item ctx depth (p : Pdwopt.Pplan.t) : from_item =
  match p.Pdwopt.Pplan.op with
  | Pdwopt.Pplan.Serial (Physop.Table_scan { table; cols; _ }) ->
    let tbl_cols =
      Array.to_list cols
      |> List.map (fun id -> (id, col_name_of ctx id))
    in
    { relation = base_table_ref table; alias = fresh_alias ctx depth; cols = tbl_cols }
  | Pdwopt.Pplan.Move _ ->
    let name = ctx.temp_of_move p in
    { relation = Printf.sprintf "[tempdb].[dbo].[%s]" name;
      alias = fresh_alias ctx depth;
      cols = ctx.temp_cols p }
  | _ ->
    let r = as_query ctx (depth + 1) p in
    { relation = Printf.sprintf "(%s)" r.sql;
      alias = fresh_alias ctx depth;
      cols = r.outputs }

(** Render a serial subtree as a complete SELECT statement. *)
and as_query ctx depth (p : Pdwopt.Pplan.t) : rendered =
  let select_of_item (it : from_item) out_ids =
    let outputs = uniquify (List.map (fun id -> (id, col_name_of ctx id)) out_ids) in
    let sel =
      List.map
        (fun (id, name) ->
           match List.assoc_opt id it.cols with
           | Some src -> Printf.sprintf "%s.%s AS %s" it.alias src name
           | None -> Printf.sprintf "NULL AS %s" name)
        outputs
    in
    (String.concat ", " sel, outputs)
  in
  match p.Pdwopt.Pplan.op, p.Pdwopt.Pplan.children with
  | Pdwopt.Pplan.Serial (Physop.Filter pred), [ child ] ->
    let it = as_from_item ctx depth child in
    let out_ids = Pdwopt.Pplan.output_layout p in
    let sel, outputs = select_of_item it out_ids in
    { sql =
        Printf.sprintf "SELECT %s FROM %s AS %s WHERE %s" sel it.relation it.alias
          (expr_sql [ it ] pred);
      outputs }
  | Pdwopt.Pplan.Serial (Physop.Compute defs), [ child ] ->
    let it = as_from_item ctx depth child in
    let outputs = uniquify (List.map (fun (id, _) -> (id, col_name_of ctx id)) defs) in
    let sel =
      List.map2
        (fun (_, e) (_, name) -> Printf.sprintf "%s AS %s" (expr_sql [ it ] e) name)
        defs outputs
    in
    { sql = Printf.sprintf "SELECT %s FROM %s AS %s" (String.concat ", " sel)
          it.relation it.alias;
      outputs }
  | Pdwopt.Pplan.Serial
      (Physop.Hash_join { kind; pred } | Physop.Merge_join { kind; pred }
      | Physop.Nl_join { kind; pred }),
    [ l; r ] ->
    let li = as_from_item ctx depth l in
    let ri = as_from_item ctx depth r in
    (match kind with
     | Relop.Semi | Relop.Anti_semi ->
       let out_ids = Pdwopt.Pplan.output_layout p in
       let sel, outputs = select_of_item li out_ids in
       let neg = (match kind with Relop.Anti_semi -> "NOT " | _ -> "") in
       { sql =
           Printf.sprintf
             "SELECT %s FROM %s AS %s WHERE %sEXISTS (SELECT 1 FROM %s AS %s WHERE %s)"
             sel li.relation li.alias neg ri.relation ri.alias
             (expr_sql [ li; ri ] pred);
         outputs }
     | Relop.Inner | Relop.Cross | Relop.Left_outer ->
       let out_ids = Pdwopt.Pplan.output_layout p in
       let outputs = uniquify (List.map (fun id -> (id, col_name_of ctx id)) out_ids) in
       let sel =
         List.map
           (fun (id, name) ->
              let src =
                match List.assoc_opt id li.cols with
                | Some s -> Printf.sprintf "%s.%s" li.alias s
                | None ->
                  (match List.assoc_opt id ri.cols with
                   | Some s -> Printf.sprintf "%s.%s" ri.alias s
                   | None -> "NULL")
              in
              Printf.sprintf "%s AS %s" src name)
           outputs
       in
       let join_kw =
         match kind with
         | Relop.Left_outer -> "LEFT OUTER JOIN"
         | Relop.Cross -> "CROSS JOIN"
         | _ -> "INNER JOIN"
       in
       let on_clause =
         match kind with
         | Relop.Cross -> ""
         | _ -> Printf.sprintf " ON %s" (expr_sql [ li; ri ] pred)
       in
       { sql =
           Printf.sprintf "SELECT %s FROM %s AS %s %s %s AS %s%s"
             (String.concat ", " sel) li.relation li.alias join_kw ri.relation ri.alias
             on_clause;
         outputs })
  | Pdwopt.Pplan.Serial (Physop.Hash_agg { keys; aggs } | Physop.Stream_agg { keys; aggs }),
    [ child ] ->
    let it = as_from_item ctx depth child in
    let key_outputs = uniquify (List.map (fun id -> (id, col_name_of ctx id)) keys) in
    let agg_outputs =
      uniquify (List.map (fun a -> (a.Expr.agg_out, col_name_of ctx a.Expr.agg_out)) aggs)
    in
    let sel =
      List.map
        (fun (id, name) ->
           match List.assoc_opt id it.cols with
           | Some src -> Printf.sprintf "%s.%s AS %s" it.alias src name
           | None -> Printf.sprintf "NULL AS %s" name)
        key_outputs
      @ List.map2
          (fun a (_, name) -> Printf.sprintf "%s AS %s" (agg_sql [ it ] a) name)
          aggs agg_outputs
    in
    let group_clause =
      if keys = [] then ""
      else
        Printf.sprintf " GROUP BY %s"
          (String.concat ", "
             (List.map
                (fun (id, _) ->
                   match List.assoc_opt id it.cols with
                   | Some src -> Printf.sprintf "%s.%s" it.alias src
                   | None -> "NULL")
                key_outputs))
    in
    { sql = Printf.sprintf "SELECT %s FROM %s AS %s%s" (String.concat ", " sel)
          it.relation it.alias group_clause;
      outputs = key_outputs @ agg_outputs }
  | Pdwopt.Pplan.Serial (Physop.Sort_op { keys; limit }), [ child ] ->
    let it = as_from_item ctx depth child in
    let out_ids = Pdwopt.Pplan.output_layout p in
    let sel, outputs = select_of_item it out_ids in
    let order =
      if keys = [] then ""
      else
        Printf.sprintf " ORDER BY %s"
          (String.concat ", "
             (List.map
                (fun k ->
                   expr_sql [ it ] k.Relop.key ^ (if k.Relop.desc then " DESC" else " ASC"))
                keys))
    in
    let top = match limit with Some n -> Printf.sprintf "TOP %d " n | None -> "" in
    { sql = Printf.sprintf "SELECT %s%s FROM %s AS %s%s" top sel it.relation it.alias order;
      outputs }
  | Pdwopt.Pplan.Serial (Physop.Const_empty cols), _ ->
    let outputs = uniquify (List.map (fun id -> (id, col_name_of ctx id)) cols) in
    { sql =
        Printf.sprintf "SELECT %s WHERE 1 = 0"
          (String.concat ", " (List.map (fun (_, n) -> "NULL AS " ^ n) outputs));
      outputs }
  | (Pdwopt.Pplan.Serial (Physop.Table_scan _) | Pdwopt.Pplan.Move _), _ ->
    (* bare scan or temp: wrap in SELECT * style projection *)
    let it = as_from_item ctx depth p in
    let out_ids = Pdwopt.Pplan.output_layout p in
    let sel, outputs = select_of_item it out_ids in
    { sql = Printf.sprintf "SELECT %s FROM %s AS %s" sel it.relation it.alias; outputs }
  | Pdwopt.Pplan.Serial Physop.Union_op, [ l; r ] ->
    let lq = as_query ctx depth l in
    let rq = as_query ctx depth r in
    { sql = Printf.sprintf "%s UNION ALL %s" lq.sql rq.sql; outputs = lq.outputs }
  | Pdwopt.Pplan.Return _, _ -> invalid_arg "Sqlgen.as_query: Return is not a SQL fragment"
  | _, _ -> invalid_arg "Sqlgen.as_query: malformed serial fragment"
