(** DSQL-plan executor: runs the *generated SQL text* of each DSQL step
    (paper §2.4), which is the strongest possible check on DSQL generation.

    For every DMS step, the step's source SQL statement is re-parsed and
    algebrized against a scratch shell database that also contains the
    schemas of previously materialized temp tables, executed on every node
    holding input data (exactly what the Engine service does when it
    "obtains a connection to the SQL Server instance on each compute node
    and issues a specified SQL statement"), and the resulting rows are
    routed by the DMS runtime into the destination temp table. The final
    Return step's SQL produces the client result. *)

open Algebra

type rows = Catalog.Value.t array list

(** Where a temp table's payload lives (row- or column-major, matching
    the appliance's engine). *)
type placement =
  | On_nodes of Rset.t array     (** one shard per compute node *)
  | On_control of Rset.t
  | Replicated_everywhere of Rset.t

type state = {
  app : Appliance.t;
  scratch : Catalog.Shell_db.t;      (** base schemas + temp schemas *)
  temps : (string, placement) Hashtbl.t;
  plan_reg : Registry.t;             (** the registry of the DSQL plan *)
}

exception Dsql_exec_error of string

let create (app : Appliance.t) (plan_reg : Registry.t) : state =
  let scratch = Catalog.Shell_db.create ~node_count:app.Appliance.nodes in
  List.iter
    (fun (tbl : Catalog.Shell_db.table) ->
       ignore
         (Catalog.Shell_db.add_table scratch ~stats:tbl.Catalog.Shell_db.stats
            tbl.Catalog.Shell_db.schema tbl.Catalog.Shell_db.dist))
    (Catalog.Shell_db.tables app.Appliance.shell);
  { app; scratch; temps = Hashtbl.create 8; plan_reg }

(* register a temp table's schema so later statements can resolve it *)
let register_temp st name (cols : (int * string) list) =
  let columns =
    List.map
      (fun (id, cname) ->
         let ty = Registry.ty st.plan_reg id in
         Catalog.Schema.column ~nullable:true cname ty)
      cols
  in
  let schema = Catalog.Schema.make name columns in
  (* the declared distribution is irrelevant for logical execution *)
  ignore (Catalog.Shell_db.add_table st.scratch schema Catalog.Distribution.Replicated)

(* -- direct logical-tree execution (no optimizer needed per node) -- *)

let physop_of (op : Relop.op) : Memo.Physop.t =
  match op with
  | Relop.Get { table; alias; cols } -> Memo.Physop.Table_scan { table; alias; cols }
  | Relop.Select p -> Memo.Physop.Filter p
  | Relop.Project defs -> Memo.Physop.Compute defs
  | Relop.Join { kind; pred } -> Memo.Physop.Hash_join { kind; pred }
  | Relop.Group_by { keys; aggs } -> Memo.Physop.Hash_agg { keys; aggs }
  | Relop.Sort { keys; limit } -> Memo.Physop.Sort_op { keys; limit }
  | Relop.Union_all -> Memo.Physop.Union_op
  | Relop.Empty cols -> Memo.Physop.Const_empty cols

let rec exec_logical ~read_table (t : Relop.t) : Local.rset =
  let children = List.map (exec_logical ~read_table) t.Relop.children in
  Local.exec_op ~read_table (physop_of t.Relop.op) children

(* the same tree on the columnar engine *)
let rec exec_logical_b ~read_table (t : Relop.t) : Batch.t =
  let children = List.map (exec_logical_b ~read_table) t.Relop.children in
  Batch.exec_op ~read_table (physop_of t.Relop.op) children

(* parse + algebrize + normalize a generated statement *)
let compile st sql =
  let r = Algebrizer.of_sql st.scratch sql in
  let tree = Normalize.normalize r.Algebrizer.reg st.scratch r.Algebrizer.tree in
  (r, tree)

(* does a compiled tree reference any control-resident temp? *)
let rec referenced_tables (t : Relop.t) =
  (match t.Relop.op with
   | Relop.Get { table; _ } -> [ String.lowercase_ascii table ]
   | _ -> [])
  @ List.concat_map referenced_tables t.Relop.children

let uses_control_temp st tree =
  List.exists
    (fun name ->
       match Hashtbl.find_opt st.temps name with
       | Some (On_control _) -> true
       | _ -> false)
    (referenced_tables tree)

(* every referenced relation holds a full copy on every node, so the
   statement's per-node results are identical replicas *)
let all_replicated st tree =
  List.for_all
    (fun name ->
       match Hashtbl.find_opt st.temps name with
       | Some (Replicated_everywhere _) -> true
       | Some _ -> false
       | None ->
         (match Catalog.Shell_db.find st.app.Appliance.shell name with
          | Some tbl -> Catalog.Distribution.is_replicated tbl.Catalog.Shell_db.dist
          | None -> false))
    (referenced_tables tree)

(* per-node temp-table payload; None = base table (read from the
   appliance). An empty result keeps the temp's arity so the columnar
   engine's scans still type-check *)
let temp_payload st ~node ~control name : Rset.t option =
  match Hashtbl.find_opt st.temps (String.lowercase_ascii name) with
  | Some (On_nodes shards) ->
    Some (if control then Rset.empty_like shards.(0) else shards.(node))
  | Some (On_control rs) -> Some (if control then rs else Rset.empty_like rs)
  | Some (Replicated_everywhere rs) -> Some rs
  | None -> None

(* per-node table readers: base shards from the appliance, temps from
   state. The control node's SQL Server holds replicated tables only. *)
let reader_for st ~node ~control name : rows =
  match temp_payload st ~node ~control name with
  | Some rs -> (Rset.to_local rs).Local.rows
  | None -> Appliance.node_table st.app (if control then 0 else node) name

let reader_for_b st ~node ~control name : Batch.t =
  match temp_payload st ~node ~control name with
  | Some rs -> Rset.to_batch rs
  | None -> Appliance.node_batch st.app (if control then 0 else node) name

(* execute a compiled tree on one node's data, on the appliance's engine *)
let exec_tree st ~node ~control (tree : Relop.t) : Rset.t =
  match Appliance.engine st.app with
  | Rset.Row ->
    Rset.Rows (exec_logical ~read_table:(reader_for st ~node ~control) tree)
  | Rset.Columnar ->
    Rset.Cols (exec_logical_b ~read_table:(reader_for_b st ~node ~control) tree)

type stmt_result =
  | Per_node of Rset.t array     (** one result per compute node *)
  | Replicated_result of Rset.t  (** identical on every node *)
  | Control_result of Rset.t     (** ran on the control node *)

(* execute a statement where its input data lives *)
let run_statement st sql ~on_control : stmt_result =
  let _, tree = compile st sql in
  if on_control || uses_control_temp st tree then
    Control_result (exec_tree st ~node:0 ~control:true tree)
  else if all_replicated st tree then
    Replicated_result (exec_tree st ~node:0 ~control:false tree)
  else
    Per_node
      (Array.init st.app.Appliance.nodes (fun node ->
           exec_tree st ~node ~control:false tree))

(** Execute a full DSQL plan against the appliance, its steps drawing
    faults from [fault]; returns the client result set. *)
let run ?fault (app : Appliance.t) (plan : Dsql.Generate.plan) : Local.rset =
  let st = create app plan.Dsql.Generate.reg in
  let result = ref None in
  Appliance.begin_statement app;
  List.iter
    (fun step ->
       match step with
       | Dsql.Generate.Dms_step { kind; temp_table; source_sql; cols; _ } ->
         let temp_key = String.lowercase_ascii temp_table in
         (* each DMS step is one recovery unit: a retry first drops the
            step's (possibly partial) temp table, then re-runs the source
            statement and the movement — DSQL's defined-before-use
            discipline guarantees no later step consumed it yet *)
         Appliance.with_recovery ?fault app
           ~on_retry:(fun () -> Hashtbl.remove st.temps temp_key)
         @@ fun draw ->
         let single_source =
           match kind with
           | Dms.Op.Control_node_move | Dms.Op.Replicated_broadcast -> true
           | _ -> false
         in
         let stmt = run_statement st source_sql ~on_control:single_source in
         (* build a dstream for the DMS runtime; the layout ids come from
            the step's declared temp schema *)
         let layout = List.map fst cols in
         let nil = Rset.Rows { Local.layout; rows = [] } in
         let remap (rs : Rset.t) : Rset.t =
           (* generated SELECTs emit the moved columns in declared order *)
           let w = List.length (Rset.layout rs) in
           if w <> List.length layout then
             raise
               (Dsql_exec_error
                  (Printf.sprintf "step %s: arity mismatch (%d vs %d)" temp_table
                     w (List.length layout)));
           Rset.with_layout rs layout
         in
         let stream =
           match stmt with
           | Control_result c ->
             { Appliance.layout; per_node = Array.make app.Appliance.nodes nil;
               control = remap c; dist = Dms.Distprop.Single_node }
           | Replicated_result r ->
             { Appliance.layout;
               per_node = Array.make app.Appliance.nodes (remap r);
               control = nil;
               dist = Dms.Distprop.Replicated }
           | Per_node per_node ->
             { Appliance.layout;
               per_node = Array.map remap per_node;
               control = nil;
               dist = Dms.Distprop.Hashed [] }
         in
         let out = Appliance.run_move ~draw app kind ~cols:layout stream in
         let placement =
           match out.Appliance.dist with
           | Dms.Distprop.Single_node -> On_control out.Appliance.control
           | Dms.Distprop.Replicated ->
             Replicated_everywhere
               (if Array.length out.Appliance.per_node > 0 then out.Appliance.per_node.(0)
                else nil)
           | Dms.Distprop.Hashed _ -> On_nodes out.Appliance.per_node
         in
         Hashtbl.replace st.temps (String.lowercase_ascii temp_table) placement;
         register_temp st temp_table cols
       | Dsql.Generate.Return_step { sql; _ } ->
         (* execute per node, gather, then apply the statement's global
            ORDER BY / TOP on the gathered rows; one recovery unit — the
            gather is pure, so a control-node transient just recomputes *)
         Appliance.with_recovery ?fault app @@ fun d ->
         let r, tree = compile st sql in
         ignore r;
         let sort_spec =
           match tree.Relop.op with
           | Relop.Sort { keys; limit } -> Some (keys, limit)
           | _ -> None
         in
         let body =
           match sort_spec, tree.Relop.children with
           | Some _, [ c ] -> c
           | _ -> tree
         in
         let gathered =
           Rset.to_local
             (if uses_control_temp st body then
                exec_tree st ~node:0 ~control:true body
              else if all_replicated st body then
                exec_tree st ~node:0 ~control:false body
              else begin
                let parts =
                  List.init app.Appliance.nodes (fun node ->
                      exec_tree st ~node ~control:false body)
                in
                match parts with
                | [] -> Rset.Rows { Local.layout = []; rows = [] }
                | first :: _ -> Rset.concat ~layout:(Rset.layout first) parts
              end)
         in
         Appliance.inject_point app d Fault.Control_transient;
         let final =
           match sort_spec with
           | Some (keys, limit) -> Local.sort_rows ~keys ?limit gathered
           | None -> gathered
         in
         result := Some final)
    plan.Dsql.Generate.steps;
  match !result with
  | Some r -> r
  | None -> raise (Dsql_exec_error "DSQL plan had no Return step")
