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

type state = {
  app : Appliance.t;
  scratch : Catalog.Shell_db.t;      (** base schemas + temp schemas *)
  temps : (string, Appliance.dstream) Hashtbl.t;
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

(* parse + algebrize + normalize a generated statement *)
let compile st sql =
  let r = Algebrizer.of_sql st.scratch sql in
  Normalize.normalize r.Algebrizer.reg st.scratch r.Algebrizer.tree

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
       | Some d -> d.Appliance.dist = Dms.Distprop.Single_node
       | None -> false)
    (referenced_tables tree)

(* every referenced relation holds a full copy on every node, so the
   statement's per-node results are identical replicas *)
let all_replicated st tree =
  List.for_all
    (fun name ->
       match Hashtbl.find_opt st.temps name with
       | Some d -> d.Appliance.dist = Dms.Distprop.Replicated
       | None ->
         (match Catalog.Shell_db.find st.app.Appliance.shell name with
          | Some tbl -> Catalog.Distribution.is_replicated tbl.Catalog.Shell_db.dist
          | None -> false))
    (referenced_tables tree)

(* one node's table reader: temps from state, base shards from the
   appliance. The control node's SQL Server holds replicated tables only;
   a temp it does not hold reads empty, keeping its arity so the columnar
   engine's scans still type-check *)
let reader st ~node ~control name : Rset.t =
  match Hashtbl.find_opt st.temps (String.lowercase_ascii name) with
  | None -> Appliance.node_rset st.app (if control then 0 else node) name
  | Some d ->
    (match d.Appliance.dist with
     | Dms.Distprop.Hashed _ -> if control then Rset.empty_like d.parts.(0) else d.parts.(node)
     | Dms.Distprop.Single_node ->
       if control then d.parts.(0) else Rset.empty_like d.parts.(0)
     | Dms.Distprop.Replicated -> d.parts.(node))

(* execute a compiled tree on one node's data, one operator at a time
   through the appliance's engine *)
let rec exec_tree st ~node ~control (tree : Relop.t) : Rset.t =
  let children = List.map (exec_tree st ~node ~control) tree.Relop.children in
  Appliance.shard_exec st.app ~read_table:(reader st ~node ~control)
    (physop_of tree.Relop.op) children

(* execute a compiled tree where its input data lives, as the payloads
   {!Appliance.stream} takes: on the control node, once when every input
   is replicated, or on every compute node *)
let run_tree st ~on_control (tree : Relop.t) : Dms.Distprop.t * Rset.t array =
  if on_control || uses_control_temp st tree then
    (Dms.Distprop.Single_node, [| exec_tree st ~node:0 ~control:true tree |])
  else if all_replicated st tree then
    (Dms.Distprop.Replicated, [| exec_tree st ~node:0 ~control:false tree |])
  else
    ( Dms.Distprop.Hashed [],
      Array.init st.app.Appliance.nodes (fun node -> exec_tree st ~node ~control:false tree) )

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
         let tree = compile st source_sql in
         let dist, payloads = run_tree st ~on_control:single_source tree in
         (* the stream the DMS runtime moves; the layout ids come from the
            step's declared temp schema *)
         let layout = List.map fst cols in
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
         let stream = Appliance.stream app ~layout dist (Array.map remap payloads) in
         let out = Appliance.run_move ~draw app kind ~cols:layout stream in
         Hashtbl.replace st.temps temp_key out;
         register_temp st temp_table cols
       | Dsql.Generate.Return_step { sql; _ } ->
         (* execute per node, gather, then apply the statement's global
            ORDER BY / TOP on the gathered rows; one recovery unit — the
            gather is pure, so a control-node transient just recomputes *)
         Appliance.with_recovery ?fault app @@ fun d ->
         let tree = compile st sql in
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
         let _, payloads = run_tree st ~on_control:false body in
         let gathered =
           { Local.layout = Rset.layout payloads.(0);
             rows = Rset.client_rows (Array.to_list payloads) }
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
