(* Experiment harness: regenerates every figure / worked example of the
   paper plus the quantitative studies its claims imply (see DESIGN.md §3
   and EXPERIMENTS.md). Each experiment prints a self-contained report. *)

let section id title =
  Printf.printf "\n============================================================\n";
  Printf.printf "%s  %s\n" id title;
  Printf.printf "============================================================\n%!"

let rowf fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* machine-readable results: experiments record (key, value) pairs and
   `bench --tables` dumps them to BENCH_results.json, so plots and
   regression checks need not scrape the report text *)

let metrics : (string, (string * float) list ref) Hashtbl.t = Hashtbl.create 16

(* experiment ids in first-recorded order, so the JSON reads like the report *)
let metric_order : string list ref = ref []

let record exp k v =
  let l =
    match Hashtbl.find_opt metrics exp with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace metrics exp l;
      metric_order := exp :: !metric_order;
      l
  in
  l := (k, v) :: !l

let recordi exp k v = record exp k (float_of_int v)

(* JSON has no literal for non-finite numbers: nan/inf/-inf all become null
   (printing them as "inf"/"nan" would make the file unparsable) *)
let json_num v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let write_results path =
  let exps =
    List.rev_map (fun id -> (id, List.rev !(Hashtbl.find metrics id))) !metric_order
  in
  let oc = open_out path in
  output_string oc "{\n";
  List.iteri
    (fun i (id, kvs) ->
       Printf.fprintf oc "  %S: {\n" id;
       let n = List.length kvs in
       List.iteri
         (fun j (k, v) ->
            Printf.fprintf oc "    %S: %s%s\n" k (json_num v)
              (if j = n - 1 then "" else ","))
         kvs;
       Printf.fprintf oc "  }%s\n" (if i = List.length exps - 1 then "" else ","))
    exps;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "\nwrote %s (%d experiments)\n%!" path (List.length exps)

(* shared workloads, built lazily per (nodes, sf) *)
let workloads : (int * float, Opdw.Workload.t) Hashtbl.t = Hashtbl.create 4

let workload ~nodes ~sf =
  match Hashtbl.find_opt workloads (nodes, sf) with
  | Some w -> w
  | None ->
    let w = Opdw.Workload.tpch ~node_count:nodes ~sf () in
    Hashtbl.replace workloads (nodes, sf) w;
    w

let query id = (Option.get (Tpch.Queries.find id)).Tpch.Queries.sql

let optimize ?options (w : Opdw.Workload.t) sql =
  Opdw.optimize ?options w.Opdw.Workload.shell sql

(* leaf tables of a parallel plan, left-to-right (join order evidence) *)
let rec plan_leaves (p : Pdwopt.Pplan.t) =
  match p.Pdwopt.Pplan.op with
  | Pdwopt.Pplan.Serial (Memo.Physop.Table_scan { table; _ }) -> [ table ]
  | _ -> List.concat_map plan_leaves p.Pdwopt.Pplan.children

let rec serial_leaves (p : Serialopt.Plan.t) =
  match p.Serialopt.Plan.op with
  | Memo.Physop.Table_scan { table; _ } -> [ table ]
  | _ -> List.concat_map serial_leaves p.Serialopt.Plan.children

let move_names p =
  List.map Dms.Op.name (Pdwopt.Pplan.moves p) |> String.concat ", "

(* execute a plan, returning (rows, simulated seconds, dms seconds) *)
let execute ?observe (w : Opdw.Workload.t) (p : Pdwopt.Pplan.t) =
  let app = w.Opdw.Workload.app in
  Engine.Appliance.reset_account app;
  let res = Engine.Appliance.run_pplan ?observe app p in
  let a = app.Engine.Appliance.account in
  (List.length res.Engine.Local.rows, a.Engine.Appliance.sim_time,
   a.Engine.Appliance.dms_time)

(* ------------------------------------------------------------------ *)
(* E1 (Fig. 3): the MEMO for Customer x Orders, serial and augmented  *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1" "Fig. 3: serial MEMO and its parallel augmentation (Customer x Orders)";
  let w = workload ~nodes:8 ~sf:0.01 in
  let r = optimize w (query "F3") in
  let m = r.Opdw.memo in
  recordi "E1" "memo_xml_bytes"
    (match r.Opdw.memo_xml with Some x -> String.length x | None -> 0);
  recordi "E1" "memo_groups" (Memo.ngroups m);
  recordi "E1" "memo_exprs" (Memo.total_exprs m);
  Printf.printf "\n-- serial MEMO (exported from the serial optimizer as XML, %d bytes) --\n"
    (match r.Opdw.memo_xml with Some x -> String.length x | None -> 0);
  print_endline (Memo.to_string m);
  Printf.printf "-- augmented (parallel) MEMO: options kept per group --\n";
  Printf.printf "%-8s %-28s %-12s %s\n" "group" "distribution option" "dms cost" "via";
  Memo.iter_groups m (fun g ->
      match Hashtbl.find_opt r.Opdw.pdw.Pdwopt.Optimizer.options g.Memo.gid with
      | None -> ()
      | Some opts ->
        List.iter
          (fun ((d : Dms.Distprop.t), (p : Pdwopt.Pplan.t)) ->
             let via =
               match p.Pdwopt.Pplan.op with
               | Pdwopt.Pplan.Move { kind; _ } -> "DMS " ^ Dms.Op.name kind
               | Pdwopt.Pplan.Serial op -> Memo.Physop.name op
               | Pdwopt.Pplan.Return _ -> "Return"
             in
             rowf "%-8d %-28s %-12.3g %s\n" g.Memo.gid
               (Dms.Distprop.to_string m.Memo.reg d) p.Pdwopt.Pplan.dms_cost via)
          opts);
  Printf.printf "\n-- final (best) parallel plan --\n%s\n"
    (Pdwopt.Pplan.to_string m.Memo.reg (Opdw.plan r));
  Printf.printf "\npaper: groups 5/6 add Shuffle/Replicate move expressions over the\n";
  Printf.printf "serial groups; the winner joins Customer with moved Orders (or the\n";
  Printf.printf "symmetric choice, depending on sizes). moves used here: %s\n"
    (move_names (Opdw.plan r))

(* ------------------------------------------------------------------ *)
(* E2 (sec. 2.4): the two-step DSQL plan                               *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2" "Sec. 2.4: DSQL plan for the partition-incompatible join";
  (* the paper's appliance is large; at 32 nodes the shuffle of Orders wins
     over broadcasting Customer, matching the paper's plan *)
  let w = workload ~nodes:32 ~sf:0.01 in
  let r = optimize w (query "P1") in
  print_endline (Dsql.Generate.to_string r.Opdw.dsql);
  let moves = Pdwopt.Pplan.moves (Opdw.plan r) in
  Printf.printf "\nsteps: %d (paper: 2 - one DMS shuffle of Orders on o_custkey, one Return)\n"
    (Dsql.Generate.step_count r.Opdw.dsql);
  Printf.printf "movement chosen: %s (paper: Shuffle)\n"
    (String.concat ", " (List.map Dms.Op.name moves));
  let n, sim, _ = execute w (Opdw.plan r) in
  recordi "E2" "dsql_steps" (Dsql.Generate.step_count r.Opdw.dsql);
  recordi "E2" "result_rows" n;
  record "E2" "sim_seconds" sim;
  Printf.printf "executed: %d result rows, simulated response time %.4gs\n" n sim

(* ------------------------------------------------------------------ *)
(* E3 (sec. 3.2): best serial join order is not best parallel order    *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3" "Sec. 3.2: parallelizing the best serial plan is not enough";
  let w = workload ~nodes:8 ~sf:0.01 in
  let r = optimize w (query "P2") in
  let serial = Option.get r.Opdw.serial.Serialopt.Optimizer.best in
  let pdw = Opdw.plan r in
  let baseline = Option.get r.Opdw.baseline_plan in
  Printf.printf "serial-best join order  : %s\n" (String.concat " > " (serial_leaves serial));
  Printf.printf "PDW-chosen join order   : %s\n" (String.concat " > " (plan_leaves pdw));
  Printf.printf "baseline DMS cost       : %.4g s  (moves: %s)\n"
    baseline.Pdwopt.Pplan.dms_cost (move_names baseline);
  Printf.printf "PDW DMS cost            : %.4g s  (moves: %s)\n" pdw.Pdwopt.Pplan.dms_cost
    (move_names pdw);
  Printf.printf "modelled improvement    : %.2fx\n"
    (baseline.Pdwopt.Pplan.dms_cost /. Float.max 1e-12 pdw.Pdwopt.Pplan.dms_cost);
  let _, sim_b, _ = execute w baseline in
  let _, sim_p, _ = execute w pdw in
  record "E3" "baseline_dms_seconds" baseline.Pdwopt.Pplan.dms_cost;
  record "E3" "pdw_dms_seconds" pdw.Pdwopt.Pplan.dms_cost;
  record "E3" "baseline_sim_seconds" sim_b;
  record "E3" "pdw_sim_seconds" sim_p;
  Printf.printf "simulated times         : baseline %.4gs vs PDW %.4gs (%.2fx)\n" sim_b sim_p
    (sim_b /. Float.max 1e-12 sim_p);
  Printf.printf
    "paper: joining the collocated Orders/Lineitem pair first and shuffling\n\
     the result beats parallelizing the serial order (Customer first).\n"

(* ------------------------------------------------------------------ *)
(* E4 (Fig. 7): TPC-H Q20                                              *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4" "Fig. 7: parallel plan and DSQL steps for TPC-H Q20";
  let w = workload ~nodes:8 ~sf:0.01 in
  let r = optimize w (query "Q20") in
  print_endline (Dsql.Generate.to_string r.Opdw.dsql);
  let moves = Pdwopt.Pplan.moves (Opdw.plan r) in
  Printf.printf "\nmovements: %s\n" (String.concat ", " (List.map Dms.Op.name moves));
  Printf.printf
    "paper plan: Broadcast(part) -> join lineitem early; Shuffle(l_partkey) for\n\
     the distributed aggregation; Shuffle(ps_suppkey) for the supplier semi-join;\n\
     Return with ORDER BY s_name.\n";
  let has k = List.exists (fun m -> Dms.Op.name m = k) moves in
  Printf.printf "shape check: broadcast=%b shuffle>=2=%b\n" (has "Broadcast")
    (List.length (List.filter (function Dms.Op.Shuffle _ -> true | _ -> false) moves) >= 2
     || has "PartitionMove");
  let n, sim, _ = execute w (Opdw.plan r) in
  recordi "E4" "dsql_steps" (Dsql.Generate.step_count r.Opdw.dsql);
  recordi "E4" "moves" (List.length moves);
  recordi "E4" "result_rows" n;
  record "E4" "sim_seconds" sim;
  Printf.printf "executed: %d result rows, simulated response time %.4gs\n" n sim

(* ------------------------------------------------------------------ *)
(* E5 (sec. 3.3.3): cost calibration                                   *)
(* ------------------------------------------------------------------ *)

(* The targeted DMS runs (E5, E6, E12) move hand-built rows on a scratch
   appliance that holds no table: a move reads only its input stream.
   [rows] are dealt round-robin over the nodes for a hashed stream (the
   volumes do not depend on the key) and form one payload otherwise. *)
let dealt_stream app ~layout dist rows =
  let rs rows = Engine.Rset.Rows { Engine.Local.layout; rows } in
  let payloads =
    match dist with
    | Dms.Distprop.Hashed _ ->
      let nodes = app.Engine.Appliance.nodes in
      let parts = Array.make nodes [] in
      List.iteri (fun i r -> parts.(i mod nodes) <- r :: parts.(i mod nodes)) rows;
      Array.map rs parts
    | Dms.Distprop.Replicated | Dms.Distprop.Single_node -> [| rs rows |]
  in
  Engine.Appliance.stream app ~layout dist payloads

let scratch_appliance ~nodes = Engine.Appliance.create (Catalog.Shell_db.create ~node_count:nodes)

(* E5 and E6's calibration set-up: 8 nodes, rows of an int key [k] and a
   64-byte pad (72 bytes a row) *)
let cal_nodes = 8
let cal_k, cal_pad = (0, 1)
let cal_cols = [ cal_k; cal_pad ]

let cal_stream app dist n =
  dealt_stream app ~layout:cal_cols dist
    (List.init n (fun i -> [| Catalog.Value.Int i; Catalog.Value.String (String.make 64 'x') |]))

let calibrate_lambdas () =
  (* targeted performance tests: run each DMS operation over a sweep of
     sizes on a scratch appliance and fit lambda per component *)
  let app = scratch_appliance ~nodes:cal_nodes in
  let move kind dist n =
    ignore (Engine.Appliance.run_move app kind ~cols:cal_cols (cal_stream app dist n))
  in
  let hashed = Dms.Distprop.Hashed [ cal_k ] in
  List.iter
    (fun n ->
       move (Dms.Op.Shuffle [ cal_k ]) hashed n;
       move Dms.Op.Broadcast hashed n;
       move Dms.Op.Partition_move hashed n;
       move (Dms.Op.Trim [ cal_k ]) Dms.Distprop.Replicated n;
       move Dms.Op.Replicated_broadcast Dms.Distprop.Single_node n;
       move Dms.Op.Remote_copy hashed n)
    [ 500; 2000; 8000; 32000 ];
  (* the account's samples are newest first; E5's records pin the fit in
     that order *)
  Dms.Calibrate.fit app.Engine.Appliance.account.Engine.Appliance.samples

let e5 () =
  section "E5" "Sec. 3.3.3: cost calibration (fitting lambda per component)";
  let lambdas, fits = calibrate_lambdas () in
  Printf.printf "%-16s %-14s %-18s\n" "component" "lambda (s/B)" "rel. RMS residual";
  List.iter
    (fun (f : Dms.Calibrate.fit) ->
       let name = Dms.Calibrate.component_name f.f_component in
       record "E5" ("lambda." ^ name) f.f_lambda;
       record "E5" ("residual." ^ name) f.f_error;
       rowf "%-16s %-14.4g %-18.4f\n" name f.f_lambda f.f_error)
    fits;
  Printf.printf "\nlambda_hash > lambda_direct: %b (paper: hashing adds reader overhead)\n"
    (lambdas.Dms.Cost.l_reader_hash > lambdas.Dms.Cost.l_reader_direct);
  Printf.printf
    "residuals stem from per-row and fixed overheads the constant-lambda model\n\
     ignores - the simplicity/accuracy trade-off the paper accepts.\n";
  lambdas

(* ------------------------------------------------------------------ *)
(* E6 (Fig. 5): model vs simulated DMS times                           *)
(* ------------------------------------------------------------------ *)

let e6 lambdas =
  section "E6" "Fig. 5: DMS cost model vs simulated runtime, all 7 operations";
  let app = scratch_appliance ~nodes:cal_nodes in
  let width = 72. in
  Printf.printf "%-22s %-10s %-14s %-14s %-8s\n" "operation" "rows" "model (s)" "simulated (s)"
    "ratio";
  List.iter
    (fun (kind, input_dist, n) ->
       Engine.Appliance.reset_account app;
       ignore (Engine.Appliance.run_move app kind ~cols:cal_cols (cal_stream app input_dist n));
       let sim = app.Engine.Appliance.account.Engine.Appliance.dms_time in
       let model =
         (Dms.Cost.cost ~lambdas kind ~nodes:cal_nodes ~rows:(float_of_int n) ~width)
           .Dms.Cost.c_total
       in
       rowf "%-22s %-10d %-14.4g %-14.4g %-8.2f\n" (Dms.Op.name kind) n model sim
         (model /. Float.max 1e-12 sim))
    (let hashed = Dms.Distprop.Hashed [ cal_k ] in
     [ (Dms.Op.Shuffle [ cal_k ], hashed, 20000);
       (Dms.Op.Partition_move, hashed, 20000);
       (Dms.Op.Broadcast, hashed, 5000);
       (Dms.Op.Trim [ cal_k ], Dms.Distprop.Replicated, 20000);
       (Dms.Op.Control_node_move, Dms.Distprop.Single_node, 5000);
       (Dms.Op.Replicated_broadcast, Dms.Distprop.Single_node, 5000);
       (Dms.Op.Remote_copy, hashed, 20000) ]);
  Printf.printf "\nratios near 1.0 validate C_DMS = max(source, target) with linear\n";
  Printf.printf "per-component costs; deviations come from per-row/fixed overheads.\n"

(* ------------------------------------------------------------------ *)
(* E7: plan quality, PDW QO vs parallelized best serial plan           *)
(* ------------------------------------------------------------------ *)

let geomean l =
  match l with
  | [] -> 1.
  | _ -> exp (List.fold_left (fun a x -> a +. log x) 0. l /. float_of_int (List.length l))

let e7 () =
  section "E7" "Plan quality: PDW QO vs parallelized best serial plan (TPC-H)";
  let w = workload ~nodes:8 ~sf:0.01 in
  let nodes = 8 in
  Printf.printf "%-5s %-13s %-13s %-9s %-12s %-12s %-9s %-10s\n" "query" "base dms(s)"
    "pdw dms(s)" "model x" "base sim(s)" "pdw sim(s)" "sim x" "dms-only x";
  let speedups = ref [] and sim_speedups = ref [] in
  (* ablation (DESIGN.md par. 6): pure-DMS costing, no serial tie-break *)
  let dms_only_options =
    { (Opdw.default_options ~node_count:nodes) with
      Opdw.pdw =
        { Pdwopt.Enumerate.default_opts with
          Pdwopt.Enumerate.nodes; serial_tiebreak = false } }
  in
  List.iter
    (fun q ->
       let r = optimize w q.Tpch.Queries.sql in
       match r.Opdw.baseline_plan with
       | None -> rowf "%-5s (baseline unavailable)\n" q.Tpch.Queries.id
       | Some b ->
         let p = Opdw.plan r in
         let _, sim_b, _ = execute w b in
         let _, sim_p, _ = execute w p in
         let eps = 1e-9 in
         let mx = Float.max eps b.Pdwopt.Pplan.dms_cost /. Float.max eps p.Pdwopt.Pplan.dms_cost in
         let sx = sim_b /. Float.max 1e-12 sim_p in
         let r_dms = optimize ~options:dms_only_options w q.Tpch.Queries.sql in
         let ax =
           Float.max eps b.Pdwopt.Pplan.dms_cost
           /. Float.max eps (Opdw.plan r_dms).Pdwopt.Pplan.dms_cost
         in
         speedups := mx :: !speedups;
         sim_speedups := sx :: !sim_speedups;
         record "E7" (q.Tpch.Queries.id ^ ".model_x") mx;
         record "E7" (q.Tpch.Queries.id ^ ".sim_x") sx;
         rowf "%-5s %-13.4g %-13.4g %-9.2f %-12.4g %-12.4g %-9.2f %-10.2f\n" q.Tpch.Queries.id
           b.Pdwopt.Pplan.dms_cost p.Pdwopt.Pplan.dms_cost mx sim_b sim_p sx ax)
    Tpch.Queries.all;
  record "E7" "geomean_model_x" (geomean !speedups);
  record "E7" "geomean_sim_x" (geomean !sim_speedups);
  Printf.printf
    "\ngeometric mean improvement: modelled %.2fx, simulated %.2fx\n\
     ('dms-only x' = the paper's pure movement-cost objective, without the\n\
     per-node relational-work tie-break; same winners, ties broken blindly)\n"
    (geomean !speedups) (geomean !sim_speedups);
  Printf.printf
    "(paper sec. 5: cost-based search over the rich distributed space 'produces\n\
     much higher-quality plans than simply parallelizing the best serial plan')\n"

(* ------------------------------------------------------------------ *)
(* E8: optimizer scalability, chain joins, pruning ablation            *)
(* ------------------------------------------------------------------ *)

let chain_shell k ~node_count =
  let sh = Catalog.Shell_db.create ~node_count in
  for i = 0 to k - 1 do
    let name = Printf.sprintf "t%d" i in
    let schema =
      Catalog.Schema.make name
        [ Catalog.Schema.column ~is_pk:true (Printf.sprintf "a%d" i) Catalog.Types.Tint;
          Catalog.Schema.column (Printf.sprintf "b%d" i) Catalog.Types.Tint;
          Catalog.Schema.column ~width:32 (Printf.sprintf "pad%d" i) Catalog.Types.Tstring ]
    in
    let stats = Catalog.Tbl_stats.make ~row_count:(10_000. *. float_of_int (i + 1)) () in
    Catalog.Tbl_stats.set_col stats (Printf.sprintf "a%d" i)
      (Catalog.Col_stats.make ~ndv:(10_000. *. float_of_int (i + 1)) ());
    Catalog.Tbl_stats.set_col stats (Printf.sprintf "b%d" i)
      (Catalog.Col_stats.make ~ndv:5000. ());
    (* alternate distribution: even tables on their join key, odd ones not *)
    let dist =
      if i mod 2 = 0 then Catalog.Distribution.Hash_partitioned [ Printf.sprintf "a%d" i ]
      else Catalog.Distribution.Hash_partitioned [ Printf.sprintf "b%d" i ]
    in
    ignore (Catalog.Shell_db.add_table sh ~stats schema dist)
  done;
  sh

let chain_query k =
  let tables = List.init k (fun i -> Printf.sprintf "t%d" i) in
  let joins =
    List.init (k - 1) (fun i -> Printf.sprintf "a%d = b%d" i (i + 1))
  in
  Printf.sprintf "SELECT %s FROM %s WHERE %s"
    (String.concat ", " (List.init k (fun i -> Printf.sprintf "a%d" i)))
    (String.concat ", " tables) (String.concat " AND " joins)

let e8 () =
  section "E8" "Optimizer scalability: chain joins, with/without pruning (Fig. 4, 06.ii)";
  Printf.printf "%-7s %-8s %-8s %-8s | %-14s | %-19s\n" "" "" "" ""
    "pruned (paper)" "unpruned (ablation)";
  Printf.printf "%-7s %-8s %-8s %-8s | %-14s | %-19s\n" "tables" "groups"
    "exprs" "enum'd" "kept opts" "kept opts";
  List.iter
    (fun k ->
       let sh = chain_shell k ~node_count:8 in
       let r = Algebra.Algebrizer.of_sql sh (chain_query k) in
       let tr = Algebra.Normalize.normalize r.Algebra.Algebrizer.reg sh
           r.Algebra.Algebrizer.tree in
       (* memo and enumeration sizes come from the Obs counters both
          optimizers report -- the same ones `explain --profile` prints *)
       let sobs = Obs.create () in
       let sres =
         Serialopt.Optimizer.optimize ~obs:sobs r.Algebra.Algebrizer.reg sh tr
       in
       let m = sres.Serialopt.Optimizer.memo in
       let groups = int_of_float (Obs.counter sobs "serial.memo.groups") in
       let exprs = int_of_float (Obs.counter sobs "serial.memo.exprs") in
       let run prune =
         let obs = Obs.create () in
         let opts = { Pdwopt.Enumerate.default_opts with Pdwopt.Enumerate.prune } in
         ignore (Pdwopt.Optimizer.optimize ~obs ~opts m);
         (int_of_float (Obs.counter obs "pdw.options_kept"),
          int_of_float (Obs.counter obs "pdw.exprs_enumerated"))
       in
       let kept_p, enum_p = run true in
       let kept_u = if k <= 6 then Some (fst (run false)) else None in
       recordi "E8" (Printf.sprintf "chain%d.memo_groups" k) groups;
       recordi "E8" (Printf.sprintf "chain%d.memo_exprs" k) exprs;
       recordi "E8" (Printf.sprintf "chain%d.pdw_enumerated" k) enum_p;
       recordi "E8" (Printf.sprintf "chain%d.kept_pruned" k) kept_p;
       Option.iter (recordi "E8" (Printf.sprintf "chain%d.kept_unpruned" k)) kept_u;
       rowf "%-7d %-8d %-8d %-8d | %-14d | %-19s\n" k groups exprs enum_p kept_p
         (match kept_u with Some n -> string_of_int n | None -> "-"))
    [ 2; 3; 4; 5; 6; 7; 8 ];
  Printf.printf
    "\npaper sec. 3.2: naive enumeration cannot scale; bounding each group to\n\
     the best option per interesting property keeps enumeration tractable.\n"

(* ------------------------------------------------------------------ *)
(* E9: repeated-workload throughput (plan cache + multicore appliance) *)
(* ------------------------------------------------------------------ *)

(* run [p] at jobs 1, 2, 4 and 8 and record, per pool size, whether the
   simulated clock and the byte/row accounting equal the jobs-1 run bit for
   bit (per-node shard times combine with the same max/sum rules) *)
let jobs_identity exp (app : Engine.Appliance.t) p =
  Printf.printf "%-6s %-14s %-12s\n" "jobs" "sim time (s)" "identical";
  let account jobs =
    Par.with_pool ~jobs @@ fun pool ->
    Engine.Appliance.set_pool app pool;
    Fun.protect ~finally:(fun () -> Engine.Appliance.set_pool app Par.sequential)
    @@ fun () ->
    Engine.Appliance.reset_account app;
    ignore (Engine.Appliance.run_pplan app p);
    let a = app.Engine.Appliance.account in
    (a.Engine.Appliance.sim_time, a.Engine.Appliance.bytes_moved,
     a.Engine.Appliance.rows_moved)
  in
  let base = account 1 in
  List.iter
    (fun jobs ->
       let ((sim, _, _) as acct) = if jobs = 1 then base else account jobs in
       let identical = acct = base in
       recordi exp (Printf.sprintf "jobs%d_accounting_identical" jobs)
         (if identical then 1 else 0);
       rowf "%-6d %-14.6g %-12b\n" jobs sim identical)
    [ 1; 2; 4; 8 ]

let e9 () =
  section "E9" "Repeated workload: plan cache + multicore appliance";
  (* -- part 1: plan cache, one cold round then warm rounds -- *)
  let w = workload ~nodes:8 ~sf:0.01 in
  let ids = [ "Q3"; "Q5"; "Q10"; "Q20"; "P2" ] in
  let cache = Opdw.cache () in
  let rounds = 20 in
  for _ = 0 to rounds do
    List.iter (fun id -> ignore (Opdw.optimize ~cache w.Opdw.Workload.shell (query id))) ids
  done;
  let cs = Opdw.Plancache.stats cache in
  recordi "E9" "plancache_hits" cs.Opdw.Plancache.hits;
  recordi "E9" "plancache_misses" cs.Opdw.Plancache.misses;
  Printf.printf "plan cache (%d queries, 1 cold + %d warm rounds): %d hits / %d misses\n"
    (List.length ids) rounds cs.Opdw.Plancache.hits cs.Opdw.Plancache.misses;
  (* -- part 2: multicore appliance, accounting vs jobs -- *)
  let w2 = workload ~nodes:8 ~sf:0.02 in
  let p = Opdw.plan (optimize w2 (query "Q5")) in
  Printf.printf "\nmulticore appliance (Q5, sf 0.02, 8 nodes, %d DSQL moves):\n"
    (Pdwopt.Pplan.move_count p);
  jobs_identity "E9" w2.Opdw.Workload.app p;
  Printf.printf
    "\nsimulated response time and byte/row accounting are bit-identical at every\n\
     jobs setting; wall-clock speedups are perfbench's to measure.\n"

(* ------------------------------------------------------------------ *)
(* E19: parallel plan enumeration -- plan identity vs jobs            *)
(* ------------------------------------------------------------------ *)

let e19 () =
  section "E19"
    "Parallel plan enumeration: plan identity vs jobs (chain joins)";
  let jobs_list = [ 1; 2; 4 ] in
  Printf.printf "chain joins (E8 shapes)\n\n";
  Printf.printf "%-7s %-6s %-11s %-10s\n" "tables" "jobs" "kept opts" "identical";
  List.iter
    (fun k ->
       let sh = chain_shell k ~node_count:8 in
       let r = Algebra.Algebrizer.of_sql sh (chain_query k) in
       let tr =
         Algebra.Normalize.normalize r.Algebra.Algebrizer.reg sh
           r.Algebra.Algebrizer.tree
       in
       let sres = Serialopt.Optimizer.optimize r.Algebra.Algebrizer.reg sh tr in
       (* optimization mutates the memo (merging, registry ids), so every
          run re-imports a fresh memo from the serial optimizer's XML
          export -- the same round-trip `Opdw.optimize` performs *)
       let xml = Memo.Memo_xml.export_string sres.Serialopt.Optimizer.memo in
       let run jobs =
         Par.with_pool ~jobs @@ fun pool ->
         let m = Memo.Memo_xml.import_string sh xml in
         let obs = Obs.create () in
         let res = Pdwopt.Optimizer.optimize ~obs ~pool m in
         (Pdwopt.Pplan.to_string m.Memo.reg res.Pdwopt.Optimizer.plan,
          res.Pdwopt.Optimizer.plan.Pdwopt.Pplan.dms_cost,
          int_of_float (Obs.counter obs "pdw.options_kept"))
       in
       let base = run 1 in
       List.iter
         (fun jobs ->
            let ((_, _, kept) as out) = if jobs = 1 then base else run jobs in
            let identical = out = base in
            recordi "E19" (Printf.sprintf "chain%d.jobs%d.kept" k jobs) kept;
            recordi "E19"
              (Printf.sprintf "chain%d.jobs%d.identical" k jobs)
              (if identical then 1 else 0);
            rowf "%-7d %-6d %-11d %-10b\n" k jobs kept identical)
         jobs_list)
    [ 6; 7; 8 ];
  Printf.printf
    "\nthe enumeration runs as a leveled wavefront over the memo's dependency\n\
     levels (DESIGN.md sec. 11); the chosen plan, its cost, and the kept-option\n\
     counts are bit-identical at every jobs setting.\n"

(* ------------------------------------------------------------------ *)
(* E14 (sec. 2.2): global statistics merged from per-node local stats  *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14" "Sec. 2.2: merged global statistics vs exact statistics";
  let sf = 0.01 in
  let db = Tpch.Datagen.generate sf in
  Printf.printf "%-22s %-9s %-12s %-12s %-12s %-10s\n" "column" "nodes" "exact ndv"
    "merged ndv" "exact med" "est med";
  List.iter
    (fun nodes ->
       List.iter
         (fun (tbl, col) ->
            let schema, _ =
              List.find (fun (s, _) -> s.Catalog.Schema.name = tbl) Tpch.Schema.layout
            in
            let rows = Tpch.Datagen.rows db tbl in
            let idx = Option.get (Catalog.Schema.find_col schema col) in
            let values = List.map (fun (r : Catalog.Value.t array) -> r.(idx)) rows in
            let exact = Catalog.Col_stats.of_values values in
            (* split rows across nodes the way the appliance would *)
            let parts = Array.make nodes [] in
            List.iteri (fun i v -> parts.(i mod nodes) <- v :: parts.(i mod nodes)) values;
            let merged =
              Catalog.Col_stats.merge
                (Array.to_list (Array.map Catalog.Col_stats.of_values parts))
            in
            let median (s : Catalog.Col_stats.t) =
              match s.Catalog.Col_stats.histogram with
              | Some h ->
                let nn = Catalog.Histogram.non_null_rows h in
                (* probe: rows below the exact median value *)
                ignore nn; h
              | None -> Catalog.Histogram.empty
            in
            let sorted = List.sort Catalog.Value.compare values in
            let med = List.nth sorted (List.length sorted / 2) in
            let est_le h = Catalog.Histogram.rows_le h med in
            rowf "%-22s %-9d %-12.0f %-12.0f %-12.0f %-10.0f\n"
              (tbl ^ "." ^ col) nodes exact.Catalog.Col_stats.ndv merged.Catalog.Col_stats.ndv
              (est_le (median exact)) (est_le (median merged)))
         [ ("orders", "o_custkey"); ("orders", "o_orderdate"); ("lineitem", "l_quantity") ])
    [ 2; 8; 32 ];
  Printf.printf
    "\n('est med' = estimated rows at/below the true median value: exact would be\n\
     ~half the rows; drift quantifies what merging loses, which the paper\n\
     accepts to keep a single system image in the shell database.)\n"

(* ------------------------------------------------------------------ *)
(* E10 (sec. 3.1): MEMO seeding under an exploration timeout           *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10" "Sec. 3.1: seeding the MEMO with collocated join orders under a timeout";
  let w = workload ~nodes:8 ~sf:0.01 in
  let nodes = 8 in
  (* a FROM order whose initial bracketing starts with a cross product of
     two distribution-incompatible tables; only a join reordering (explored
     or seeded) can exploit the orders/lineitem collocation *)
  let sql =
    "SELECT o_orderkey, ps_availqty FROM partsupp, orders, lineitem \
     WHERE o_orderkey = l_orderkey AND l_partkey = ps_partkey AND l_quantity > 45"
  in
  Printf.printf "%-9s %-16s %-16s %-14s\n" "budget" "unseeded dms(s)" "seeded dms(s)" "seeding gain";
  List.iter
    (fun budget ->
       let run seed =
         let options =
           { (Opdw.default_options ~node_count:nodes) with
             Opdw.serial = { Serialopt.Optimizer.task_budget = budget };
             Opdw.seed_collocated = seed }
         in
         let r = optimize ~options w sql in
         (Opdw.plan r).Pdwopt.Pplan.dms_cost
       in
       let u = run false and s = run true in
       rowf "%-9d %-16.4g %-16.4g %-14.2f\n" budget u s (u /. Float.max 1e-12 s))
    [ 0; 2; 8; 100; 20000 ];
  Printf.printf
    "\npaper: under the timeout the initial alternatives dominate the space, so\n\
     PDW seeds distribution-aware (collocated) plans; with a generous budget\n\
     exploration recovers them on its own and seeding stops mattering.\n"

(* ------------------------------------------------------------------ *)
(* E11: correctness matrix                                             *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11" "Correctness: distributed == single-node reference, whole workload";
  Printf.printf "%-6s" "query";
  List.iter (fun n -> Printf.printf " %8s" (Printf.sprintf "N=%d" n)) [ 2; 8 ];
  Printf.printf "   baseline(N=8)\n";
  List.iter
    (fun q ->
       Printf.printf "%-6s" q.Tpch.Queries.id;
       let base_ok = ref false in
       List.iter
         (fun nodes ->
            let w = workload ~nodes ~sf:0.005 in
            let r = optimize w q.Tpch.Queries.sql in
            let app = w.Opdw.Workload.app in
            let dist = Opdw.run app r in
            let reference = Option.get (Opdw.run_reference app r) in
            let cols = List.map snd (Opdw.output_columns r) in
            let ok =
              Engine.Local.canonical ~cols dist = Engine.Local.canonical ~cols reference
            in
            if nodes = 8 then begin
              match Opdw.run_baseline app r with
              | Some b ->
                base_ok :=
                  Engine.Local.canonical ~cols b = Engine.Local.canonical ~cols reference
              | None -> base_ok := false
            end;
            Printf.printf " %8s" (if ok then "ok" else "FAIL"))
         [ 2; 8 ];
       Printf.printf "   %s\n%!" (if !base_ok then "ok" else "FAIL"))
    Tpch.Queries.all

(* ------------------------------------------------------------------ *)
(* E12: the uniformity assumption under data skew                      *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12" "Sec. 3.3.1: the uniformity assumption under data skew";
  let nodes = 8 in
  let app = scratch_appliance ~nodes in
  let ck, cg, cp = (0, 1, 2) in
  let n = 40_000 in
  Printf.printf "%-24s %-14s %-14s %-8s\n" "shuffle-key distribution" "model (s)"
    "simulated (s)" "ratio";
  List.iter
    (fun (label, gen_g) ->
       (* rows evenly spread on k; shuffled onto g whose skew varies *)
       let rows =
         List.init n (fun i ->
             [| Catalog.Value.Int i; Catalog.Value.Int (gen_g i);
                Catalog.Value.String (String.make 64 'x') |])
       in
       let stream =
         dealt_stream app ~layout:[ ck; cg; cp ] (Dms.Distprop.Hashed [ ck ]) rows
       in
       Engine.Appliance.reset_account app;
       ignore (Engine.Appliance.run_move app (Dms.Op.Shuffle [ cg ]) ~cols:[ ck; cg; cp ] stream);
       let sim = app.Engine.Appliance.account.Engine.Appliance.dms_time in
       let model =
         (Dms.Cost.cost (Dms.Op.Shuffle [ cg ]) ~nodes ~rows:(float_of_int n) ~width:80.)
           .Dms.Cost.c_total
       in
       rowf "%-24s %-14.4g %-14.4g %-8.2f\n" label model sim (model /. Float.max 1e-12 sim))
    [ ("uniform", (fun i -> i));
      ("moderate (75% -> 2 keys)", (fun i -> if i mod 4 < 3 then i mod 2 else i));
      ("heavy (all one key)", (fun _ -> 42)) ];
  Printf.printf
    "\nthe model divides bytes by N (uniformity assumption, sec. 3.3.1); under\n\
     skew the receiving node's writer/bulk-copy becomes the bottleneck and the\n\
     model under-estimates by up to ~N x - the known limitation the paper\n\
     accepts for simplicity.\n"

(* ------------------------------------------------------------------ *)
(* E13: broadcast vs shuffle crossover as the appliance grows          *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13" "Topology dependence: broadcast vs shuffle crossover (sec. 2.4 join)";
  Printf.printf "%-7s %-22s %-14s %-14s\n" "nodes" "chosen movement" "pdw dms(s)"
    "baseline dms(s)";
  List.iter
    (fun nodes ->
       let w = workload ~nodes ~sf:0.01 in
       let r = optimize w (query "P1") in
       let p = Opdw.plan r in
       let b = match r.Opdw.baseline_plan with Some b -> b.Pdwopt.Pplan.dms_cost | None -> nan in
       record "E13" (Printf.sprintf "n%d.pdw_dms_seconds" nodes) p.Pdwopt.Pplan.dms_cost;
       record "E13" (Printf.sprintf "n%d.baseline_dms_seconds" nodes) b;
       rowf "%-7d %-22s %-14.4g %-14.4g\n" nodes (move_names p) p.Pdwopt.Pplan.dms_cost b)
    [ 2; 4; 8; 16; 32; 64 ];
  Printf.printf
    "\nbroadcast volume is Y*w regardless of N; shuffle volume is Y*w/N per\n\
     node - so small appliances replicate the small side while large ones\n\
     re-partition the big side (the paper's sec. 2.4 plan appears once the\n\
     appliance is large enough).\n"

(* ------------------------------------------------------------------ *)
(* E15: static plan-validity analyzer over the workload (lib/check)    *)
(* ------------------------------------------------------------------ *)

let e15 () =
  section "E15" "Static plan-validity analyzer over the workload";
  let w = workload ~nodes:8 ~sf:0.005 in
  (* the analyzer gates every compiled plan: an invalid one raises
     Check.Invalid out of Opdw.optimize *)
  List.iter (fun q -> ignore (optimize w q.Tpch.Queries.sql)) Tpch.Queries.all;
  let nq = List.length Tpch.Queries.all in
  recordi "E15" "queries" nq;
  recordi "E15" "rules" (List.length Check.rules);
  rowf "%d-query workload: every plan passes all %d rules\n" nq (List.length Check.rules);
  Printf.printf
    "\nthe analyzer re-derives every distribution bottom-up and re-prices\n\
     every movement; its cost per statement is perfbench's check.validate_ms.\n"

(* ------------------------------------------------------------------ *)
(* E16: availability and latency under injected faults (chaos sweep)  *)
(* ------------------------------------------------------------------ *)

let e16 () =
  section "E16" "Availability and latency under deterministic fault injection";
  let w = workload ~nodes:8 ~sf:0.005 in
  let ids = [ "Q3"; "Q5"; "Q10" ] in
  let seeds = [ 1; 2; 3 ] in
  let options = Opdw.default_options ~node_count:8 in
  (* fault-free baseline simulated time per query *)
  let base =
    List.map
      (fun id ->
         let r = optimize ~options w (query id) in
         let _, sim, _ = execute w (Opdw.plan r) in
         (id, sim))
      ids
  in
  Printf.printf
    "\n%d queries x %d seeds per fault rate (8 nodes; retry budget %d):\n"
    (List.length ids) (List.length seeds) Fault.retries;
  Printf.printf "%-8s %-14s %-12s %-10s %-10s %-10s %-10s\n" "rate"
    "availability" "slowdown_x" "injected" "retries" "recovered" "replans";
  List.iter
    (fun rate ->
       let runs = ref 0 and ok = ref 0 in
       let injected = ref 0 and retries = ref 0 and recovered = ref 0 in
       let replans = ref 0 in
       let slowdowns = ref [] in
       List.iter
         (fun id ->
            List.iter
              (fun seed ->
                 incr runs;
                 let fault =
                   if rate = 0. then Fault.none
                   else Fault.seeded ~seed ~rate ()
                 in
                 let app = w.Opdw.Workload.app in
                 let el =
                   Topology.Elastic.create ~options ~fault w.Opdw.Workload.shell app
                 in
                 Engine.Appliance.reset_account app;
                 (match Topology.Elastic.run el (query id) with
                  | _ ->
                    incr ok;
                    let a = (Topology.Elastic.app el).Engine.Appliance.account in
                    let fault_free = List.assoc id base in
                    slowdowns :=
                      (a.Engine.Appliance.sim_time /. Float.max 1e-12 fault_free)
                      :: !slowdowns;
                    injected := !injected + a.Engine.Appliance.injected;
                    retries := !retries + a.Engine.Appliance.retries;
                    recovered := !recovered + a.Engine.Appliance.recovered;
                    replans := !replans + a.Engine.Appliance.replans
                  | exception Fault.Exhausted _ -> ());
                 Engine.Appliance.reset_account app)
              seeds)
         ids;
       let geomean = function
         | [] -> Float.nan
         | l ->
           exp (List.fold_left (fun acc x -> acc +. log x) 0. l
                /. float_of_int (List.length l))
       in
       let avail = float_of_int !ok /. float_of_int !runs in
       let slow = geomean !slowdowns in
       let key fmt = Printf.sprintf fmt (int_of_float (rate *. 1000.)) in
       record "E16" (key "rate%03d.availability") avail;
       record "E16" (key "rate%03d.sim_slowdown_x") slow;
       recordi "E16" (key "rate%03d.injected") !injected;
       recordi "E16" (key "rate%03d.retries") !retries;
       recordi "E16" (key "rate%03d.recovered") !recovered;
       recordi "E16" (key "rate%03d.replans") !replans;
       rowf "%-8.2f %-14.2f %-12.3f %-10d %-10d %-10d %-10d\n" rate avail slow
         !injected !retries !recovered !replans)
    [ 0.; 0.02; 0.05; 0.1; 0.2 ];
  Printf.printf
    "\nrecovered runs return rows identical to the fault-free plan (enforced by\n\
     the chaos suite); availability degrades only when a step's retry budget\n\
     is exhausted, and simulated slowdown prices retries, backoff and the\n\
     re-partitioning that follows a node loss.\n"

(* ------------------------------------------------------------------ *)
(* E17: statement outcomes and availability under the resource governor *)
(* ------------------------------------------------------------------ *)

let e17 () =
  section "E17" "Statement outcomes and availability under the resource governor";
  let w = workload ~nodes:8 ~sf:0.005 in
  let app = w.Opdw.Workload.app in
  let ids = [ "Q1"; "Q3"; "Q5"; "Q10"; "Q12"; "Q20" ] in
  let statements = 24 in
  let stmts =
    List.init statements (fun i ->
        let id = List.nth ids (i mod List.length ids) in
        (id, query id))
  in
  (* oracle rows per query: full budget, ungoverned, fault-free *)
  let oracle = Opdw.Workload.oracle w stmts in
  Printf.printf
    "\n%d statements (%s mix) per cell, 4 driver domains, through the\n\
     governed entry point; limits are on the MEMO size and the simulated\n\
     clock only, so every cell is deterministic:\n"
    statements (String.concat "," ids);
  Printf.printf "%-16s %-6s %-9s %-9s %-8s %-6s\n" "governance"
    "width" "degraded" "rejected" "timeout" "avail";
  let configs =
    [ ("ungoverned", Governor.no_limits);
      ("memo8",
       { Governor.no_limits with Governor.max_memo_groups = Some 8 });
      ("memo8_deadline",
       { Governor.deadline = None; sim_deadline = Some 0.001;
         max_memo_groups = Some 8 }) ]
  in
  Par.with_pool ~jobs:4 @@ fun pool ->
  Fun.protect ~finally:(fun () -> Engine.Appliance.set_pool app Par.sequential)
  @@ fun () ->
  Engine.Appliance.set_pool app pool;
  List.iter
    (fun (label, limits) ->
       List.iter
         (fun width ->
            let options =
              { (Opdw.default_options ~node_count:8) with Opdw.governor = limits }
            in
            let d =
              Opdw.Driver.create ~cache:(Opdw.cache ()) ~options
                ~max_concurrent:width ~queue_limit:statements
                ~breaker_threshold:0 w.Opdw.Workload.shell app
            in
            let { Opdw.Driver.degraded; rejected; timed_out; wrong; _ } =
              Opdw.Driver.storm ~pool ~oracle d stmts
            in
            (* availability: every statement either answers with oracle rows
               or is refused with a structured outcome — wrong rows are the
               only failures *)
            let avail = float_of_int (statements - wrong) /. float_of_int statements in
            let frac n = float_of_int n /. float_of_int statements in
            let key k = Printf.sprintf "%s.width%d.%s" label width k in
            record "E17" (key "degraded_frac") (frac degraded);
            record "E17" (key "rejected_frac") (frac rejected);
            record "E17" (key "timeout_frac") (frac timed_out);
            record "E17" (key "availability") avail;
            rowf "%-16s %-6d %-9.2f %-9.2f %-8.2f %-6.2f\n" label width
              (frac degraded) (frac rejected) (frac timed_out) avail)
         [ 1; 2; 4; 8 ])
    configs;
  Printf.printf
    "\nevery answered statement returned rows identical to the ungoverned\n\
     fault-free oracle; refusals are structured outcomes, not errors.\n\
     A statement over the simulated deadline ends as a structured timeout,\n\
     never as wrong rows; a memo-budget trip degrades to the anytime\n\
     best-so-far plan or the baseline fallback, both of which pass the\n\
     static analyzer and skip the cache.\n"

(* ------------------------------------------------------------------ *)
(* E18: vectorized columnar executor — scale-factor and jobs sweeps    *)
(* ------------------------------------------------------------------ *)

let e18 () =
  section "E18"
    "Columnar local executor: row vs columnar engines across scale factors";
  let sfs = [ 0.01; 0.05; 0.1 ] in
  let qids = [ "Q1"; "Q3"; "Q6" ] in
  let nodes = 8 in
  let sf_key sf = Printf.sprintf "sf%g" sf in
  Printf.printf
    "per-node execution only (optimization excluded); both engines run the\n\
     identical plans over identically sharded data.\n\n";
  Printf.printf "%-8s %-5s %-8s %-10s\n" "sf" "query" "rows" "sim equal";
  List.iter
    (fun sf ->
       (* fresh workloads per engine: identical generated data, shards, stats *)
       let run_engine engine =
         let w = Opdw.Workload.tpch ~node_count:nodes ~sf ~engine () in
         let app = w.Opdw.Workload.app in
         List.map
           (fun id ->
              let r = Opdw.optimize w.Opdw.Workload.shell (query id) in
              Engine.Appliance.reset_account app;
              let res = Engine.Appliance.run_pplan app (Opdw.plan r) in
              (id, app.Engine.Appliance.account.Engine.Appliance.sim_time,
               Engine.Local.canonical res))
           qids
       in
       let rows = run_engine Engine.Rset.Row in
       let cols = run_engine Engine.Rset.Columnar in
       List.iter2
         (fun (id, simr, resr) (_, simc, resc) ->
            let sim_equal = simr = simc in
            if resr <> resc then
              failwith (Printf.sprintf "E18: %s rows differ across engines at sf %g" id sf);
            let k fmt = Printf.sprintf "%s.%s.%s" (sf_key sf) id fmt in
            recordi "E18" (k "result_rows") (List.length resr);
            recordi "E18" (k "sim_identical") (if sim_equal then 1 else 0);
            rowf "%-8g %-5s %-8d %-10b\n" sf id (List.length resr) sim_equal)
         rows cols)
    sfs;
  (* -- part 2: the columnar engine under a domain pool; the simulated
     clock and byte/row accounting must not move -- *)
  let sf_jobs = List.nth sfs (List.length sfs - 1) in
  let w = Opdw.Workload.tpch ~node_count:nodes ~sf:sf_jobs
      ~engine:Engine.Rset.Columnar () in
  Printf.printf "\ncolumnar engine, Q9 at sf %g, accounting vs jobs:\n" sf_jobs;
  jobs_identity "E18" w.Opdw.Workload.app (Opdw.plan (optimize w (query "Q9")));
  Printf.printf
    "\nresult rows and the simulated clock are engine- and jobs-independent;\n\
     the engines' wall-clock gap is perfbench's engine.run_ms to measure.\n"

(* ------------------------------------------------------------------ *)
(* E20: abstract-interpretation analyzer -- contradiction pruning and  *)
(* static cardinality-bound tightness                                  *)
(* ------------------------------------------------------------------ *)

let e20 () =
  section "E20"
    "Abstract interpretation: contradiction pruning and bound tightness";
  let nodes = 4 and sf = 0.01 in
  let w = workload ~nodes ~sf in
  let opts ~fold =
    let o = Opdw.default_options ~node_count:nodes in
    { o with Opdw.pdw = { o.Opdw.pdw with Pdwopt.Enumerate.fold_empty = fold } }
  in
  (* compile unchecked: with folding off a contradictory plan would (by
     design) be rejected by the R12 check gate *)
  let compile ~fold sql =
    let obs = Obs.create () in
    let r =
      Opdw.optimize ~obs ~options:(opts ~fold) ~check:false w.Opdw.Workload.shell sql
    in
    (r, Obs.counter obs "pdw.exprs_enumerated", Obs.counter obs "analysis.empty_groups")
  in
  (* part 1: live workload -- folding must be plan-identity-preserving *)
  Printf.printf
    "part 1: full %d-query workload, fold_empty on vs off (nodes=%d sf=%g)\n\n"
    (List.length Tpch.Queries.all) nodes sf;
  let identical = ref 0 and exprs_on = ref 0. and exprs_off = ref 0. in
  List.iter
    (fun (q : Tpch.Queries.t) ->
       let r1, x1, _ = compile ~fold:true q.Tpch.Queries.sql in
       let r0, x0, _ = compile ~fold:false q.Tpch.Queries.sql in
       let reg = r1.Opdw.memo.Memo.reg in
       if Pdwopt.Pplan.to_string reg (Opdw.plan r1)
          = Pdwopt.Pplan.to_string reg (Opdw.plan r0)
       then incr identical;
       exprs_on := !exprs_on +. x1;
       exprs_off := !exprs_off +. x0)
    Tpch.Queries.all;
  recordi "E20" "workload.identical_plans" !identical;
  recordi "E20" "workload.queries" (List.length Tpch.Queries.all);
  record "E20" "workload.exprs_fold_on" !exprs_on;
  record "E20" "workload.exprs_fold_off" !exprs_off;
  Printf.printf "identical plans: %d/%d; exprs enumerated %.0f (on) vs %.0f (off)\n\n"
    !identical (List.length Tpch.Queries.all) !exprs_on !exprs_off;
  (* part 2: contradiction-heavy queries the normalizer cannot fold (the
     predicates are satisfiable syntactically; only catalog min/max
     refutes them), so pruning is entirely the analyzer's work *)
  let contras =
    [ ("scan", "SELECT o_orderkey FROM orders WHERE o_totalprice < 0");
      ("join",
       "SELECT o_orderkey FROM orders, customer \
        WHERE o_custkey = c_custkey AND o_totalprice < 0");
      ("agg",
       "SELECT o_orderstatus, COUNT(*) AS c FROM orders \
        WHERE o_totalprice < 0 GROUP BY o_orderstatus");
      ("range",
       "SELECT l_orderkey FROM lineitem WHERE l_quantity > 1000000") ]
  in
  Printf.printf
    "part 2: stats-refuted queries (catalog proves the filter empty)\n\n";
  Printf.printf "%-7s %-11s %-12s %-10s %-8s\n" "query"
    "exprs (on)" "exprs (off)" "prune" "plan sz";
  List.iter
    (fun (name, sql) ->
       let r1, x1, empty = compile ~fold:true sql in
       let r0, x0, _ = compile ~fold:false sql in
       let reduction = x0 /. Float.max 1. x1 in
       record "E20" (name ^ ".exprs_fold_on") x1;
       record "E20" (name ^ ".exprs_fold_off") x0;
       record "E20" (name ^ ".prune_x") reduction;
       record "E20" (name ^ ".empty_groups") empty;
       recordi "E20" (name ^ ".plan_size_fold_on")
         (Pdwopt.Pplan.size (Opdw.plan r1));
       recordi "E20" (name ^ ".plan_size_fold_off")
         (Pdwopt.Pplan.size (Opdw.plan r0));
       rowf "%-7s %-11.0f %-12.0f %-10.1f %d vs %d\n" name x1 x0 reduction
         (Pdwopt.Pplan.size (Opdw.plan r1))
         (Pdwopt.Pplan.size (Opdw.plan r0)))
    contras;
  (* part 3: soundness and tightness of the static bounds against actual
     execution -- every operator's observed cardinality must land inside
     [lo, hi] (the assert-bounds observer counts violations), and
     the root's hi shows how loose the interval arithmetic gets *)
  Printf.printf
    "\npart 3: static [lo, hi] vs execution (assert-bounds oracle)\n\n";
  Printf.printf "%-7s %-12s %-12s %-12s %-10s\n" "query" "root hi" "observed"
    "tight (x)" "violations";
  let violations_total = ref 0 and tightness = ref [] in
  List.iter
    (fun (q : Tpch.Queries.t) ->
       let r = optimize w q.Tpch.Queries.sql in
       let plan = Opdw.plan r in
       let actx =
         Analysis.context ~shell:w.Opdw.Workload.shell
           ~reg:r.Opdw.memo.Memo.reg ~nodes
       in
       let observe, violations =
         Check.bounds_observer (Check.group_bounds actx plan)
       in
       let rows, _, _ = execute ~observe w plan in
       let v = violations () in
       violations_total := !violations_total + v;
       (* hi at the root, clamped by the client TOP if one exists (Return
          nodes are not limit-clamped by the abstract domain) *)
       let hi =
         let _, info =
           List.find
             (fun ((n : Pdwopt.Pplan.t), _) ->
                match n.Pdwopt.Pplan.op with
                | Pdwopt.Pplan.Return _ -> true
                | _ -> false)
             (Check.annotate actx plan)
         in
         match plan.Pdwopt.Pplan.op with
         | Pdwopt.Pplan.Return { limit = Some l; _ } ->
           Float.min info.Check.card_hi (float_of_int l)
         | _ -> info.Check.card_hi
       in
       let tight = hi /. Float.max 1. (float_of_int rows) in
       tightness := tight :: !tightness;
       record "E20" (q.Tpch.Queries.id ^ ".root_hi") hi;
       recordi "E20" (q.Tpch.Queries.id ^ ".observed") rows;
       record "E20" (q.Tpch.Queries.id ^ ".tightness_x") tight;
       recordi "E20" (q.Tpch.Queries.id ^ ".bound_violations") v;
       rowf "%-7s %-12.4g %-12d %-12.3g %-10d\n" q.Tpch.Queries.id hi rows
         tight v)
    Tpch.Queries.all;
  recordi "E20" "bound_violations_total" !violations_total;
  record "E20" "tightness_geomean_x" (geomean !tightness);
  Printf.printf
    "\nbound violations across the workload: %d (soundness); geomean root\n\
     tightness %.2fx (static hi over observed rows, TOP-clamped)\n"
    !violations_total (geomean !tightness)

(* ------------------------------------------------------------------ *)
(* E21: feedback-driven calibration -- model error before/after, and   *)
(* the LKG plan store's regression fallback                            *)
(* ------------------------------------------------------------------ *)

let e21 () =
  section "E21"
    "Feedback calibration: model-error reduction and LKG regression fallback";
  let nodes = 8 and sf = 0.005 in
  (* fresh workloads: calibration rewrites catalog statistics and the
     regression scenario corrupts them, neither may leak into the shared
     workload cache used by the other experiments *)
  let fresh () = Opdw.Workload.tpch ~node_count:nodes ~sf () in

  (* -- part A: one feedback pass over the whole workload -- *)
  let w = fresh () in
  let d =
    Opdw.Driver.create ~cache:(Opdw.cache ()) w.Opdw.Workload.shell w.Opdw.Workload.app
  in
  (* the second pass is the R11 soundness gate for the refined statistics:
     executed row counts must stay inside the analyzer's static bounds *)
  let measure ~bounds q = Opdw.Feedback.measure ~bounds d q.Tpch.Queries.sql in
  let before = List.map (fun q -> fst (measure ~bounds:false q)) Tpch.Queries.all in
  let cal = Opdw.Feedback.calibrate d in
  let after_v = List.map (measure ~bounds:true) Tpch.Queries.all in
  let after = List.map fst after_v in
  let violations = List.fold_left (fun a (_, v) -> a + v) 0 after_v in
  rowf "%-7s %-14s %-14s\n" "query" "err(before)" "err(after)";
  List.iteri
    (fun i q ->
       let b = List.nth before i and a = List.nth after i in
       record "E21" (q.Tpch.Queries.id ^ ".error_before") b;
       record "E21" (q.Tpch.Queries.id ^ ".error_after") a;
       rowf "%-7s %-14.4g %-14.4g\n" q.Tpch.Queries.id b a)
    Tpch.Queries.all;
  let gb = geomean before and ga = geomean after in
  record "E21" "geomean_error_before" gb;
  record "E21" "geomean_error_after" ga;
  record "E21" "improvement_x" (gb /. ga);
  recordi "E21" "refined_columns" (List.length cal.Opdw.Feedback.refined);
  recordi "E21" "bound_violations" violations;
  List.iter
    (fun (f : Dms.Calibrate.fit) ->
       record "E21" ("lambda." ^ Dms.Calibrate.component_name f.f_component) f.f_lambda)
    cal.Opdw.Feedback.fits;
  Printf.printf
    "\ngeomean model-vs-sim error: %.4g -> %.4g (%.1fx better) after one\n\
     feedback pass; %d columns refined; %d bound violations post-refinement\n"
    gb ga (gb /. ga) (List.length cal.Opdw.Feedback.refined) violations;

  (* -- part B: adversarial stats skew, LKG fallback bounds the damage -- *)
  let w = fresh () in
  let shell = w.Opdw.Workload.shell in
  let d = Opdw.Driver.create ~plan_store:true shell w.Opdw.Workload.app in
  (* one statement from a zeroed account, its cost the whole account *)
  let serve sql =
    Opdw.Driver.reset d;
    Opdw.Driver.returned (Opdw.Driver.run d sql)
  in
  let sql = query "Q3" in
  let oc1 = serve sql in
  let tbl = Catalog.Shell_db.find_exn shell "lineitem" in
  Catalog.Shell_db.set_stats shell "lineitem"
    { tbl.Catalog.Shell_db.stats with Catalog.Tbl_stats.row_count = 10. };
  let oracle = Engine.Local.canonical oc1.Opdw.Driver.rows in
  let matched = ref 1 and recover_round = ref 0 in
  Printf.printf
    "\nregression scenario (Q3, lineitem stats corrupted after round 1):\n";
  let describe i (oc : Opdw.Driver.served) =
    rowf "round %d: %-13s sim %.4gs%s\n" i
      (Opdw.Feedback.Store.outcome_name (Option.get oc.Opdw.Driver.store_outcome))
      oc.Opdw.Driver.observed_sim
      (if oc.Opdw.Driver.fellback then "  (LKG fallback)" else "")
  in
  describe 1 oc1;
  for i = 2 to 4 do
    let oc = serve sql in
    describe i oc;
    if Engine.Local.canonical oc.Opdw.Driver.rows = oracle then incr matched;
    if oc.Opdw.Driver.fellback && !recover_round = 0 then recover_round := i
  done;
  let store = Option.get (Opdw.Driver.store d) in
  let availability = float_of_int !matched /. 4. in
  recordi "E21" "regression.regressions" (Opdw.Feedback.Store.regressions store);
  recordi "E21" "regression.fallbacks" (Opdw.Feedback.Store.fallbacks store);
  recordi "E21" "regression.recover_round" !recover_round;
  record "E21" "regression.availability" availability;
  Printf.printf
    "availability %.3g (%d/4 rounds returned oracle rows); %d regression(s),\n\
     %d fallback(s); LKG served from round %d\n"
    availability !matched
    (Opdw.Feedback.Store.regressions store)
    (Opdw.Feedback.Store.fallbacks store) !recover_round

let e22 () =
  section "E22"
    "Elastic scale-out: online N->2N grow + advisor re-key, fault-rate sweep";
  let nodes = 4 and grow_to = 8 and sf = 0.005 and storm_len = 16 in
  (* fault-free oracle rows per query id: every answer served during the
     storm — including the ones admitted mid-move — must match exactly *)
  let oracle =
    Opdw.Workload.oracle
      (Opdw.Workload.tpch ~node_count:nodes ~sf ())
      (List.map (fun (q : Tpch.Queries.t) -> (q.Tpch.Queries.id, q.Tpch.Queries.sql))
         Tpch.Queries.all)
  in
  let bundle = Array.of_list Tpch.Queries.all in
  (* observed (not modelled) DMS bytes of one clean execution of [sql] *)
  let observed_bytes (app : Engine.Appliance.t) sql =
    let before = app.Engine.Appliance.account.Engine.Appliance.bytes_moved in
    let r = Opdw.optimize app.Engine.Appliance.shell sql in
    ignore (Opdw.run app r);
    app.Engine.Appliance.account.Engine.Appliance.bytes_moved -. before
  in
  rowf "%-6s %-6s %-13s %-8s %-8s %-14s %-14s\n" "rate" "seed" "avail" "moves"
    "aborted" "move-sim-s" "dms-reduction";
  let worst_avail = ref 1.0 and reductions = ref [] in
  List.iter
    (fun rate ->
       List.iter
         (fun seed ->
            (* fresh workloads: moves replace the appliance and re-key the
               catalog, neither may leak into the shared workload cache *)
            let w = Opdw.Workload.tpch ~node_count:nodes ~sf () in
            let app = w.Opdw.Workload.app in
            let obs = Obs.create () in
            let el =
              Topology.Elastic.create ~cache:(Opdw.cache ())
                ~fault:(Fault.seeded ~seed ~rate ()) w.Opdw.Workload.shell app
            in
            let storm =
              Topology.Zipf.storm ~seed ~length:storm_len (Array.length bundle)
              |> List.map (fun k ->
                  (bundle.(k).Tpch.Queries.id, bundle.(k).Tpch.Queries.sql))
            in
            (* half the storm builds the advisor's log, then the appliance
               doubles and re-keys online while the rest keeps serving *)
            let ( { Opdw.Driver.statements; returned; wrong; _ },
                  { Topology.Elastic.advice; _ } ) =
              Topology.Elastic.storm ~obs ~grow_to ~oracle el storm
            in
            let avail = float_of_int (returned - wrong) /. float_of_int statements in
            if avail < !worst_avail then worst_avail := avail;
            (* observed post-move DMS volume of the storm's head queries vs a
               frozen-key control grown to the same width *)
            let control = Opdw.Workload.tpch ~node_count:grow_to ~sf () in
            let head = [ bundle.(0); bundle.(1) ] in
            let reduction =
              geomean
                (List.map
                   (fun (q : Tpch.Queries.t) ->
                      let frozen =
                        observed_bytes control.Opdw.Workload.app q.Tpch.Queries.sql
                      in
                      let moved =
                        observed_bytes (Topology.Elastic.app el) q.Tpch.Queries.sql
                      in
                      if moved > 0. then frozen /. moved else 1.)
                   head)
            in
            reductions := reduction :: !reductions;
            let move_sim = Obs.counter obs "topology.move_seconds" in
            let applied = Obs.counter obs "topology.applied_moves" in
            let aborted = Obs.counter obs "topology.aborted_moves" in
            let tag = Printf.sprintf "rate%g.seed%d" rate seed in
            record "E22" (tag ^ ".availability") avail;
            record "E22" (tag ^ ".applied_moves") applied;
            record "E22" (tag ^ ".aborted_moves") aborted;
            record "E22" (tag ^ ".move_sim_seconds") move_sim;
            record "E22" (tag ^ ".modelled_cost_frozen") advice.Topology.Advisor.a_baseline;
            record "E22" (tag ^ ".modelled_cost_moved") advice.Topology.Advisor.a_proposed;
            record "E22" (tag ^ ".observed_dms_reduction_x") reduction;
            recordi "E22" (tag ^ ".final_nodes") (Opdw.Driver.nodes el);
            rowf "%-6g %-6d %-13.3f %-8g %-8g %-14.4g %.3gx\n" rate seed avail
              applied aborted move_sim reduction)
         [ 1; 2; 3 ])
    [ 0.; 0.05; 0.1 ];
  let g = geomean !reductions in
  record "E22" "worst_availability" !worst_avail;
  record "E22" "geomean_observed_dms_reduction_x" g;
  Printf.printf
    "\nworst availability %.3f across the sweep (1.0 = every answer\n\
     oracle-equal, including statements admitted mid-move); post-move head\n\
     queries move %.3gx less observed DMS volume than a frozen-key appliance\n\
     at the same width\n"
    !worst_avail g

let all () =
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  let lambdas = e5 () in
  e6 lambdas;
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  e12 ();
  e13 ();
  e14 ();
  e15 ();
  e16 ();
  e17 ();
  e18 ();
  e19 ();
  e20 ();
  e21 ();
  e22 ()

let by_id = function
  | "E1" -> e1 ()
  | "E2" -> e2 ()
  | "E3" -> e3 ()
  | "E4" -> e4 ()
  | "E5" -> ignore (e5 ())
  | "E6" -> e6 (calibrate_lambdas () |> fst)
  | "E7" -> e7 ()
  | "E8" -> e8 ()
  | "E9" -> e9 ()
  | "E10" -> e10 ()
  | "E11" -> e11 ()
  | "E12" -> e12 ()
  | "E13" -> e13 ()
  | "E14" -> e14 ()
  | "E15" -> e15 ()
  | "E16" -> e16 ()
  | "E17" -> e17 ()
  | "E18" -> e18 ()
  | "E19" -> e19 ()
  | "E20" -> e20 ()
  | "E21" -> e21 ()
  | "E22" -> e22 ()
  | id -> Printf.printf "unknown experiment %s (E1..E22)\n" id
