(* The plan cache: LRU mechanics, fingerprint sensitivity (every option,
   and every catalog change along an appliance's lineage — statistics,
   calibration, decommission, grow, re-key), and the two end-to-end
   properties —
   a cache hit returns plans structurally equal to a fresh optimization,
   and the multicore appliance matches sequential execution exactly. *)

let w = lazy (Opdw.Workload.tpch ~node_count:4 ~sf:0.001 ())

(* -- LRU mechanics over a plain int cache -- *)

let test_lru_eviction () =
  let c = Opdw.Plancache.create ~capacity:2 () in
  Alcotest.(check bool) "no evict on first add" false (Opdw.Plancache.add c "a" 1);
  Alcotest.(check bool) "no evict on second add" false (Opdw.Plancache.add c "b" 2);
  (* touching "a" makes "b" the LRU victim *)
  Alcotest.(check (option int)) "a hits" (Some 1) (Opdw.Plancache.find c "a");
  Alcotest.(check bool) "third add evicts" true (Opdw.Plancache.add c "c" 3);
  Alcotest.(check (option int)) "b was evicted" None (Opdw.Plancache.find c "b");
  Alcotest.(check (option int)) "a survived" (Some 1) (Opdw.Plancache.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Opdw.Plancache.find c "c");
  let s = Opdw.Plancache.stats c in
  Alcotest.(check int) "size" 2 s.Opdw.Plancache.size;
  Alcotest.(check int) "hits" 3 s.Opdw.Plancache.hits;
  Alcotest.(check int) "misses" 1 s.Opdw.Plancache.misses;
  Alcotest.(check int) "evictions" 1 s.Opdw.Plancache.evictions;
  Opdw.Plancache.clear c;
  Alcotest.(check int) "cleared" 0 (Opdw.Plancache.stats c).Opdw.Plancache.size

let test_add_refresh () =
  let c = Opdw.Plancache.create ~capacity:2 () in
  ignore (Opdw.Plancache.add c "a" 1);
  Alcotest.(check bool) "re-add same key refreshes, no evict" false
    (Opdw.Plancache.add c "a" 10);
  Alcotest.(check (option int)) "value replaced" (Some 10) (Opdw.Plancache.find c "a");
  Alcotest.(check int) "size still 1" 1 (Opdw.Plancache.stats c).Opdw.Plancache.size

(* -- fingerprint sensitivity -- *)

let fingerprint_of ?(serial = Serialopt.Optimizer.default_options)
    ?(pdw = Pdwopt.Enumerate.default_opts) ?(via_xml = true)
    ?(seed_collocated = false) ?(governor = Governor.no_limits) shell normalized =
  Opdw.Plancache.fingerprint ~shell
    { Opdw.serial; pdw; via_xml; seed_collocated; governor } normalized

let test_fingerprint_sensitivity () =
  let w = Lazy.force w in
  let shell = w.Opdw.Workload.shell in
  let r =
    Opdw.optimize shell
      "SELECT o_orderkey FROM orders, customer WHERE o_custkey = c_custkey"
  in
  let tree = r.Opdw.normalized in
  let base = fingerprint_of shell tree in
  Alcotest.(check string) "fingerprint is deterministic" base
    (fingerprint_of shell tree);
  let differs what fp = Alcotest.(check bool) what false (String.equal base fp) in
  differs "node count re-keys"
    (fingerprint_of
       ~pdw:{ Pdwopt.Enumerate.default_opts with Pdwopt.Enumerate.nodes = 16 }
       shell tree);
  differs "hints re-key"
    (fingerprint_of
       ~pdw:{ Pdwopt.Enumerate.default_opts with
              Pdwopt.Enumerate.hints = [ ("orders", `Broadcast) ] }
       shell tree);
  differs "serial task budget re-keys"
    (fingerprint_of
       ~serial:{ Serialopt.Optimizer.task_budget = 7 }
       shell tree);
  differs "lambda constants re-key"
    (fingerprint_of
       ~pdw:{ Pdwopt.Enumerate.default_opts with
              Pdwopt.Enumerate.lambdas =
                { Dms.Cost.default_lambdas with Dms.Cost.l_network = 1e-6 } }
       shell tree);
  differs "seeding flag re-keys" (fingerprint_of ~seed_collocated:true shell tree);
  (* v4: a plan compiled with contradiction-driven folding off must not be
     served when folding is on (and vice versa) *)
  differs "fold_empty analysis knob re-keys"
    (fingerprint_of
       ~pdw:{ Pdwopt.Enumerate.default_opts with Pdwopt.Enumerate.fold_empty = false }
       shell tree);
  (* a statistics update bumps the shell's version and must miss *)
  let tbl = Catalog.Shell_db.find_exn shell "orders" in
  Catalog.Shell_db.set_stats shell "orders" tbl.Catalog.Shell_db.stats;
  differs "stats version re-keys" (fingerprint_of shell tree);
  (* a different query tree re-keys even with identical knobs *)
  let r2 =
    Opdw.optimize shell
      "SELECT o_orderkey FROM orders, customer WHERE o_custkey = c_custkey AND c_acctbal > 1000"
  in
  differs "tree re-keys" (fingerprint_of shell r2.Opdw.normalized)

(* -- what re-keys: one table -- *)

let rekey_sql = "SELECT o_orderkey FROM orders, customer WHERE o_custkey = c_custkey"

(* Every field of [Opdw.options], changed alone, re-keys. The record
   patterns below are exhaustive (missing fields are a compile error), so
   a knob added later must be listed here, and then fails unless the
   fingerprint carries it. *)
let test_every_option_rekeys () =
  let shell = (Lazy.force w).Opdw.Workload.shell in
  let tree = (Opdw.optimize shell rekey_sql).Opdw.normalized in
  let ({ Opdw.serial; pdw; via_xml; seed_collocated; governor } as o) =
    Opdw.default_options ~node_count:4
  in
  let { Serialopt.Optimizer.task_budget } = serial in
  let { Pdwopt.Enumerate.nodes; lambdas; serial_tiebreak; prune; hints; fold_empty } = pdw in
  let { Governor.deadline; sim_deadline; max_memo_groups } = governor in
  let other (l : Dms.Cost.lambdas) = { l with Dms.Cost.l_network = 2. *. l.Dms.Cost.l_network } in
  let seconds = function None -> Some 1. | Some s -> Some (s +. 1.) in
  let fp (o : Opdw.options) = Opdw.Plancache.fingerprint ~shell o tree in
  let pdw_ f = { o with Opdw.pdw = f pdw } in
  let gov f = { o with Opdw.governor = f governor } in
  let variants =
    [ ("serial.task_budget",
       { o with Opdw.serial = { task_budget = task_budget + 1 } });
      ("pdw.nodes", pdw_ (fun p -> { p with nodes = nodes * 2 }));
      ("pdw.lambdas", pdw_ (fun p -> { p with lambdas = other lambdas }));
      ("pdw.serial_tiebreak",
       pdw_ (fun p -> { p with serial_tiebreak = not serial_tiebreak }));
      ("pdw.prune", pdw_ (fun p -> { p with prune = not prune }));
      ("pdw.hints", pdw_ (fun p -> { p with hints = ("orders", `Broadcast) :: hints }));
      ("pdw.fold_empty", pdw_ (fun p -> { p with fold_empty = not fold_empty }));
      ("via_xml", { o with Opdw.via_xml = not via_xml });
      ("seed_collocated", { o with Opdw.seed_collocated = not seed_collocated });
      ("governor.deadline", gov (fun g -> { g with deadline = seconds deadline }));
      ("governor.sim_deadline", gov (fun g -> { g with sim_deadline = seconds sim_deadline }));
      ("governor.max_memo_groups",
       gov (fun g ->
           { g with max_memo_groups = Some (1 + Option.value max_memo_groups ~default:0) })) ]
  in
  Alcotest.(check int) "all 12 option values" 12 (List.length variants);
  let keyed = ("defaults", fp o) :: List.map (fun (name, o') -> (name, fp o')) variants in
  List.iteri
    (fun i (a, fa) ->
       List.iteri
         (fun j (b, fb) ->
            if i < j && String.equal fa fb then
              Alcotest.failf "%s and %s share a fingerprint" a b)
         keyed)
    keyed

(* Each catalog change yields a fingerprint never seen before, including a
   calibration that refines nothing, a grow back to the original node
   count, and a second re-key that restores the original layout: versions
   rise strictly along the appliance's lineage. *)
let test_catalog_changes_rekey () =
  let wl = Opdw.Workload.tpch ~node_count:3 ~sf:0.001 () in
  let cache = Opdw.cache () and seen = ref [] in
  let fresh what ?options shell =
    match (Opdw.optimize ~cache ?options shell rekey_sql).Opdw.fingerprint with
    | Some fp ->
      Alcotest.(check bool) (what ^ " yields a new fingerprint") false (List.mem fp !seen);
      seen := fp :: !seen
    | None -> Alcotest.fail "expected a fingerprint when a cache is armed"
  in
  let shell = wl.Opdw.Workload.shell in
  fresh "the base catalog" shell;
  let orders = Catalog.Shell_db.find_exn shell "orders" in
  Catalog.Shell_db.set_stats shell "orders" orders.Catalog.Shell_db.stats;
  fresh "set_stats" shell;
  Catalog.Shell_db.update_col_stats shell "orders" "o_custkey"
    (Option.get (Catalog.Shell_db.col_stats orders "o_custkey"));
  fresh "update_col_stats" shell;
  let fb = Opdw.Driver.create ~cache shell wl.Opdw.Workload.app in
  let options = Opdw.Driver.options fb in
  let cal = Opdw.Feedback.calibrate fb in
  Alcotest.(check int) "nothing refined" 0 (List.length cal.Opdw.Feedback.refined);
  Alcotest.(check bool) "options unchanged" true (options = Opdw.Driver.options fb);
  fresh "a calibration that refines nothing" ~options shell;
  let app = Engine.Appliance.decommission wl.Opdw.Workload.app ~node:2 in
  fresh "a decommission" app.Engine.Appliance.shell;
  let app = Engine.Appliance.recommission app ~nodes:3 in
  fresh "a grow" app.Engine.Appliance.shell;
  let app = Engine.Appliance.redistribute app ~table:"orders" ~cols:[ "o_custkey" ] in
  fresh "a re-key" app.Engine.Appliance.shell;
  let app = Engine.Appliance.redistribute app ~table:"orders" ~cols:[ "o_orderkey" ] in
  Alcotest.(check int) "re-keys keep the node count" 3 app.Engine.Appliance.nodes;
  fresh "a second re-key" app.Engine.Appliance.shell

(* two workloads built independently from the same inputs, and taken
   through the same lineage, key identically: versions come from the
   lineage, not from a process-wide counter *)
let test_independent_workloads_key_equal () =
  let cache = Opdw.cache () in
  let fp shell = (Opdw.optimize ~cache shell rekey_sql).Opdw.fingerprint in
  let a = Opdw.Workload.tpch ~node_count:3 ~sf:0.001 ()
  and b = Opdw.Workload.tpch ~node_count:3 ~sf:0.001 () in
  Alcotest.(check (option string)) "same inputs, same fingerprint"
    (fp a.Opdw.Workload.shell) (fp b.Opdw.Workload.shell);
  let shrink (wl : Opdw.Workload.t) =
    (Engine.Appliance.decommission wl.Opdw.Workload.app ~node:0).Engine.Appliance.shell
  in
  Alcotest.(check (option string)) "same lineage, same fingerprint"
    (fp (shrink a)) (fp (shrink b))

let test_cache_hit_counters () =
  let w = Lazy.force w in
  let cache = Opdw.cache () in
  let sql = "SELECT c_nationkey, COUNT(*) AS c FROM customer GROUP BY c_nationkey" in
  ignore (Opdw.optimize ~cache w.Opdw.Workload.shell sql);
  ignore (Opdw.optimize ~cache w.Opdw.Workload.shell sql);
  ignore (Opdw.optimize ~cache w.Opdw.Workload.shell sql);
  let s = Opdw.Plancache.stats cache in
  Alcotest.(check int) "one miss" 1 s.Opdw.Plancache.misses;
  Alcotest.(check int) "two hits" 2 s.Opdw.Plancache.hits

(* -- cache hygiene: rejected plans are evicted, never re-served -- *)

let test_remove_invalid () =
  let c = Opdw.Plancache.create ~capacity:4 () in
  ignore (Opdw.Plancache.add c "a" 1);
  ignore (Opdw.Plancache.add c "b" 2);
  Alcotest.(check bool) "present entry removed" true
    (Opdw.Plancache.remove_invalid c "a");
  Alcotest.(check (option int)) "gone" None (Opdw.Plancache.find c "a");
  Alcotest.(check bool) "absent key is a no-op" false
    (Opdw.Plancache.remove_invalid c "a");
  let s = Opdw.Plancache.stats c in
  Alcotest.(check int) "one invalid eviction" 1 s.Opdw.Plancache.evictions_invalid;
  Alcotest.(check int) "LRU evictions unaffected" 0 s.Opdw.Plancache.evictions;
  Alcotest.(check int) "size shrank" 1 s.Opdw.Plancache.size

let test_run_rejection_evicts () =
  let w = Lazy.force w in
  let shell = w.Opdw.Workload.shell in
  let app = w.Opdw.Workload.app in
  let cache = Opdw.cache () in
  let sql = "SELECT o_custkey, COUNT(*) AS c FROM orders GROUP BY o_custkey" in
  let r = Opdw.optimize ~cache shell sql in
  Alcotest.(check bool) "result carries its cache key" true
    (r.Opdw.fingerprint <> None);
  (* corrupt the cached plan the way a miscompilation would: drop the
     first Move, leaving a distribution-incompatible aggregation *)
  let bad_plan =
    Test_check.mutate_first
      (fun n ->
         match n.Pdwopt.Pplan.op with
         | Pdwopt.Pplan.Move _ -> Some (List.hd n.Pdwopt.Pplan.children)
         | _ -> None)
      (Opdw.plan r)
  in
  let bad = { r with Opdw.pdw = { r.Opdw.pdw with Pdwopt.Optimizer.plan = bad_plan } } in
  Engine.Appliance.reset_account app;
  (match Opdw.run ~cache app bad with
   | _ -> Alcotest.fail "corrupt plan passed the appliance gate"
   | exception Check.Invalid _ -> ());
  let s = Opdw.Plancache.stats cache in
  Alcotest.(check int) "rejected plan evicted" 1 s.Opdw.Plancache.evictions_invalid;
  (* the poisoned entry cannot be re-served: the next optimize is a miss *)
  ignore (Opdw.optimize ~cache shell sql);
  let s = Opdw.Plancache.stats cache in
  Alcotest.(check int) "re-optimize misses" 2 s.Opdw.Plancache.misses;
  Alcotest.(check int) "no hit off the poisoned key" 0 s.Opdw.Plancache.hits

(* -- property: a cache hit is indistinguishable from a fresh optimize -- *)

let render (r : Opdw.result) =
  let reg = r.Opdw.memo.Memo.reg in
  let p = Opdw.plan r in
  (Pdwopt.Pplan.to_string reg p,
   Dms.Distprop.to_string reg p.Pdwopt.Pplan.dist,
   Dsql.Generate.to_string r.Opdw.dsql)

let prop_cache_hit_equals_fresh =
  QCheck.Test.make ~name:"plan-cache hit == fresh optimization" ~count:20
    Test_fuzz.arb_query
    (fun q ->
       let w = Lazy.force w in
       let shell = w.Opdw.Workload.shell in
       let cache = Opdw.cache () in
       let cold = Opdw.optimize ~cache shell q.Test_fuzz.sql in
       let hit = Opdw.optimize ~cache shell q.Test_fuzz.sql in
       let fresh = Opdw.optimize shell q.Test_fuzz.sql in
       let s = Opdw.Plancache.stats cache in
       if s.Opdw.Plancache.hits <> 1 || s.Opdw.Plancache.misses <> 1 then
         QCheck.Test.fail_report ("unexpected hit/miss counts: " ^ q.Test_fuzz.sql);
       if render cold <> render hit then
         QCheck.Test.fail_report ("hit differs from cold: " ^ q.Test_fuzz.sql);
       if render hit <> render fresh then
         QCheck.Test.fail_report ("hit differs from fresh: " ^ q.Test_fuzz.sql);
       true)

(* -- property: the multicore appliance matches sequential execution -- *)

let prop_parallel_execution_identical =
  QCheck.Test.make
    ~name:"appliance jobs=4 == jobs=1 (rows, sim time, byte accounting)"
    ~count:20 Test_fuzz.arb_query
    (fun q ->
       let w = Lazy.force w in
       let app = w.Opdw.Workload.app in
       let r = Opdw.optimize w.Opdw.Workload.shell q.Test_fuzz.sql in
       let cols = List.map snd (Opdw.output_columns r) in
       let run_with pool =
         Engine.Appliance.set_pool app pool;
         Engine.Appliance.reset_account app;
         let res = Opdw.run app r in
         let a = app.Engine.Appliance.account in
         (Engine.Local.canonical ~cols res, a.Engine.Appliance.sim_time,
          a.Engine.Appliance.bytes_moved, a.Engine.Appliance.rows_moved)
       in
       let seq = run_with Par.sequential in
       let pool = Par.create ~jobs:4 () in
       let par =
         Fun.protect
           ~finally:(fun () ->
               Par.shutdown pool;
               Engine.Appliance.set_pool app Par.sequential)
           (fun () -> run_with pool)
       in
       if seq <> par then
         QCheck.Test.fail_report ("parallel execution diverged: " ^ q.Test_fuzz.sql);
       true)

(* literals that print alike must not share a plan: [0.04999999] and
   [0.05] both render as 0.05 under %g, and [2] and [2.0] both as 2. Served
   through one cache, each statement keys apart and returns the rows a
   cache-less compile returns. *)
let test_literals_key_apart () =
  let wl = Opdw.Workload.tpch ~node_count:4 ~sf:0.002 () in
  let shell = wl.Opdw.Workload.shell and app = wl.Opdw.Workload.app in
  let cache = Opdw.cache () in
  let serve ?cache sql =
    let r = Opdw.optimize ?cache shell sql in
    (r.Opdw.fingerprint, Engine.Local.canonical (Opdw.run app r))
  in
  let discount lit = "SELECT COUNT(*) FROM lineitem WHERE l_discount > " ^ lit in
  let near, near_rows = serve ~cache (discount "0.04999999") in
  let at, at_rows = serve ~cache (discount "0.05") in
  Alcotest.(check bool) "0.04999999 and 0.05 key apart" false (near = at);
  Alcotest.(check (list string)) "0.04999999: fresh rows"
    (snd (serve (discount "0.04999999"))) near_rows;
  Alcotest.(check (list string)) "0.05: fresh rows" (snd (serve (discount "0.05"))) at_rows;
  Alcotest.(check (list string)) "0.04999999 counts 6526" [ "6526" ] near_rows;
  Alcotest.(check (list string)) "0.05 counts 5469" [ "5469" ] at_rows;
  let quantity lit = "SELECT COUNT(*) FROM lineitem WHERE l_quantity > " ^ lit in
  Alcotest.(check bool) "2 and 2.0 key apart" false
    (fst (serve ~cache (quantity "2")) = fst (serve ~cache (quantity "2.0")))

let suite =
  [ Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction;
    Alcotest.test_case "add refreshes existing key" `Quick test_add_refresh;
    Alcotest.test_case "fingerprint sensitivity" `Quick test_fingerprint_sensitivity;
    Alcotest.test_case "every option field re-keys" `Quick test_every_option_rekeys;
    Alcotest.test_case "every catalog change re-keys" `Quick test_catalog_changes_rekey;
    Alcotest.test_case "independent equal workloads key equal" `Quick
      test_independent_workloads_key_equal;
    Alcotest.test_case "hit/miss counters" `Quick test_cache_hit_counters;
    Alcotest.test_case "remove_invalid evicts and counts" `Quick test_remove_invalid;
    Alcotest.test_case "appliance rejection evicts the cache entry" `Quick
      test_run_rejection_evicts;
    QCheck_alcotest.to_alcotest prop_cache_hit_equals_fresh;
    QCheck_alcotest.to_alcotest prop_parallel_execution_identical;
    Alcotest.test_case "literals that print alike key apart" `Quick
      test_literals_key_apart ]
