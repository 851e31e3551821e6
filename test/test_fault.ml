(* The fault-injection plane and the engine's recovery layer. The core
   invariant under test: for any fault plan that does not exhaust a retry
   or replan budget, the recovered run returns rows identical to the
   fault-free run — and when a budget IS exhausted the statement fails
   with a structured [Fault.Exhausted], never with wrong rows. Draws are
   pure hashes of (seed, site, epoch, step, node, attempt), so the fault
   pattern — and the simulated clock — must reproduce exactly at any
   [--jobs] setting. *)

let t name f = Alcotest.test_case name `Quick f

(* a dedicated workload: chaos runs decommission nodes and swap fault
   plans, which must never disturb the shared fixture appliance *)
let w = lazy (Opdw.Workload.tpch ~node_count:4 ~sf:0.001 ())

let join_sql =
  "SELECT c_custkey, o_orderdate FROM orders, customer WHERE o_custkey = c_custkey"

(* fault-free oracle: canonical rows + simulated seconds *)
let fault_free ?options sql =
  let wl = Lazy.force w in
  let app = wl.Opdw.Workload.app in
  Engine.Appliance.set_fault app Fault.none;
  Engine.Appliance.reset_account app;
  let r = Opdw.optimize ?options wl.Opdw.Workload.shell sql in
  let res = Opdw.run app r in
  let cols = List.map snd (Opdw.output_columns r) in
  (Engine.Local.canonical ~cols res,
   app.Engine.Appliance.account.Engine.Appliance.sim_time)

(* one statement through the chaos driver; always restores the shared
   appliance to a clean fault-free state afterwards *)
let chaos ?cache fault sql =
  let wl = Lazy.force w in
  let app = wl.Opdw.Workload.app in
  Fun.protect
    ~finally:(fun () ->
        Engine.Appliance.set_fault app Fault.none;
        Engine.Appliance.reset_account app)
  @@ fun () ->
  Engine.Appliance.reset_account app;
  let ctx = Topology.Elastic.create ?cache ~fault wl.Opdw.Workload.shell app in
  let r, res = Topology.Elastic.run ctx sql in
  let cols = List.map snd (Opdw.output_columns r) in
  (* snapshot the account: the finally above resets the live record *)
  let a = (Topology.Elastic.app ctx).Engine.Appliance.account in
  let acct = { a with Engine.Appliance.injected = a.Engine.Appliance.injected } in
  (Engine.Local.canonical ~cols res, acct, Opdw.Driver.nodes ctx)

(* -- the pure plane: names, backoff, schedules, draws -- *)

let test_site_names () =
  List.iter
    (fun s ->
       Alcotest.(check bool)
         ("round-trip " ^ Fault.site_name s)
         true
         (Fault.site_of_name (Fault.site_name s) = Some s))
    Fault.all_sites;
  Alcotest.(check bool) "unknown site" true (Fault.site_of_name "nope" = None)

let test_backoff () =
  let p = { Fault.retries = 4; backoff_base = 0.05; backoff_mult = 2.0 } in
  Alcotest.(check (float 1e-12)) "retry 1" 0.05 (Fault.backoff p 1);
  Alcotest.(check (float 1e-12)) "retry 2" 0.1 (Fault.backoff p 2);
  Alcotest.(check (float 1e-12)) "retry 3" 0.2 (Fault.backoff p 3)

let test_schedule_parse () =
  let evs =
    Fault.parse_schedule
      "# transient on the second step, then a crash\n\
       site=dms_transfer step=2 attempt=1\n\
       \n\
       site=node_crash step=0 node=1 epoch=0\n\
       site=straggler step=1 factor=8.0\n"
  in
  (match evs with
   | [ a; b; c ] ->
     Alcotest.(check bool) "site a" true (a.Fault.e_site = Fault.Dms_transfer);
     Alcotest.(check int) "step a" 2 a.Fault.e_step;
     Alcotest.(check int) "attempt a" 1 a.Fault.e_attempt;
     Alcotest.(check bool) "node a any" true (a.Fault.e_node = None);
     Alcotest.(check bool) "site b" true (b.Fault.e_site = Fault.Node_crash);
     Alcotest.(check bool) "node b" true (b.Fault.e_node = Some 1);
     Alcotest.(check (float 1e-12)) "factor c" 8.0 c.Fault.e_factor
   | _ -> Alcotest.fail "expected 3 events");
  let rejects what text =
    match Fault.parse_schedule text with
    | _ -> Alcotest.fail ("accepted " ^ what)
    | exception Fault.Schedule_error _ -> ()
  in
  rejects "missing step" "site=dms_transfer";
  rejects "missing site" "step=3";
  rejects "unknown site" "site=disk_melt step=0";
  rejects "unknown field" "site=temp_write step=0 color=red";
  rejects "bad int" "site=temp_write step=abc";
  (* the error names the offending line and quotes its raw text *)
  (match
     Fault.parse_schedule "site=dms_transfer step=1\nsite=disk_melt step=0\n"
   with
   | _ -> Alcotest.fail "accepted unknown site"
   | exception Fault.Schedule_error msg ->
     let contains needle =
       Alcotest.(check bool)
         (Printf.sprintf "%S mentions %S" msg needle)
         true
         (let nl = String.length needle and ml = String.length msg in
          let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
          go 0)
     in
     contains "line 2";
     contains "site=disk_melt step=0")

let test_schedule_fires () =
  let plan = Fault.schedule [ Fault.event Fault.Dms_transfer 2 ] in
  let fires ~site ~step ~node ~attempt =
    Fault.fires plan ~site ~epoch:0 ~step ~node ~attempt
  in
  Alcotest.(check bool) "matching point" true
    (fires ~site:Fault.Dms_transfer ~step:2 ~node:(-1) ~attempt:0);
  Alcotest.(check bool) "any node matches" true
    (fires ~site:Fault.Dms_transfer ~step:2 ~node:3 ~attempt:0);
  Alcotest.(check bool) "wrong attempt" false
    (fires ~site:Fault.Dms_transfer ~step:2 ~node:(-1) ~attempt:1);
  Alcotest.(check bool) "wrong step" false
    (fires ~site:Fault.Dms_transfer ~step:1 ~node:(-1) ~attempt:0);
  Alcotest.(check bool) "wrong site" false
    (fires ~site:Fault.Temp_write ~step:2 ~node:(-1) ~attempt:0);
  let pinned = Fault.schedule [ Fault.event ~node:1 Fault.Node_crash 0 ] in
  Alcotest.(check bool) "pinned node hits" true
    (Fault.fires pinned ~site:Fault.Node_crash ~epoch:0 ~step:0 ~node:1 ~attempt:0);
  Alcotest.(check bool) "pinned node misses others" false
    (Fault.fires pinned ~site:Fault.Node_crash ~epoch:0 ~step:0 ~node:0 ~attempt:0)

let test_seeded_draws_pure () =
  let plan = Fault.seeded ~seed:42 ~rate:0.5 () in
  let grid p =
    List.concat_map
      (fun site ->
         List.concat_map
           (fun step ->
              List.map
                (fun node ->
                   Fault.fires p ~site ~epoch:0 ~step ~node ~attempt:0)
                [ -1; 0; 1; 2; 3 ])
           [ 0; 1; 2; 3; 4; 5 ])
      Fault.all_sites
  in
  Alcotest.(check (list bool)) "same seed, same pattern" (grid plan) (grid plan);
  let other = Fault.seeded ~seed:43 ~rate:0.5 () in
  Alcotest.(check bool) "different seed, different pattern" false
    (grid plan = grid other);
  Alcotest.(check bool) "rate 0 never fires" true
    (List.for_all not (grid (Fault.seeded ~seed:42 ~rate:0. ())))

(* -- recovery: transient faults retry and converge on the same rows -- *)

(* events for every recoverable transient site at every step, attempt 0
   only: each injectable step fails exactly once, then its retry runs
   clean — the strongest "retries are idempotent" probe *)
let first_attempt_storm =
  Fault.schedule
    (List.concat_map
       (fun step ->
          [ Fault.event Fault.Dms_transfer step;
            Fault.event Fault.Temp_write step;
            Fault.event Fault.Control_transient step ])
       (List.init 12 Fun.id))

let test_transient_recovery () =
  let base_rows, base_sim = fault_free join_sql in
  let rows, acct, nodes = chaos first_attempt_storm join_sql in
  Alcotest.(check (list string)) "rows identical after recovery" base_rows rows;
  Alcotest.(check int) "no node lost" 4 nodes;
  Alcotest.(check bool) "faults fired" true (acct.Engine.Appliance.injected > 0);
  Alcotest.(check int) "every failure retried"
    acct.Engine.Appliance.injected acct.Engine.Appliance.retries;
  Alcotest.(check int) "every step recovered"
    acct.Engine.Appliance.injected acct.Engine.Appliance.recovered;
  Alcotest.(check bool) "backoff charged" true
    (acct.Engine.Appliance.backoff_time > 0.);
  Alcotest.(check bool) "retries slow the simulated clock" true
    (acct.Engine.Appliance.sim_time > base_sim)

let test_budget_exhaustion () =
  (* the same fault at every attempt: the step can never succeed *)
  let persistent =
    Fault.schedule
      (List.concat_map
         (fun step ->
            List.map
              (fun attempt -> Fault.event ~attempt Fault.Temp_write step)
              (List.init 10 Fun.id))
         (List.init 12 Fun.id))
  in
  match chaos persistent join_sql with
  | _ -> Alcotest.fail "persistent fault should exhaust the retry budget"
  | exception Fault.Exhausted { failure; attempts } ->
    Alcotest.(check bool) "failure names the site" true
      (failure.Fault.site = Fault.Temp_write);
    Alcotest.(check int) "budget spent: retries + first attempt"
      (Fault.default_policy.Fault.retries + 1) attempts

let test_node_crash_replans () =
  let base_rows, _ = fault_free join_sql in
  let crash = Fault.schedule [ Fault.event ~node:1 Fault.Node_crash 0 ] in
  let rows, acct, nodes = chaos crash join_sql in
  Alcotest.(check int) "one node decommissioned" 3 nodes;
  Alcotest.(check int) "one replan" 1 acct.Engine.Appliance.replans;
  Alcotest.(check (list string)) "rows identical on 3 nodes" base_rows rows

(* the policies compose on one driver: with the plan store attached and
   a seeded fault plan that crashes nodes, every statement still returns
   the fault-free rows and leaves exactly one log record *)
let test_store_and_replan_compose () =
  let stmts = [ "Q3"; "Q5"; "Q10"; "Q3" ] in
  let sql id = (Option.get (Tpch.Queries.find id)).Tpch.Queries.sql in
  let expected = List.map (fun id -> fst (fault_free (sql id))) stmts in
  let wl = Opdw.Workload.tpch ~node_count:4 ~sf:0.001 () in
  let d =
    Opdw.Driver.create ~regress_factor:1.2 ~fault:(Fault.seeded ~seed:2 ~rate:0.1 ())
      wl.Opdw.Workload.shell wl.Opdw.Workload.app
  in
  List.iteri
    (fun i id ->
       let s = Opdw.Driver.returned (Opdw.Driver.run d (sql id)) in
       let cols = List.map snd (Opdw.output_columns s.Opdw.Driver.res) in
       Alcotest.(check (list string)) (id ^ ": fault-free rows") (List.nth expected i)
         (Engine.Local.canonical ~cols s.Opdw.Driver.rows);
       Alcotest.(check int) (id ^ ": one log record per statement") (i + 1)
         (Opdw.Feedback.Log.length (Opdw.Driver.log d)))
    stmts;
  Alcotest.(check bool) "at least one replan" true
    ((Opdw.Driver.app d).Engine.Appliance.account.Engine.Appliance.replans >= 1)

let test_straggler_inflates_clock () =
  let base_rows, base_sim = fault_free join_sql in
  let slow = Fault.schedule [ Fault.event ~factor:32.0 Fault.Straggler 0 ] in
  let rows, acct, _ = chaos slow join_sql in
  Alcotest.(check (list string)) "rows unaffected" base_rows rows;
  Alcotest.(check bool) "straggler counted" true
    (acct.Engine.Appliance.injected > 0);
  Alcotest.(check int) "no retries for a slow node" 0
    acct.Engine.Appliance.retries;
  Alcotest.(check bool) "simulated time inflated" true
    (acct.Engine.Appliance.sim_time > base_sim)

let test_reset_account_uniform () =
  let wl = Lazy.force w in
  let a = wl.Opdw.Workload.app.Engine.Appliance.account in
  a.Engine.Appliance.injected <- 3;
  a.Engine.Appliance.retries <- 2;
  a.Engine.Appliance.recovered <- 2;
  a.Engine.Appliance.replans <- 1;
  a.Engine.Appliance.backoff_time <- 0.7;
  a.Engine.Appliance.sim_time <- 9.9;
  Engine.Appliance.reset_account wl.Opdw.Workload.app;
  Alcotest.(check int) "injected" 0 a.Engine.Appliance.injected;
  Alcotest.(check int) "retries" 0 a.Engine.Appliance.retries;
  Alcotest.(check int) "recovered" 0 a.Engine.Appliance.recovered;
  Alcotest.(check int) "replans" 0 a.Engine.Appliance.replans;
  Alcotest.(check (float 0.)) "backoff_time" 0. a.Engine.Appliance.backoff_time;
  Alcotest.(check (float 0.)) "sim_time" 0. a.Engine.Appliance.sim_time

(* -- the DSQL interpreter drops half-written temps before retrying -- *)

let test_dsql_exec_recovers () =
  let wl = Lazy.force w in
  let app = wl.Opdw.Workload.app in
  let r = Opdw.optimize wl.Opdw.Workload.shell join_sql in
  let clean_run fault =
    Fun.protect
      ~finally:(fun () ->
          Engine.Appliance.set_fault app Fault.none;
          Engine.Appliance.reset_account app)
    @@ fun () ->
    Engine.Appliance.set_fault app fault;
    Engine.Appliance.reset_account app;
    Engine.Local.canonical (Engine.Dsql_exec.run app r.Opdw.dsql)
  in
  let base = clean_run Fault.none in
  let faulty = clean_run first_attempt_storm in
  Alcotest.(check (list string)) "dsql rows identical after recovery" base faulty

(* -- determinism: fixed seed reproduces the run at any jobs setting -- *)

let test_seeded_determinism_across_jobs () =
  let wl = Lazy.force w in
  let app = wl.Opdw.Workload.app in
  let fault = Fault.seeded ~seed:5 ~rate:0.2 () in
  let run_at jobs =
    Par.with_pool ~jobs @@ fun pool ->
    Fun.protect
      ~finally:(fun () -> Engine.Appliance.set_pool app Par.sequential)
    @@ fun () ->
    Engine.Appliance.set_pool app pool;
    let rows, acct, nodes = chaos fault join_sql in
    (rows, acct.Engine.Appliance.sim_time, acct.Engine.Appliance.bytes_moved,
     acct.Engine.Appliance.injected, acct.Engine.Appliance.retries,
     acct.Engine.Appliance.recovered, acct.Engine.Appliance.replans, nodes)
  in
  let seq = run_at 1 and par = run_at 4 in
  Alcotest.(check bool)
    "jobs=1 == jobs=4 (rows, sim clock, bytes, fault counters)" true
    (seq = par)

(* -- property: random schedules either recover to identical rows or
      fail with Exhausted — never wrong rows -- *)

let arb_schedule =
  let open QCheck in
  let gen =
    Gen.(
      list_size (int_range 1 10)
        (let* site = oneofl Fault.all_sites in
         let* step = int_range 0 6 in
         let* attempt = int_range 0 2 in
         let* node = opt (int_range 0 3) in
         let* factor = float_range 2. 8. in
         return (Fault.event ?node ~attempt ~factor site step)))
  in
  let print evs =
    String.concat "; "
      (List.map
         (fun e ->
            Printf.sprintf "%s step=%d att=%d node=%s"
              (Fault.site_name e.Fault.e_site) e.Fault.e_step e.Fault.e_attempt
              (match e.Fault.e_node with None -> "*" | Some n -> string_of_int n))
         evs)
  in
  QCheck.make ~print gen

let prop_random_schedule_never_wrong =
  QCheck.Test.make ~name:"random schedule: identical rows or Exhausted, never wrong"
    ~count:30 arb_schedule
    (fun evs ->
       let base_rows, _ = fault_free join_sql in
       match chaos (Fault.schedule evs) join_sql with
       | rows, _, _ ->
         if rows <> base_rows then
           QCheck.Test.fail_report "recovered run returned different rows";
         true
       | exception Fault.Exhausted _ -> true)

(* -- acceptance: every bundled query, three seeds, identical rows -- *)

let test_all_queries_under_seeds () =
  let cache = Opdw.cache () in
  List.iter
    (fun (q : Tpch.Queries.t) ->
       let base_rows, _ = fault_free q.Tpch.Queries.sql in
       List.iter
         (fun seed ->
            let rows, _, _ =
              chaos ~cache (Fault.seeded ~seed ~rate:0.05 ()) q.Tpch.Queries.sql
            in
            Alcotest.(check (list string))
              (Printf.sprintf "%s seed %d" q.Tpch.Queries.id seed)
              base_rows rows)
         [ 11; 12; 13 ])
    Tpch.Queries.all

let suite =
  [ t "site names round-trip" test_site_names;
    t "backoff schedule" test_backoff;
    t "schedule parser" test_schedule_parse;
    t "schedule-driven fires" test_schedule_fires;
    t "seeded draws are pure" test_seeded_draws_pure;
    t "transient faults retry to identical rows" test_transient_recovery;
    t "persistent fault exhausts the budget" test_budget_exhaustion;
    t "node crash replans onto N-1 nodes" test_node_crash_replans;
    t "straggler inflates the clock only" test_straggler_inflates_clock;
    t "reset_account zeroes fault counters" test_reset_account_uniform;
    t "dsql interpreter recovers temp writes" test_dsql_exec_recovers;
    t "fixed seed reproduces at jobs 1 and 4" test_seeded_determinism_across_jobs;
    QCheck_alcotest.to_alcotest prop_random_schedule_never_wrong;
    t "all bundled queries x 3 seeds" test_all_queries_under_seeds;
    t "plan store and crash replans compose" test_store_and_replan_compose ]
