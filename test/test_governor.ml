(* The resource governor. The core invariant under test: under any
   deadline, cancel point, memo budget, admission pressure or breaker
   state, a statement comes back as correct rows, a Degraded-tagged but
   check-valid plan's correct rows, or a structured refusal
   (Rejected/Shed/Timed_out/Exhausted) — never wrong rows, never an
   unexplained exception, never a leaked gate slot. Simulated-clock
   deadlines must reproduce bit-identically at any [--jobs]. *)

let t name f = Alcotest.test_case name `Quick f

(* a dedicated workload: governed runs poke pools and the simulated
   clock, which must never disturb other suites' fixtures *)
let w = lazy (Opdw.Workload.tpch ~node_count:4 ~sf:0.001 ())

let join_sql =
  "SELECT c_custkey, o_orderdate FROM orders, customer WHERE o_custkey = c_custkey"

(* full-budget, ungoverned, fault-free oracle rows *)
let oracle sql =
  let wl = Lazy.force w in
  let app = wl.Opdw.Workload.app in
  Engine.Appliance.reset_account app;
  let r = Opdw.optimize wl.Opdw.Workload.shell sql in
  let res = Opdw.run app r in
  Engine.Local.canonical ~cols:(List.map snd (Opdw.output_columns r)) res

let canonical r res =
  Engine.Local.canonical ~cols:(List.map snd (Opdw.output_columns r)) res

let limits_with ?deadline ?sim_deadline ?max_memo_groups () =
  { Governor.deadline; sim_deadline; max_memo_groups }

let options_with limits =
  { (Opdw.default_options ~node_count:4) with Opdw.governor = limits }

(* -- the token -- *)

let test_token_basics () =
  Alcotest.(check bool) "none never stops" false (Governor.should_stop Governor.none);
  Governor.cancel Governor.none;
  Governor.poll Governor.none;
  Alcotest.(check bool) "none stays inert" true (Governor.state Governor.none = None);
  let now = ref 0.0 in
  let clock () = !now in
  let tk = Governor.create () in
  Alcotest.(check bool) "fresh token live" true (Governor.state tk = None);
  Governor.add_deadline tk ~clock ~deadline:5.0;
  Alcotest.(check bool) "before deadline" true (Governor.state tk = None);
  Governor.poll tk;
  now := 5.0;
  Alcotest.(check bool) "at deadline" true
    (Governor.state tk = Some Governor.Deadline);
  Alcotest.(check bool) "should_stop trips" true (Governor.should_stop tk);
  (match Governor.poll ~where:"test.site" tk with
   | () -> Alcotest.fail "expected Cancelled"
   | exception Governor.Cancelled { reason; where } ->
     Alcotest.(check bool) "reason is deadline" true (reason = Governor.Deadline);
     Alcotest.(check string) "where names the site" "test.site" where);
  Governor.cancel tk;
  Alcotest.(check bool) "explicit cancel wins over deadline" true
    (Governor.state tk = Some Governor.Cancel)

let test_token_multiple_clocks () =
  (* one token, two deadlines on distinct clocks: whichever clock trips
     first cancels the statement (wall for compile, sim for exec) *)
  let wall = ref 0.0 and sim = ref 0.0 in
  let tk = Governor.create () in
  Governor.add_deadline tk ~clock:(fun () -> !wall) ~deadline:100.0;
  Governor.add_deadline tk ~clock:(fun () -> !sim) ~deadline:1.0;
  Alcotest.(check bool) "both armed, both live" true (Governor.state tk = None);
  sim := 2.0;
  Alcotest.(check bool) "second clock trips alone" true
    (Governor.state tk = Some Governor.Deadline)

(* -- the admission gate -- *)

let test_gate_overflow () =
  let g = Governor.Gate.create ~max_concurrent:1 ~queue_limit:0 () in
  let r = Governor.Gate.admit g (fun () -> Governor.Gate.try_admit g (fun () -> ())) in
  (match r with
   | Error rj ->
     Alcotest.(check int) "running at rejection" 1 rj.Governor.Gate.running;
     Alcotest.(check int) "queued at rejection" 0 rj.Governor.Gate.queued;
     Alcotest.(check int) "limit reported" 0 rj.Governor.Gate.queue_limit
   | Ok () -> Alcotest.fail "overflow must reject");
  (match Governor.Gate.admit g (fun () -> Governor.Gate.admit g (fun () -> ())) with
   | () -> Alcotest.fail "raising flavor must raise Rejected"
   | exception Governor.Gate.Rejected _ -> ());
  let st = Governor.Gate.stats g in
  Alcotest.(check int) "both rejections counted" 2 st.Governor.Gate.rejected;
  Alcotest.(check int) "slots all released" 0 (Governor.Gate.running g)

let test_gate_fifo () =
  let g = Governor.Gate.create ~max_concurrent:1 ~queue_limit:8 () in
  let order = ref [] in
  let order_mu = Mutex.create () in
  let release = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        Governor.Gate.admit g (fun () ->
            while not (Atomic.get release) do Domain.cpu_relax () done))
  in
  while Governor.Gate.running g < 1 do Domain.cpu_relax () done;
  (* enqueue one at a time: each worker is observed queued (owns its FIFO
     ticket) before the next spawns, so arrival order is deterministic *)
  let workers =
    List.map
      (fun i ->
         let before = Governor.Gate.queued g in
         let d =
           Domain.spawn (fun () ->
               Governor.Gate.admit g (fun () ->
                   Mutex.lock order_mu;
                   order := i :: !order;
                   Mutex.unlock order_mu))
         in
         while Governor.Gate.queued g <= before do Domain.cpu_relax () done;
         d)
      [ 0; 1; 2; 3 ]
  in
  Atomic.set release true;
  Domain.join holder;
  List.iter Domain.join workers;
  Alcotest.(check (list int)) "served in arrival order" [ 0; 1; 2; 3 ]
    (List.rev !order);
  Alcotest.(check int) "no slot leaked" 0 (Governor.Gate.running g);
  let st = Governor.Gate.stats g in
  Alcotest.(check int) "all admitted" 5 st.Governor.Gate.admitted;
  Alcotest.(check int) "four had to wait" 4 st.Governor.Gate.queued_total;
  Alcotest.(check int) "width never exceeded" 1 st.Governor.Gate.peak_running

let test_gate_releases_on_raise () =
  (* the leak audit: raising bodies, many times over, must leave the gate
     exactly as they found it *)
  let g = Governor.Gate.create ~max_concurrent:2 ~queue_limit:0 () in
  for _ = 1 to 50 do
    (match Governor.Gate.admit g (fun () -> raise Exit) with
     | _ -> Alcotest.fail "body's exception must propagate"
     | exception Exit -> ());
    (match Governor.Gate.try_admit g (fun () -> failwith "boom") with
     | Ok _ | Error _ -> Alcotest.fail "body's exception must propagate"
     | exception Failure _ -> ())
  done;
  Alcotest.(check int) "no slot leaked" 0 (Governor.Gate.running g);
  Alcotest.(check int) "nothing queued" 0 (Governor.Gate.queued g);
  Alcotest.(check int) "gate still serves" 7 (Governor.Gate.admit g (fun () -> 7))

(* -- the circuit breaker -- *)

let test_breaker_transitions () =
  let now = ref 0.0 in
  let b =
    Governor.Breaker.create ~threshold:2 ~cooldown:10.0 ~clock:(fun () -> !now) ()
  in
  let key = "select 1" in
  Alcotest.(check bool) "closed proceeds" true
    (Governor.Breaker.check b key = `Proceed);
  Governor.Breaker.failure b key;
  Alcotest.(check bool) "one failure: still closed" true
    (Governor.Breaker.state b key = Governor.Breaker.Closed);
  Governor.Breaker.failure b key;
  Alcotest.(check bool) "threshold trips open" true
    (Governor.Breaker.state b key = Governor.Breaker.Open);
  (match Governor.Breaker.check b key with
   | `Shed remaining ->
     Alcotest.(check (float 1e-9)) "full cooldown remaining" 10.0 remaining
   | `Proceed -> Alcotest.fail "open breaker proceeded");
  Alcotest.(check bool) "other keys unaffected" true
    (Governor.Breaker.check b "select 2" = `Proceed);
  now := 11.0;
  Alcotest.(check bool) "cooldown over: half-open probe" true
    (Governor.Breaker.check b key = `Proceed);
  Alcotest.(check bool) "half-open state" true
    (Governor.Breaker.state b key = Governor.Breaker.Half_open);
  (match Governor.Breaker.check b key with
   | `Shed r -> Alcotest.(check (float 1e-9)) "probe in flight: shed 0" 0.0 r
   | `Proceed -> Alcotest.fail "two concurrent probes");
  Governor.Breaker.success b key;
  Alcotest.(check bool) "probe success closes" true
    (Governor.Breaker.state b key = Governor.Breaker.Closed);
  Governor.Breaker.failure b key;
  Governor.Breaker.failure b key;
  now := 22.0;
  Alcotest.(check bool) "second probe" true (Governor.Breaker.check b key = `Proceed);
  Governor.Breaker.failure b key;
  Alcotest.(check bool) "probe failure re-opens" true
    (Governor.Breaker.state b key = Governor.Breaker.Open);
  let st = Governor.Breaker.stats b in
  Alcotest.(check int) "trips" 3 st.Governor.Breaker.trips;
  Alcotest.(check int) "sheds" 2 st.Governor.Breaker.shed;
  Alcotest.(check int) "probes" 2 st.Governor.Breaker.probes;
  Alcotest.(check int) "closes" 1 st.Governor.Breaker.closes;
  let off = Governor.Breaker.create ~threshold:0 ~cooldown:1.0 ~clock:(fun () -> !now) () in
  Governor.Breaker.failure off key;
  Governor.Breaker.failure off key;
  Governor.Breaker.failure off key;
  Alcotest.(check bool) "threshold 0 disables" true
    (Governor.Breaker.check off key = `Proceed)

(* -- anytime and fallback degradation -- *)

let test_anytime_memo_budget () =
  let base = oracle join_sql in
  let wl = Lazy.force w in
  let app = wl.Opdw.Workload.app in
  let options = options_with (limits_with ~max_memo_groups:4 ()) in
  (* check:true gates the degraded plan through the full analyzer *)
  let r = Opdw.optimize ~options ~check:true wl.Opdw.Workload.shell join_sql in
  Alcotest.(check bool) "tagged anytime" true (r.Opdw.degraded = Some Opdw.Anytime);
  Alcotest.(check bool) "serial optimizer reports the cut" true
    (r.Opdw.serial.Serialopt.Optimizer.interrupted = Some Governor.Memo_budget);
  Engine.Appliance.reset_account app;
  let res = Opdw.run app r in
  Alcotest.(check (list string)) "anytime rows equal full-budget rows" base
    (canonical r res)

let test_fallback_on_expired_token () =
  let base = oracle join_sql in
  let wl = Lazy.force w in
  let app = wl.Opdw.Workload.app in
  (* a token whose deadline already passed: serial degrades anytime-style,
     the PDW enumeration's poll unwinds, and the baseline plan steps in *)
  let tk = Governor.create () in
  Governor.add_deadline tk ~clock:(fun () -> 1.0) ~deadline:0.5;
  let r = Opdw.optimize ~check:true ~token:tk wl.Opdw.Workload.shell join_sql in
  Alcotest.(check bool) "tagged fallback" true (r.Opdw.degraded = Some Opdw.Fallback);
  Engine.Appliance.reset_account app;
  let res = Opdw.run app r in
  Alcotest.(check (list string)) "fallback rows equal full-budget rows" base
    (canonical r res)

let test_degraded_never_cached () =
  let wl = Lazy.force w in
  let cache = Opdw.cache () in
  let options = options_with (limits_with ~max_memo_groups:4 ()) in
  let r1 = Opdw.optimize ~options ~cache wl.Opdw.Workload.shell join_sql in
  let r2 = Opdw.optimize ~options ~cache wl.Opdw.Workload.shell join_sql in
  Alcotest.(check bool) "first degraded" true (r1.Opdw.degraded = Some Opdw.Anytime);
  Alcotest.(check bool) "second degraded too" true (r2.Opdw.degraded = Some Opdw.Anytime);
  let st = Opdw.Plancache.stats cache in
  Alcotest.(check int) "no hits: degraded never admitted" 0 st.Opdw.Plancache.hits;
  Alcotest.(check int) "both compiles missed" 2 st.Opdw.Plancache.misses;
  Alcotest.(check int) "size stays zero" 0 st.Opdw.Plancache.size;
  Alcotest.(check int) "refusals counted" 2 st.Opdw.Plancache.evictions_degraded;
  (* the same statement at full budget caches normally *)
  let r3 = Opdw.optimize ~cache wl.Opdw.Workload.shell join_sql in
  let r4 = Opdw.optimize ~cache wl.Opdw.Workload.shell join_sql in
  Alcotest.(check bool) "full budget not degraded" true (r3.Opdw.degraded = None);
  Alcotest.(check bool) "r4 intact" true (r4.Opdw.degraded = None);
  let st = Opdw.Plancache.stats cache in
  Alcotest.(check int) "full-budget repeat hits" 1 st.Opdw.Plancache.hits

let test_fingerprint_carries_governor_knobs () =
  let wl = Lazy.force w in
  let shell = wl.Opdw.Workload.shell in
  let opts = Opdw.default_options ~node_count:4 in
  let r = Opdw.optimize ~check:false shell join_sql in
  let fp governor =
    Opdw.Plancache.fingerprint ~shell { opts with Opdw.governor } r.Opdw.normalized
  in
  let base = fp Governor.no_limits in
  Alcotest.(check bool) "deadline re-keys" true
    (base <> fp (limits_with ~deadline:0.25 ()));
  Alcotest.(check bool) "sim deadline re-keys" true
    (base <> fp (limits_with ~sim_deadline:0.25 ()));
  Alcotest.(check bool) "memo budget re-keys" true
    (base <> fp (limits_with ~max_memo_groups:64 ()));
  Alcotest.(check string) "no knobs: stable key" base (fp Governor.no_limits)

(* -- the statement driver's governance policies -- *)

let test_governed_returns_oracle_rows () =
  let base = oracle join_sql in
  let wl = Lazy.force w in
  let gov = Opdw.Driver.create wl.Opdw.Workload.shell wl.Opdw.Workload.app in
  Opdw.Driver.reset gov;
  (match Opdw.Driver.run gov join_sql with
   | Opdw.Driver.Returned { res = r; rows = res; _ } ->
     Alcotest.(check bool) "not degraded" true (r.Opdw.degraded = None);
     Alcotest.(check (list string)) "rows equal oracle" base (canonical r res)
   | oc -> Alcotest.fail (Opdw.Driver.outcome_to_string oc))

let test_governed_sim_deadline_times_out () =
  let wl = Lazy.force w in
  let app = wl.Opdw.Workload.app in
  let options = options_with (limits_with ~sim_deadline:0.0 ()) in
  let gov = Opdw.Driver.create ~options ~breaker_threshold:0 wl.Opdw.Workload.shell app in
  Opdw.Driver.reset gov;
  (match Opdw.Driver.run gov join_sql with
   | Opdw.Driver.Timed_out Governor.Deadline -> ()
   | oc -> Alcotest.fail ("expected timeout, got " ^ Opdw.Driver.outcome_to_string oc));
  (* the interrupt must not poison the appliance: an ungoverned statement
     right after returns correct rows (the engine token was reset) *)
  let base = oracle join_sql in
  Alcotest.(check (list string)) "appliance reusable after timeout" base
    (oracle join_sql);
  ignore base

(* the simulated deadline is a driver policy, not a property of one
   path: with the plan store attached, and under a fault plan with
   node-crash recovery, the statement times out all the same *)
let test_sim_deadline_composes () =
  let wl = Lazy.force w in
  let shell = wl.Opdw.Workload.shell and app = wl.Opdw.Workload.app in
  let options = options_with (limits_with ~sim_deadline:0.0 ()) in
  List.iter
    (fun (name, d) ->
       Opdw.Driver.reset d;
       match Opdw.Driver.run d join_sql with
       | Opdw.Driver.Timed_out Governor.Deadline -> ()
       | oc ->
         Alcotest.fail
           (name ^ ": expected timeout, got " ^ Opdw.Driver.outcome_to_string oc))
    [ ("plan store", Opdw.Driver.create ~options ~plan_store:true shell app);
      ("fault plan + replan", Opdw.Driver.create ~options ~fault:Fault.none shell app) ]

let test_governed_breaker_end_to_end () =
  let base = oracle join_sql in
  let wl = Lazy.force w in
  let app = wl.Opdw.Workload.app in
  (* the same fault at every attempt of replan epoch 0: execution on the
     appliance as loaded can never succeed *)
  let persistent =
    Fault.schedule
      (List.concat_map
         (fun step ->
            List.map
              (fun attempt -> Fault.event ~attempt Fault.Temp_write step)
              (List.init 10 Fun.id))
         (List.init 12 Fun.id))
  in
  let gov =
    Opdw.Driver.create ~breaker_threshold:2 ~breaker_cooldown:0.5 ~fault:persistent
      wl.Opdw.Workload.shell app
  in
  Opdw.Driver.reset gov;
  let expect_exhausted () =
    match Opdw.Driver.run gov join_sql with
    | Opdw.Driver.Exhausted { attempts; _ } ->
      Alcotest.(check int) "budget spent: retries + first attempt"
        (Fault.retries + 1) attempts
    | oc -> Alcotest.fail ("expected exhaustion, got " ^ Opdw.Driver.outcome_to_string oc)
  in
  expect_exhausted ();
  expect_exhausted ();
  (* two hard failures: the breaker is open, the third run is shed *)
  (match Opdw.Driver.run gov join_sql with
   | Opdw.Driver.Shed { retry_after } ->
     Alcotest.(check bool) "cooldown reported" true (retry_after > 0.)
   | oc -> Alcotest.fail ("expected shed, got " ^ Opdw.Driver.outcome_to_string oc));
  (* serve from a moved appliance (a committed re-key is replan epoch 1,
     where the schedule never fires) and charge the cooldown to its
     simulated clock: the half-open probe runs, succeeds, and closes the
     breaker *)
  let moved = Engine.Appliance.(complete app (Rekey { table = "orders"; cols = [ "o_custkey" ] })) in
  Opdw.Driver.install gov moved;
  let acct = moved.Engine.Appliance.account in
  acct.Engine.Appliance.sim_time <- acct.Engine.Appliance.sim_time +. 1.0;
  (match Opdw.Driver.run gov join_sql with
   | Opdw.Driver.Returned { res = r; rows = res; _ } ->
     Alcotest.(check (list string)) "probe returns oracle rows" base (canonical r res)
   | oc -> Alcotest.fail ("expected probe success, got " ^ Opdw.Driver.outcome_to_string oc));
  let bs = Governor.Breaker.stats (Opdw.Driver.breaker gov) in
  Alcotest.(check int) "one trip" 1 bs.Governor.Breaker.trips;
  Alcotest.(check int) "one shed" 1 bs.Governor.Breaker.shed;
  Alcotest.(check int) "one probe" 1 bs.Governor.Breaker.probes;
  Alcotest.(check int) "probe closed the breaker" 1 bs.Governor.Breaker.closes;
  Engine.Appliance.reset_account app

let test_governed_reset_uniform () =
  (* the one shared reset path: account plus gate/breaker counters zero
     together, so --repeat and the bench report per-iteration numbers *)
  let wl = Lazy.force w in
  let gov = Opdw.Driver.create wl.Opdw.Workload.shell wl.Opdw.Workload.app in
  Opdw.Driver.reset gov;
  (match Opdw.Driver.run gov join_sql with
   | Opdw.Driver.Returned _ -> ()
   | oc -> Alcotest.fail (Opdw.Driver.outcome_to_string oc));
  let app = Opdw.Driver.app gov in
  Alcotest.(check bool) "clock advanced" true
    (app.Engine.Appliance.account.Engine.Appliance.sim_time > 0.);
  Alcotest.(check int) "one admitted" 1
    (Governor.Gate.stats (Opdw.Driver.gate gov)).Governor.Gate.admitted;
  Opdw.Driver.reset gov;
  Alcotest.(check (float 0.)) "sim clock zeroed" 0.
    app.Engine.Appliance.account.Engine.Appliance.sim_time;
  Alcotest.(check int) "gate stats zeroed" 0
    (Governor.Gate.stats (Opdw.Driver.gate gov)).Governor.Gate.admitted;
  Alcotest.(check int) "breaker stats zeroed" 0
    (Governor.Breaker.stats (Opdw.Driver.breaker gov)).Governor.Breaker.trips

(* -- determinism across jobs -- *)

let test_sim_deadline_determinism_across_jobs () =
  (* a mid-execution simulated deadline: the engine polls the token only
     in the caller domain, so the trip point — and the simulated clock —
     must reproduce exactly at any domain count *)
  let wl = Lazy.force w in
  let app = wl.Opdw.Workload.app in
  let snapshot jobs =
    Par.with_pool ~jobs @@ fun pool ->
    Fun.protect
      ~finally:(fun () -> Engine.Appliance.set_pool app Par.sequential)
    @@ fun () ->
    Engine.Appliance.set_pool app pool;
    List.map
      (fun sim_deadline ->
         let options = options_with (limits_with ~sim_deadline ()) in
         let gov =
           Opdw.Driver.create ~options ~breaker_threshold:0
             wl.Opdw.Workload.shell app
         in
         Opdw.Driver.reset gov;
         let oc = Opdw.Driver.run gov join_sql in
         let rows =
           match oc with
           | Opdw.Driver.Returned { res = r; rows = res; _ } -> canonical r res
           | _ -> []
         in
         (Opdw.Driver.outcome_to_string oc, rows,
          app.Engine.Appliance.account.Engine.Appliance.sim_time))
      [ 0.0; 0.0002; 0.0005; 0.002; 1.0 ]
  in
  let s1 = snapshot 1 and s4 = snapshot 4 in
  List.iter2
    (fun (o1, r1, t1) (o4, r4, t4) ->
       Alcotest.(check string) "outcome identical at jobs 1 and 4" o1 o4;
       Alcotest.(check (list string)) "rows identical" r1 r4;
       Alcotest.(check (float 0.)) "simulated clock identical" t1 t4)
    s1 s4

let test_compile_deadline_determinism_across_jobs () =
  (* a wall deadline tripping mid-compilation, driven by a counting fake
     clock: every governor poll happens in the caller domain (serial
     exploration per applied rewrite, PDW enumeration per dependency
     level), so the poll count — and therefore the trip point and the
     Anytime/Fallback outcome — must reproduce exactly at any jobs *)
  let wl = Lazy.force w in
  let compile jobs budget =
    Par.with_pool ~jobs @@ fun pool ->
    let calls = ref 0 in
    let clock () = incr calls; float_of_int !calls in
    let tk = Governor.create () in
    Governor.add_deadline tk ~clock ~deadline:budget;
    let r =
      Opdw.optimize ~check:false ~token:tk ~pool wl.Opdw.Workload.shell
        join_sql
    in
    let p = Opdw.plan r in
    ((match r.Opdw.degraded with
      | Some d -> Opdw.degradation_to_string d
      | None -> "full"),
     !calls, p.Pdwopt.Pplan.dms_cost)
  in
  let outcomes =
    List.map
      (fun budget ->
         let ((o1, c1, d1) as s1) = compile 1 budget in
         let s4 = compile 4 budget in
         Alcotest.(check (triple string int (float 0.)))
           (Printf.sprintf "trip at clock budget %g identical at jobs 1 and 4"
              budget)
           s1 s4;
         ignore (c1, d1);
         o1)
      [ 0.5; 2.5; 6.5; 12.5; 25.5; 1e9 ]
  in
  (* the sweep must actually cover both regimes: an early trip that falls
     back to the baseline plan, and a budget large enough to finish *)
  Alcotest.(check bool) "some budget falls back" true
    (List.mem "fallback" outcomes);
  Alcotest.(check bool) "a large budget compiles fully" true
    (List.mem "full" outcomes)

(* -- the random property -- *)

(* Any (memo budget, simulated deadline, query) triple: the governed
   answer is either oracle rows (possibly from a degraded plan — which
   passed the analyzer, since check is on) or a structured refusal. *)
let prop_governed_never_wrong =
  let wl = Lazy.force w in
  let queries = Array.of_list Tpch.Queries.all in
  let oracles = Hashtbl.create 16 in
  let oracle_rows (q : Tpch.Queries.t) =
    match Hashtbl.find_opt oracles q.Tpch.Queries.id with
    | Some rows -> rows
    | None ->
      let rows = oracle q.Tpch.Queries.sql in
      Hashtbl.add oracles q.Tpch.Queries.id rows;
      rows
  in
  let gen =
    QCheck.make
      ~print:(fun (qi, mb, sd) ->
          Printf.sprintf "query=%s memo_budget=%s sim_deadline=%s"
            queries.(qi).Tpch.Queries.id
            (match mb with Some b -> string_of_int b | None -> "-")
            (match sd with Some d -> Printf.sprintf "%g" d | None -> "-"))
      QCheck.Gen.(
        triple (int_bound (Array.length queries - 1))
          (opt (int_range 1 40))
          (opt (oneofl [ 0.0; 0.0001; 0.0003; 0.001; 0.01 ])))
  in
  QCheck.Test.make ~name:"governed statements: oracle rows or structured refusal"
    ~count:30 gen
  @@ fun (qi, memo_budget, sim_deadline) ->
  let q = queries.(qi) in
  let limits =
    { Governor.deadline = None; sim_deadline; max_memo_groups = memo_budget }
  in
  let options = options_with limits in
  let gov =
    Opdw.Driver.create ~options ~breaker_threshold:0 wl.Opdw.Workload.shell
      wl.Opdw.Workload.app
  in
  Opdw.Driver.reset gov;
  (match Opdw.Driver.run gov q.Tpch.Queries.sql with
   | Opdw.Driver.Returned { res = r; rows = res; _ } ->
     let rows = canonical r res in
     if rows <> oracle_rows q then
       QCheck.Test.fail_report
         (Printf.sprintf "wrong rows for %s (degraded: %s)" q.Tpch.Queries.id
            (match r.Opdw.degraded with
             | Some d -> Opdw.degradation_to_string d
             | None -> "no"))
   | Opdw.Driver.Timed_out _ -> ()
   | oc ->
     QCheck.Test.fail_report
       (Printf.sprintf "unexpected outcome for %s: %s" q.Tpch.Queries.id
          (Opdw.Driver.outcome_to_string oc)));
  true

(* the one storm loop: every statement reaches a typed outcome, the MEMO
   budget degrades at least one, and none returns wrong rows or an invalid
   plan *)
let test_driver_storm_tally () =
  let wl = Lazy.force w in
  let q20 = (Option.get (Tpch.Queries.find "Q20")).Tpch.Queries.sql in
  let stmts = List.init 12 (fun _ -> ("Q20", q20)) in
  let oracle = Opdw.Workload.oracle wl stmts in
  let options = options_with (limits_with ~max_memo_groups:8 ()) in
  Par.with_pool ~jobs:1 @@ fun pool ->
  let d =
    Opdw.Driver.create ~cache:(Opdw.cache ()) ~options wl.Opdw.Workload.shell
      wl.Opdw.Workload.app
  in
  let t = Opdw.Driver.storm ~pool ~oracle d stmts in
  let open Opdw.Driver in
  Alcotest.(check int) "every statement tallied" 12 t.statements;
  Alcotest.(check int) "outcomes sum to the storm" 12
    (t.returned + t.rejected + t.shed + t.timed_out + t.exhausted + t.invalid);
  Alcotest.(check bool) "the memo budget degrades" true (t.degraded >= 1);
  Alcotest.(check int) "no wrong rows" 0 t.wrong;
  Alcotest.(check int) "no invalid plans" 0 t.invalid

let suite =
  [ t "token: deadlines, cancel, poll" test_token_basics;
    t "token: several deadlines on distinct clocks" test_token_multiple_clocks;
    t "gate: overflow rejects with occupancy" test_gate_overflow;
    t "gate: FIFO service order" test_gate_fifo;
    t "gate: raising bodies never leak a slot" test_gate_releases_on_raise;
    t "breaker: closed/open/half-open transitions" test_breaker_transitions;
    t "memo budget degrades anytime, rows intact" test_anytime_memo_budget;
    t "expired token falls back to baseline, rows intact" test_fallback_on_expired_token;
    t "degraded plans are never cached" test_degraded_never_cached;
    t "fingerprint v3 carries governor knobs" test_fingerprint_carries_governor_knobs;
    t "governed statement returns oracle rows" test_governed_returns_oracle_rows;
    t "simulated deadline times out, appliance reusable" test_governed_sim_deadline_times_out;
    t "exhaustion trips the breaker, probe recovers" test_governed_breaker_end_to_end;
    t "reset zeroes account and governor counters together" test_governed_reset_uniform;
    t "sim deadlines reproduce at jobs 1 and 4" test_sim_deadline_determinism_across_jobs;
    t "compile deadlines reproduce at jobs 1 and 4"
      test_compile_deadline_determinism_across_jobs;
    QCheck_alcotest.to_alcotest prop_governed_never_wrong;
    t "simulated deadline with store and replan policies" test_sim_deadline_composes;
    t "storm tallies every statement, none wrong" test_driver_storm_tally ]
