(* opdw command-line interface.

   Subcommands:
     explain  - optimize a query and print the plans (logical, serial,
                parallel, DSQL)
     run      - optimize and execute on a generated TPC-H appliance
     overload - storm the appliance with concurrent statements through the
                resource governor and verify answers against oracle rows
     memo     - dump the serial MEMO (optionally its XML encoding)
     check    - run the static plan-validity analyzer over optimized plans
     analyze  - run the abstract interpreter (types, ranges, cardinality
                bounds, contradictions) over optimized plans
     calibrate - run the feedback loop once (execute, harvest, fold the
                observations back into the catalog) and report the model
                error before/after
     planstore - drive queries through the last-known-good plan store and
                dump its state (LKG plans, quarantines, fallbacks)
     topology - serve a skewed statement storm through the elastic driver,
                run the re-distribution advisor over the harvested workload
                and (apply) execute grow / re-key moves online, always
                serving oracle rows
     queries  - list the bundled workload queries

   All subcommands operate against the TPC-H shell database; the query may
   be given inline, via --query ID (e.g. Q20), or from a file. *)

open Cmdliner

let setup ?engine ~nodes ~sf () =
  Opdw.Workload.tpch ~node_count:nodes ~sf ?engine ()

let resolve_sql query_id sql_arg file =
  match query_id, sql_arg, file with
  | Some id, _, _ ->
    (match Tpch.Queries.find id with
     | Some q -> q.Tpch.Queries.sql
     | None ->
       Printf.eprintf "unknown query id %s (try: opdw_cli queries)\n" id;
       exit 1)
  | None, Some sql, _ -> sql
  | None, None, Some f ->
    (* reads to EOF (no length probe, so a directory fails the read);
       the channel is closed on every path *)
    In_channel.with_open_text f (fun ic ->
        try In_channel.input_all ic
        with Sys_error msg -> raise (Sys_error (f ^ ": " ^ msg)))
  | None, None, None ->
    prerr_endline "give a query: positional SQL, --query ID, or --file F";
    exit 1

let workload_targets ~all ~query ~sql ~file =
  if all then
    List.map (fun q -> (q.Tpch.Queries.id, q.Tpch.Queries.sql)) Tpch.Queries.all
  else
    [ ((match query with Some id -> id | None -> "query"),
       resolve_sql query sql file) ]

(* -- observability -- *)

let obs_src = Logs.Src.create "opdw.obs" ~doc:"opdw observability event stream"

(* Forward Obs sink events to a [Logs] debug source, so `--debug` streams
   span openings/closings and metric updates as they happen. *)
let logs_sink (ev : Obs.event) =
  let msg =
    match ev with
    | Obs.Span_open path -> Printf.sprintf "span open  %s" (String.concat "/" path)
    | Obs.Span_close (path, dt) ->
      Printf.sprintf "span close %s (%.6fs)" (String.concat "/" path) dt
    | Obs.Metric (path, k, v) ->
      Printf.sprintf "metric     %s %s=%g" (String.concat "/" path) k v
  in
  Logs.debug ~src:obs_src (fun m -> m "%s" msg)

let make_obs ~profile ~debug =
  if debug then begin
    Fmt_tty.setup_std_outputs ();
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level ~all:true (Some Logs.Debug);
    Obs.create ~sink:logs_sink ()
  end
  else if profile then Obs.create ()
  else Obs.null

let print_profile obs =
  if Obs.enabled obs then begin
    print_newline ();
    print_endline "== profile ==";
    print_string (Obs.report obs)
  end

(* -- common options -- *)

(* [base] restricted to the values [ok] accepts: an out-of-range number is
   a usage error naming the option (exit 124), like a malformed one *)
let checked base ~expected ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %s" expected s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let probability =
  checked Arg.float ~expected:"a probability in [0, 1]" (fun p -> p >= 0. && p <= 1.)

let nodes_t =
  Arg.(value & opt (checked int ~expected:"a node count >= 1" (fun n -> n >= 1)) 8
       & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of compute nodes.")

let sf_t =
  Arg.(value & opt (checked float ~expected:"a scale factor > 0" (fun sf -> sf > 0.)) 0.01
       & info [ "sf" ] ~docv:"SF" ~doc:"TPC-H scale factor (1.0 = full size).")

let query_t =
  Arg.(value & opt (some string) None
       & info [ "q"; "query" ] ~docv:"ID" ~doc:"Bundled workload query id (e.g. Q20, P1).")

let file_t =
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Read SQL from a file.")

let sql_t =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"SQL text.")

let seed_t =
  Arg.(value & flag & info [ "seed-collocated" ] ~doc:"Seed the MEMO with collocated join orders (paper sec. 3.1).")

let budget_t =
  Arg.(value & opt (checked int ~expected:"a task budget >= 0" (fun n -> n >= 0)) 20000
       & info [ "budget" ] ~docv:"TASKS" ~doc:"Serial exploration task budget (timeout).")

(* the one resolution of --jobs: 0 stands for the machine's recommended
   domain count *)
let jobs_t =
  Term.(const (fun j -> if j = 0 then Par.default_jobs () else j)
        $ Arg.(value & opt (checked int ~expected:"a domain count >= 0" (fun n -> n >= 0)) 0
               & info [ "j"; "jobs" ] ~docv:"N"
                 ~doc:"Domains used both to compile (plan enumeration over the MEMO's \
                       dependency levels) and to execute per-node shards of each \
                       DSQL step in parallel. The chosen plan and the simulated \
                       times are bit-identical at any N. 0 = the machine's \
                       recommended domain count."))

let no_cache_t =
  Arg.(value & flag
       & info [ "no-plan-cache" ]
         ~doc:"Disable the plan cache (every query pays full serial + PDW optimization).")

let make_cache no_cache = if no_cache then None else Some (Opdw.cache ())

let check_t =
  Arg.(value
       & vflag true
           [ (true,
              info [ "check" ]
                ~doc:"Run the static plan-validity analyzer over the chosen plan \
                      and its DSQL steps (the default); an invalid plan aborts \
                      with the violated rules.");
             (false,
              info [ "no-check" ]
                ~doc:"Skip the static plan-validity analyzer.") ])

let assert_bounds_t =
  Arg.(value & flag
       & info [ "assert-bounds" ]
         ~doc:"Derive static per-operator cardinality bounds [lo, hi] with the \
               abstract interpreter before executing and check every executed \
               operator's observed row count against them; exits nonzero on \
               any violation (a soundness bug in the analyzer or the engine).")

let chaos_t =
  Arg.(value & flag
       & info [ "chaos" ]
         ~doc:"Execute under deterministic fault injection: transient failures are \
               retried with simulated backoff, node losses re-optimize on the \
               survivors. Result rows are identical to the fault-free run unless \
               a retry budget is exhausted.")

let fault_seed_t =
  Arg.(value & opt int 1
       & info [ "fault-seed" ] ~docv:"SEED"
         ~doc:"Seed for the fault-injection draws (chaos mode). A fixed seed \
               reproduces the exact fault pattern and simulated times at any \
               $(b,--jobs).")

let fault_rate_t =
  Arg.(value & opt probability 0.05
       & info [ "fault-rate" ] ~docv:"P"
         ~doc:"Per-site fault probability per step attempt (chaos mode); node \
               crashes fire at P/8.")

let elastic_t =
  Arg.(value & flag
       & info [ "elastic" ]
         ~doc:"Serve chaos-style (node crashes decommission + replan on the \
               survivors, every plan keyed under the current topology epoch) \
               and print the topology summary line: epoch, live nodes and \
               harvested workload records (see the $(b,topology) \
               subcommand). Faults fire only with $(b,--chaos) or \
               $(b,--fault-schedule).")

let fault_schedule_t =
  Arg.(value & opt (some string) None
       & info [ "fault-schedule" ] ~docv:"FILE"
         ~doc:"Inject exactly the faults listed in FILE (one per line: \
               site=<name> step=<k> [node=] [attempt=] [epoch=] [factor=]); \
               implies $(b,--chaos) and overrides $(b,--fault-seed)/$(b,--fault-rate).")

(* -- feedback options -- *)

let feedback_t =
  Arg.(value & flag
       & info [ "feedback" ]
         ~doc:"Attach the last-known-good plan store: record each plan's \
               observed cost, fall back to the LKG plan automatically when a \
               recompiled plan's fingerprint is quarantined after repeated \
               regressions, and print the feedback summary line. Composes \
               with $(b,--chaos) / $(b,--elastic) and the governor flags.")

let feedback_log_t =
  Arg.(value & opt (some string) None
       & info [ "feedback-log" ] ~docv:"FILE"
         ~doc:"Persist the feedback log: loaded before the run when FILE exists \
               (bit-exact round-trip), saved back after. Implies $(b,--feedback) \
               for $(b,run).")

(* --feedback-log FILE: loaded before the run when FILE exists *)
let load_log = function
  | Some f when Sys.file_exists f -> Opdw.Feedback.Log.load f
  | _ -> Opdw.Feedback.Log.create ()

(* short display digest of a (long, canonical) plan-cache fingerprint *)
let fp_digest fp = String.sub (Digest.to_hex (Digest.string fp)) 0 12

let geomean = function
  | [] -> 1.
  | xs ->
    exp (List.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (List.length xs))

(* -- governor options -- *)

let deadline_ms_t =
  Arg.(value & opt (some float) None
       & info [ "deadline-ms" ] ~docv:"MS"
         ~doc:"Wall-clock statement deadline in milliseconds. Optimization past \
               the deadline degrades anytime-style (best plan found so far, or \
               the baseline plan), execution past it returns a structured \
               timeout; degraded plans still pass the validity analyzer and \
               are never cached.")

let sim_deadline_ms_t =
  Arg.(value & opt (some float) None
       & info [ "sim-deadline-ms" ] ~docv:"MS"
         ~doc:"Simulated-clock execution deadline in milliseconds; deterministic \
               at any $(b,--jobs) (the simulated clock is).")

let memo_budget_t =
  Arg.(value & opt (some int) None
       & info [ "memo-budget" ] ~docv:"GROUPS"
         ~doc:"Stop serial exploration once the MEMO reaches GROUPS groups and \
               return the anytime best-so-far plan (deterministic degradation \
               pressure, unlike wall-clock deadlines).")

let max_concurrent_t =
  Arg.(value & opt (checked int ~expected:"a gate width >= 1" (fun n -> n >= 1)) 4
       & info [ "max-concurrent" ] ~docv:"N"
         ~doc:"Admission gate width: statements optimizing/executing at once.")

let queue_limit_t =
  Arg.(value & opt (checked int ~expected:"a queue depth >= 0" (fun n -> n >= 0)) 16
       & info [ "queue-limit" ] ~docv:"N"
         ~doc:"FIFO admission queue depth; a statement arriving beyond it is \
               rejected with a structured answer, not an error.")

let breaker_t =
  Arg.(value & opt int 3
       & info [ "breaker" ] ~docv:"K"
         ~doc:"Circuit breaker: K consecutive hard failures of one statement \
               fingerprint shed it for a cooldown (charged to the simulated \
               clock). 0 disables the breaker.")

let limits_of ~deadline_ms ~sim_deadline_ms ~memo_budget =
  { Governor.deadline = Option.map (fun ms -> ms /. 1000.) deadline_ms;
    sim_deadline = Option.map (fun ms -> ms /. 1000.) sim_deadline_ms;
    max_memo_groups = memo_budget }

let engine_t =
  Arg.(value
       & opt (enum [ ("row", Engine.Rset.Row); ("columnar", Engine.Rset.Columnar) ])
           Engine.Rset.Row
       & info [ "engine" ] ~docv:"ENGINE"
         ~doc:"Per-node executor: $(b,row) (the semantics oracle, one boxed \
               value array per row) or $(b,columnar) (typed column batches \
               with selection vectors). Result rows and the simulated clock \
               are identical; only wall-clock speed differs.")

let compare_engines_t =
  Arg.(value & flag
       & info [ "compare-engines" ]
         ~doc:"After the run, execute the same statement on fresh appliances \
               with both engines and fail (exit 1) unless the result rows and \
               the simulated response time agree exactly.")

let profile_t =
  Arg.(value & flag
       & info [ "profile" ]
         ~doc:"Collect per-stage timings and counters and print the profile report.")

let debug_t =
  Arg.(value & flag
       & info [ "debug" ]
         ~doc:"Stream observability events through the logs library at debug level \
               (implies $(b,--profile)).")

let options_of ~nodes ~seed ~budget =
  { (Opdw.default_options ~node_count:nodes) with
    Opdw.seed_collocated = seed;
    Opdw.serial =
      { Serialopt.Optimizer.default_options with Serialopt.Optimizer.task_budget = budget } }

(* -- explain -- *)

let explain nodes sf query sql file seed budget jobs no_cache check verbose profile
    debug =
  let w = setup ~nodes ~sf () in
  let text = resolve_sql query sql file in
  let options = options_of ~nodes ~seed ~budget in
  let obs = make_obs ~profile ~debug in
  let r =
    Par.with_pool ~jobs
    @@ fun pool ->
    Opdw.optimize ~obs ~options ?cache:(make_cache no_cache) ~check ~pool
      w.Opdw.Workload.shell text
  in
  let reg = r.Opdw.memo.Memo.reg in
  if verbose then begin
    print_endline "== normalized logical tree ==";
    print_endline (Algebra.Relop.to_string r.Opdw.algebrized.Algebra.Algebrizer.reg r.Opdw.normalized);
    print_endline "\n== best serial plan ==";
    (match r.Opdw.serial.Serialopt.Optimizer.best with
     | Some p -> print_endline (Serialopt.Plan.to_string reg p)
     | None -> print_endline "(none)");
    print_newline ()
  end;
  print_endline (Opdw.explain r);
  (match r.Opdw.baseline_plan with
   | Some b ->
     Printf.printf "\nbaseline (parallelized serial) DMS cost: %.4gs; PDW: %.4gs\n"
       b.Pdwopt.Pplan.dms_cost (Opdw.plan r).Pdwopt.Pplan.dms_cost
   | None -> ());
  print_profile obs

let explain_cmd =
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Also print the logical tree and serial plan.")
  in
  Cmd.v (Cmd.info "explain" ~doc:"Optimize a query and print its plans.")
    Term.(const explain $ nodes_t $ sf_t $ query_t $ sql_t $ file_t $ seed_t $ budget_t
          $ jobs_t $ no_cache_t $ check_t $ verbose $ profile_t $ debug_t)

(* -- run -- *)

(* --compare-engines: one clean (governor- and chaos-free) execution per
   engine on fresh appliances; the qcheck oracle property in the test suite
   is the exhaustive version of this spot check *)
let compare_engines_run ~nodes ~sf ~options ~check ~pool text =
  let once engine =
    let w = setup ~engine ~nodes ~sf () in
    let app = w.Opdw.Workload.app in
    Engine.Appliance.set_pool app pool;
    Engine.Appliance.set_check app check;
    let r = Opdw.optimize ~options ~check w.Opdw.Workload.shell text in
    let res = Opdw.run app r in
    (Engine.Local.canonical res, app.Engine.Appliance.account.Engine.Appliance.sim_time)
  in
  let rows_r, sim_r = once Engine.Rset.Row in
  let rows_c, sim_c = once Engine.Rset.Columnar in
  let rows_ok = rows_r = rows_c and sim_ok = sim_r = sim_c in
  Printf.printf "engine comparison: rows %s (%d vs %d), simulated time %s (%.6gs vs %.6gs)\n"
    (if rows_ok then "identical" else "DIFFER")
    (List.length rows_r) (List.length rows_c)
    (if sim_ok then "identical" else "DIFFERS") sim_r sim_c;
  if not (rows_ok && sim_ok) then exit 1

let run nodes sf query sql file seed budget limit jobs no_cache check assert_bounds
    repeat chaos elastic fault_seed fault_rate fault_schedule feedback feedback_log
    deadline_ms sim_deadline_ms memo_budget max_concurrent queue_limit breaker
    engine compare_engines profile debug =
  let w = setup ~engine ~nodes ~sf () in
  let text = resolve_sql query sql file in
  let limits = limits_of ~deadline_ms ~sim_deadline_ms ~memo_budget in
  let options = { (options_of ~nodes ~seed ~budget) with Opdw.governor = limits } in
  let obs = make_obs ~profile ~debug in
  let chaos = chaos || fault_schedule <> None in
  let feedback = feedback || feedback_log <> None in
  (* the bracket shuts the pool down even if optimization or execution
     raises, so an error mid-run cannot leak live domains *)
  Par.with_pool ~jobs
  @@ fun pool ->
  let app = w.Opdw.Workload.app in
  Engine.Appliance.set_pool app pool;
  Engine.Appliance.set_check app check;
  (* one driver, every flag a policy on it: admission gate, breaker and
     deadlines always; the plan store with --feedback; the fault plan
     (crash -> decommission + replan) with --chaos / --elastic *)
  let fault =
    if not (chaos || elastic) then None
    else
      Some
        (match fault_schedule with
         | Some f -> Fault.load_schedule f
         | None ->
           Fault.seeded ~seed:fault_seed ~rate:(if chaos then fault_rate else 0.) ())
  in
  let log = load_log feedback_log in
  let d =
    Opdw.Driver.create ?cache:(make_cache no_cache) ~options ~check ~max_concurrent
      ~queue_limit ~breaker_threshold:breaker
      ?regress_factor:(if feedback then Some 1.2 else None) ~log ?fault
      w.Opdw.Workload.shell app
  in
  (* --assert-bounds: pre-compile (through the driver's cache, so the run
     below hits) to derive the static bounds table before any execution;
     the violation count is ours, so it survives a node-loss replan *)
  let observe, violations =
    if not assert_bounds then (None, fun () -> 0)
    else
      let observe, violations =
        Opdw.bounds_oracle ~obs
          (Opdw.optimize ~options ?cache:(Opdw.Driver.cache d) ~pool
             w.Opdw.Workload.shell text)
      in
      (Some observe, violations)
  in
  let once () =
    (* the shared reset path: account (sim clock + fault.* tallies) plus
       gate/breaker counters, so --repeat rounds report per-iteration
       numbers *)
    Opdw.Driver.reset d;
    match Opdw.Driver.run ~obs ?observe d text with
    | Opdw.Driver.Returned s -> s
    | oc ->
      Printf.eprintf "statement not executed: %s\n" (Opdw.Driver.outcome_to_string oc);
      exit 1
  in
  (* --repeat: re-optimize (through the cache) and re-execute; the extra
     rounds exercise plan-cache hits and the multicore appliance *)
  let last = ref (once ()) in
  for _ = 2 to repeat do last := once () done;
  Option.iter (Opdw.Feedback.Log.save (Opdw.Driver.log d)) feedback_log;
  let s = !last in
  let r = s.Opdw.Driver.res and res = s.Opdw.Driver.rows and app = Opdw.Driver.app d in
  let names = List.map fst (Opdw.output_columns r) in
  print_endline (String.concat " | " names);
  List.iteri
    (fun i row ->
       if i < limit then
         print_endline
           (String.concat " | "
              (List.map Catalog.Value.to_string (Array.to_list row))))
    res.Engine.Local.rows;
  let total = List.length res.Engine.Local.rows in
  if total > limit then Printf.printf "... (%d rows total)\n" total;
  (match r.Opdw.degraded with
   | Some g ->
     Printf.printf "plan degraded: %s (governor pressure; plan still check-valid)\n"
       (Opdw.degradation_to_string g)
   | None -> ());
  let a = app.Engine.Appliance.account in
  Printf.printf
    "\n%d rows; %d DMS steps; %.0f bytes moved; simulated response time %.4gs (DMS %.4gs)\n"
    total a.Engine.Appliance.moves a.Engine.Appliance.bytes_moved
    a.Engine.Appliance.sim_time a.Engine.Appliance.dms_time;
  if chaos then begin
    Printf.printf
      "chaos: %d faults injected; %d retries (%.4gs backoff); %d steps recovered; \
       %d replans; %d/%d nodes alive\n"
      a.Engine.Appliance.injected a.Engine.Appliance.retries
      a.Engine.Appliance.backoff_time a.Engine.Appliance.recovered
      a.Engine.Appliance.replans app.Engine.Appliance.nodes nodes;
    match Obs.counters_prefixed obs "fault." with
    | [] -> ()
    | cs ->
      List.iter (fun (k, v) -> Printf.printf "  %-28s %.6g\n" k v) cs
  end;
  if elastic then
    Printf.printf
      "elastic: topology epoch %d; %d/%d nodes alive; %d workload record(s) harvested\n"
      (Opdw.Driver.epoch d) (Opdw.Driver.nodes d) nodes
      (Opdw.Feedback.Log.length (Opdw.Driver.log d));
  (match Opdw.Driver.store d, s.Opdw.Driver.store_outcome with
   | Some store, Some outcome ->
     Printf.printf
       "feedback: %d log record(s); model error %.4g; outcome %s%s; \
        %d regression(s), %d fallback(s)\n"
       (Opdw.Feedback.Log.length (Opdw.Driver.log d))
       (Opdw.Feedback.model_error r ~dms_time:s.Opdw.Driver.observed_dms)
       (Opdw.Feedback.Store.outcome_name outcome)
       (if s.Opdw.Driver.fellback then " (served LKG fallback)" else "")
       (Opdw.Feedback.Store.regressions store) (Opdw.Feedback.Store.fallbacks store)
   | _ -> ());
  if repeat > 1 then
    Printf.printf "(%d rounds; execution used %d domains; plan cache %s)\n" repeat
      (Par.jobs pool) (if no_cache then "off" else "on");
  if assert_bounds then begin
    let v = violations () in
    Printf.printf "assert-bounds: %d operator(s) outside static bounds\n" v;
    if v > 0 then exit 1
  end;
  if compare_engines then
    compare_engines_run ~nodes ~sf ~options:(options_of ~nodes ~seed ~budget)
      ~check ~pool text;
  (* the plan-cache stats snapshot rides along with --profile/--debug *)
  if profile || debug then begin
    let pr c =
      Printf.printf "plan cache: %s\n"
        (Opdw.Plancache.stats_to_string (Opdw.Plancache.stats c))
    in
    Option.iter pr (Opdw.Driver.cache d)
  end;
  print_profile obs

let run_cmd =
  let limit =
    Arg.(value & opt (checked int ~expected:"a row count >= 0" (fun n -> n >= 0)) 20
         & info [ "limit" ] ~docv:"ROWS" ~doc:"Max rows to print.")
  in
  let repeat =
    Arg.(value & opt (checked int ~expected:"a round count >= 1" (fun n -> n >= 1)) 1
         & info [ "repeat" ] ~docv:"K"
           ~doc:"Optimize-and-execute the query K times (rounds after the first hit \
                 the plan cache unless $(b,--no-plan-cache)).")
  in
  Cmd.v (Cmd.info "run" ~doc:"Optimize and execute a query on a generated TPC-H appliance.")
    Term.(const run $ nodes_t $ sf_t $ query_t $ sql_t $ file_t $ seed_t $ budget_t $ limit
          $ jobs_t $ no_cache_t $ check_t $ assert_bounds_t $ repeat $ chaos_t
          $ elastic_t $ fault_seed_t $ fault_rate_t $ fault_schedule_t $ feedback_t
          $ feedback_log_t $ deadline_ms_t $ sim_deadline_ms_t $ memo_budget_t
          $ max_concurrent_t $ queue_limit_t $ breaker_t $ engine_t
          $ compare_engines_t $ profile_t $ debug_t)

(* -- overload -- *)

let overload nodes sf query statements jobs deadline_ms sim_deadline_ms memo_budget
    max_concurrent queue_limit breaker expect_pressure =
  let w = setup ~nodes ~sf () in
  let app = w.Opdw.Workload.app in
  let options =
    { (Opdw.default_options ~node_count:nodes) with
      Opdw.governor = limits_of ~deadline_ms ~sim_deadline_ms ~memo_budget }
  in
  (* statement mix: cycle the bundled workload queries (or just --query ID) *)
  let bundle = workload_targets ~all:(query = None) ~query ~sql:None ~file:None in
  let stmts = List.init statements (fun i -> List.nth bundle (i mod List.length bundle)) in
  let oracle = Opdw.Workload.oracle w stmts in
  Par.with_pool ~jobs
  @@ fun pool ->
  Engine.Appliance.set_pool app pool;
  let d =
    Opdw.Driver.create ~cache:(Opdw.cache ()) ~options ~check:true
      ~max_concurrent ~queue_limit ~breaker_threshold:breaker
      w.Opdw.Workload.shell app
  in
  let { Opdw.Driver.statements; returned; degraded; rejected; shed; timed_out; exhausted;
        invalid; wrong; misses } =
    Opdw.Driver.storm ~pool ~oracle d stmts
  in
  List.iter
    (fun (id, oc) ->
       match oc with
       | Opdw.Driver.Returned { res = r; _ } ->
         Printf.eprintf "WRONG ROWS for %s%s\n" id
           (match r.Opdw.degraded with
            | Some d -> Printf.sprintf " (degraded: %s)" (Opdw.degradation_to_string d)
            | None -> "")
       | Opdw.Driver.Invalid vs ->
         Printf.eprintf "INVALID plan for %s: %s\n" id (Check.to_string vs)
       | _ -> ())
    misses;
  let gs = Governor.Gate.stats (Opdw.Driver.gate d) in
  let bs = Governor.Breaker.stats (Opdw.Driver.breaker d) in
  Printf.printf
    "%d statements: %d returned (%d degraded), %d rejected, %d shed, %d timed out, \
     %d exhausted, %d invalid, %d wrong-row\n"
    statements returned degraded rejected shed timed_out exhausted invalid wrong;
  Printf.printf
    "gate: %d admitted, %d queued, %d rejected, peak %d running; \
     breaker: %d trips, %d shed, %d probes\n"
    gs.Governor.Gate.admitted gs.Governor.Gate.queued_total gs.Governor.Gate.rejected
    gs.Governor.Gate.peak_running bs.Governor.Breaker.trips bs.Governor.Breaker.shed
    bs.Governor.Breaker.probes;
  if wrong > 0 || invalid > 0 then exit 1;
  if expect_pressure && degraded = 0 && misses = [] then begin
    prerr_endline "expected governor pressure but every statement ran at full fidelity";
    exit 1
  end

let overload_cmd =
  let statements_t =
    Arg.(value & opt (checked int ~expected:"a statement count >= 1" (fun n -> n >= 1)) 32
         & info [ "statements" ] ~docv:"N"
           ~doc:"Number of concurrent statements to throw at the appliance.")
  in
  let expect_pressure_t =
    Arg.(value & flag
         & info [ "expect-pressure" ]
           ~doc:"Exit nonzero unless at least one statement was degraded, rejected, \
                 shed, timed out or exhausted (smoke-tests that the governor \
                 actually engaged).")
  in
  Cmd.v
    (Cmd.info "overload"
       ~doc:"Storm the appliance with concurrent statements through the resource \
             governor; every answered statement must return oracle rows.")
    Term.(const overload $ nodes_t $ sf_t $ query_t $ statements_t $ jobs_t
          $ deadline_ms_t $ sim_deadline_ms_t $ memo_budget_t $ max_concurrent_t
          $ queue_limit_t $ breaker_t $ expect_pressure_t)

(* -- memo -- *)

let memo nodes sf query sql file as_xml =
  let w = setup ~nodes ~sf () in
  let text = resolve_sql query sql file in
  let r = Opdw.optimize w.Opdw.Workload.shell text in
  if as_xml then
    print_string (match r.Opdw.memo_xml with Some x -> x | None -> "")
  else
    print_endline (Memo.to_string r.Opdw.memo)

let memo_cmd =
  let as_xml = Arg.(value & flag & info [ "xml" ] ~doc:"Print the XML interchange encoding.") in
  Cmd.v (Cmd.info "memo" ~doc:"Dump the explored serial MEMO.")
    Term.(const memo $ nodes_t $ sf_t $ query_t $ sql_t $ file_t $ as_xml)

(* -- check -- *)

let check_queries nodes sf all query sql file seed budget json =
  let w = setup ~nodes ~sf () in
  let options = options_of ~nodes ~seed ~budget in
  let targets = workload_targets ~all ~query ~sql ~file in
  let failed = ref 0 in
  let reports =
    List.map
      (fun (id, text) ->
         (* optimize without the built-in gate, then validate explicitly so a
            violation is reported instead of raised *)
         let r = Opdw.optimize ~options ~check:false w.Opdw.Workload.shell text in
         let plan = Opdw.plan r in
         let cost =
           { Check.nodes = options.Opdw.pdw.Pdwopt.Enumerate.nodes;
             lambdas = options.Opdw.pdw.Pdwopt.Enumerate.lambdas;
             reg = r.Opdw.memo.Memo.reg }
         in
         let vs =
           Check.validate ~cost ~dsql:r.Opdw.dsql ~shell:w.Opdw.Workload.shell plan
         in
         if vs <> [] then incr failed;
         (id, r, plan, vs))
      targets
  in
  if json then begin
    (* machine-readable report: one object per query, each violation with
       its rule id, message and offending subtree rendering *)
    let vio (v : Check.violation) =
      Printf.sprintf "{\"rule\": \"%s\", \"message\": \"%s\", \"subtree\": \"%s\"}"
        (Check.json_escape v.Check.rule) (Check.json_escape v.Check.message)
        (Check.json_escape v.Check.subtree)
    in
    print_endline
      ("["
       ^ String.concat ","
           (List.map
              (fun (id, _, _, vs) ->
                 Printf.sprintf "\n  {\"query\": \"%s\", \"valid\": %b, \"violations\": [%s]}"
                   (Check.json_escape id) (vs = [])
                   (String.concat ", " (List.map vio vs)))
              reports)
       ^ "\n]")
  end
  else begin
    List.iter
      (fun (id, r, plan, vs) ->
         match vs with
         | [] ->
           Printf.printf "%-6s ok  (%d plan nodes, %d movements, %d DSQL steps)\n"
             id (Pdwopt.Pplan.size plan) (Pdwopt.Pplan.move_count plan)
             (Dsql.Generate.step_count r.Opdw.dsql)
         | vs ->
           Printf.printf "%-6s INVALID (%d violations)\n%s\n" id (List.length vs)
             (Check.to_string vs))
      reports;
    let n = List.length targets in
    Printf.printf "%d/%d plans valid (%d rules)\n" (n - !failed) n
      (List.length Check.rules)
  end;
  if !failed > 0 then exit 1

let all_t =
  Arg.(value & flag
       & info [ "all" ] ~doc:"Process every bundled workload query.")

let json_t =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit a machine-readable JSON report on stdout.")

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run the static plan-validity analyzer (distribution, movement, \
             cost, type, bounds, and DSQL invariants) over optimized plans. \
             Exits 0 when every plan validates clean, 1 when any rule is \
             violated.")
    Term.(const check_queries $ nodes_t $ sf_t $ all_t $ query_t $ sql_t $ file_t
          $ seed_t $ budget_t $ json_t)

(* -- analyze -- *)

let analyze nodes sf all query sql file seed budget json =
  let w = setup ~nodes ~sf () in
  let options = options_of ~nodes ~seed ~budget in
  let targets = workload_targets ~all ~query ~sql ~file in
  let flagged = ref 0 in
  let reports =
    List.map
      (fun (id, text) ->
         let r = Opdw.optimize ~options w.Opdw.Workload.shell text in
         let plan = Opdw.plan r in
         let actx =
           Analysis.context ~shell:w.Opdw.Workload.shell
             ~reg:r.Opdw.memo.Memo.reg
             ~nodes:options.Opdw.pdw.Pdwopt.Enumerate.nodes
         in
         let bad =
           List.exists
             (fun ((_ : Pdwopt.Pplan.t), (i : Check.node_info)) ->
                i.Check.contradiction <> None || i.Check.type_errors <> [])
             (Check.annotate actx plan)
         in
         if bad then incr flagged;
         (id, bad, actx, plan))
      targets
  in
  if json then
    print_endline
      ("["
       ^ String.concat ","
           (List.map
              (fun (id, bad, actx, plan) ->
                 Printf.sprintf "\n  {\"query\": \"%s\", \"clean\": %b, \"nodes\": %s}"
                   (Check.json_escape id) (not bad) (Check.render_json actx plan))
              reports)
       ^ "\n]")
  else begin
    List.iter
      (fun (id, bad, actx, plan) ->
         Printf.printf "== %s%s ==\n%s\n" id (if bad then " FLAGGED" else "")
           (Check.render actx plan))
      reports;
    Printf.printf "%d/%d plans clean\n" (List.length targets - !flagged)
      (List.length targets)
  end;
  if !flagged > 0 then exit 1

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the abstract-interpretation analyzer over optimized plans: \
             per-node static cardinality bounds [lo, hi], per-column value \
             ranges, type errors, and contradictions. Exits 0 when every \
             plan is clean, 1 when any node is flagged.")
    Term.(const analyze $ nodes_t $ sf_t $ all_t $ query_t $ sql_t $ file_t
          $ seed_t $ budget_t $ json_t)

(* -- calibrate -- *)

(* calibrate / planstore default to the whole bundled workload when no
   explicit query is given — feedback calibration is a workload-level
   operation, unlike the single-statement subcommands *)
let feedback_targets ~all ~query ~sql ~file =
  if all || (query = None && sql = None && file = None) then
    List.map (fun q -> (q.Tpch.Queries.id, q.Tpch.Queries.sql)) Tpch.Queries.all
  else workload_targets ~all ~query ~sql ~file

let calibrate nodes sf all query sql file seed budget jobs feedback_log
    expect_improvement json =
  let w = setup ~nodes ~sf () in
  let shell = w.Opdw.Workload.shell and app = w.Opdw.Workload.app in
  let options = options_of ~nodes ~seed ~budget in
  let targets = feedback_targets ~all ~query ~sql ~file in
  Par.with_pool ~jobs
  @@ fun pool ->
  Engine.Appliance.set_pool app pool;
  let log = load_log feedback_log in
  let d = Opdw.Driver.create ~cache:(Opdw.cache ()) ~options ~log shell app in
  (* pass 1: harvest observations and per-query model error under the seed
     statistics; calibrate; pass 2: re-measure under the refined catalog,
     every executed operator checked against the analyzer's static bounds
     (the R11 soundness gate for the refined statistics) *)
  let measure ~bounds = List.map (fun (_, text) -> Opdw.Feedback.measure ~bounds d text) targets in
  let before = List.map fst (measure ~bounds:false) in
  let cal = Opdw.Feedback.calibrate d in
  let after, seen = List.split (measure ~bounds:true) in
  let violations = List.fold_left ( + ) 0 seen in
  Option.iter (Opdw.Feedback.Log.save (Opdw.Driver.log d)) feedback_log;
  let errors = List.combine (List.map fst targets) (List.combine before after) in
  let g_before = geomean before and g_after = geomean after in
  let fit_line (f : Opdw.Feedback.Lambda.fit) =
    Printf.sprintf "%s=%.4g (err %.3g, %d samples)"
      (Dms.Calibrate.component_name f.Opdw.Feedback.Lambda.f_component)
      f.Opdw.Feedback.Lambda.f_lambda f.Opdw.Feedback.Lambda.f_error
      f.Opdw.Feedback.Lambda.f_samples
  in
  if json then begin
    let per_query =
      List.map
        (fun (id, (b, a)) ->
           Printf.sprintf
             "\n  {\"query\": \"%s\", \"error_before\": %.6g, \"error_after\": %.6g}"
             (Check.json_escape id) b a)
        errors
    in
    let refined =
      List.map
        (fun (m : Opdw.Feedback.Misses.miss) ->
           Printf.sprintf
             "{\"table\": \"%s\", \"column\": \"%s\", \"worst\": %.6g, \"ops\": %d}"
             (Check.json_escape m.Opdw.Feedback.Misses.m_table)
             (Check.json_escape m.Opdw.Feedback.Misses.m_column)
             m.Opdw.Feedback.Misses.m_worst m.Opdw.Feedback.Misses.m_ops)
        cal.Opdw.Feedback.refined
    in
    Printf.printf
      "{\"queries\": [%s\n],\n \"geomean_before\": %.6g, \"geomean_after\": %.6g,\n \
       \"improved\": %b, \"refined_columns\": [%s],\n \"epoch\": %d, \
       \"bound_violations\": %d}\n"
      (String.concat "," per_query) g_before g_after (g_after < g_before)
      (String.concat ", " refined) cal.Opdw.Feedback.new_epoch violations
  end
  else begin
    print_endline "query   error(before)  error(after)";
    List.iter (fun (id, (b, a)) -> Printf.printf "%-7s %13.4g %13.4g\n" id b a) errors;
    Printf.printf "geomean model-vs-sim error: %.4g -> %.4g over %d queries (%s)\n"
      g_before g_after (List.length targets)
      (if g_after < g_before then "improved" else "NOT improved");
    (match cal.Opdw.Feedback.refined with
     | [] -> print_endline "refined columns: none (no estimate missed the threshold)"
     | ms ->
       Printf.printf "refined columns (%d):\n" (List.length ms);
       List.iter
         (fun (m : Opdw.Feedback.Misses.miss) ->
            Printf.printf "  %s.%s  worst miss %.3gx over %d op(s)\n"
              m.Opdw.Feedback.Misses.m_table m.Opdw.Feedback.Misses.m_column
              m.Opdw.Feedback.Misses.m_worst m.Opdw.Feedback.Misses.m_ops)
         ms);
    Printf.printf "lambdas: %s\n"
      (String.concat "; " (List.map fit_line cal.Opdw.Feedback.fits));
    Printf.printf "calibration epoch: %d; bound check: %d operator(s) outside \
                   refined static bounds\n"
      cal.Opdw.Feedback.new_epoch violations
  end;
  if violations > 0 then exit 1;
  if expect_improvement && g_after >= g_before then begin
    prerr_endline "expected the geomean model error to shrink after calibration";
    exit 1
  end

let calibrate_cmd =
  let expect_improvement_t =
    Arg.(value & flag
         & info [ "expect-improvement" ]
           ~doc:"Exit nonzero unless the geomean model-vs-sim error strictly \
                 shrank after calibration (CI smoke for the feedback loop).")
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"Run the feedback loop once over the workload: execute each query \
             with the observation harvest armed, fold the observed \
             cardinalities and DMS volumes back into the catalog (histogram \
             refinement + λ re-fit), then re-execute and report the per-query \
             and geomean model-vs-sim cost error before and after. The second \
             pass re-checks the abstract interpreter's cardinality bounds \
             against the refined statistics; any violation exits 1.")
    Term.(const calibrate $ nodes_t $ sf_t $ all_t $ query_t $ sql_t $ file_t
          $ seed_t $ budget_t $ jobs_t $ feedback_log_t $ expect_improvement_t
          $ json_t)

(* -- planstore -- *)

let planstore nodes sf all query sql file seed budget jobs runs
    inject_regression skew_table json =
  let w = setup ~nodes ~sf () in
  let shell = w.Opdw.Workload.shell and app = w.Opdw.Workload.app in
  let options = options_of ~nodes ~seed ~budget in
  let targets = feedback_targets ~all ~query ~sql ~file in
  Par.with_pool ~jobs
  @@ fun pool ->
  Engine.Appliance.set_pool app pool;
  let d = Opdw.Driver.create ~options ~regress_factor:1.2 shell app in
  let rounds = if inject_regression then max 4 runs else runs in
  (* oracle rows per query from round 1 (the plan that becomes LKG);
     availability = fraction of answered rounds returning oracle rows *)
  let oracle = Hashtbl.create 8 and matched = ref 0 and answered = ref 0 in
  let round_lines = ref [] in
  for i = 1 to rounds do
    if inject_regression && i = 2 then begin
      (* adversarial stats skew, applied after the LKG is recorded: the
         optimizer now believes the table is tiny, recompiles (set_stats
         bumps stats_version, re-keying the fingerprint) and picks a plan
         that regresses against the LKG *)
      match Catalog.Shell_db.find shell skew_table with
      | None ->
        Printf.eprintf "unknown table %s for --inject-regression\n" skew_table;
        exit 1
      | Some tbl ->
        Catalog.Shell_db.set_stats shell skew_table
          { tbl.Catalog.Shell_db.stats with Catalog.Tbl_stats.row_count = 10. }
    end;
    List.iter
      (fun (id, text) ->
         Opdw.Driver.reset d;
         let s = Opdw.Driver.returned (Opdw.Driver.run d text) in
         let rendered = Engine.Local.canonical s.Opdw.Driver.rows in
         incr answered;
         (match Hashtbl.find_opt oracle id with
          | None -> Hashtbl.add oracle id rendered; incr matched
          | Some o -> if rendered = o then incr matched);
         round_lines :=
           Printf.sprintf "round %d: %-5s %-13s sim %.4gs  plan %s%s" i id
             (Opdw.Feedback.Store.outcome_name (Option.get s.Opdw.Driver.store_outcome))
             s.Opdw.Driver.observed_sim
             (match s.Opdw.Driver.res.Opdw.fingerprint with
              | Some fp -> fp_digest fp
              | None -> "-")
             (if s.Opdw.Driver.fellback then "  (LKG fallback)" else "")
           :: !round_lines)
      targets
  done;
  let store = Option.get (Opdw.Driver.store d) in
  let availability = float_of_int !matched /. float_of_int !answered in
  let stmt_id stmt =
    (* map the store's statement key (normalized SQL) back to a query id *)
    match
      List.find_opt
        (fun (_, text) -> Opdw.Driver.statement_key text = stmt)
        targets
    with
    | Some (id, _) -> id
    | None -> String.sub stmt 0 (min 24 (String.length stmt))
  in
  if json then begin
    let stmts =
      List.map
        (fun stmt ->
           let id = stmt_id stmt in
           let lkg =
             match Opdw.Feedback.Store.lkg store stmt with
             | Some (fp, _, sim) ->
               Printf.sprintf "{\"plan\": \"%s\", \"sim\": %.6g}" (fp_digest fp) sim
             | None -> "null"
           in
           let quarantined =
             Opdw.Feedback.Store.quarantined store stmt
             |> List.map (fun fp -> Printf.sprintf "\"%s\"" (fp_digest fp))
           in
           Printf.sprintf
             "\n  {\"query\": \"%s\", \"lkg\": %s, \"quarantined\": [%s]}"
             (Check.json_escape id) lkg (String.concat ", " quarantined))
        (Opdw.Feedback.Store.statements store)
    in
    Printf.printf
      "{\"rounds\": %d, \"statements\": [%s\n],\n \"regressions\": %d, \
       \"fallbacks\": %d, \"availability\": %.6g}\n"
      rounds (String.concat "," stmts)
      (Opdw.Feedback.Store.regressions store)
      (Opdw.Feedback.Store.fallbacks store) availability
  end
  else begin
    List.iter print_endline (List.rev !round_lines);
    print_endline "== plan store ==";
    List.iter
      (fun stmt ->
         let id = stmt_id stmt in
         (match Opdw.Feedback.Store.lkg store stmt with
          | Some (fp, _, sim) ->
            Printf.printf "%-5s LKG %s (best sim %.4gs)" id (fp_digest fp) sim
          | None -> Printf.printf "%-5s no LKG" id);
         (match Opdw.Feedback.Store.quarantined store stmt with
          | [] -> print_newline ()
          | qs ->
            Printf.printf "; quarantined: %s\n"
              (String.concat ", " (List.map fp_digest qs))))
      (Opdw.Feedback.Store.statements store);
    Printf.printf
      "%d round(s); %d regression(s); %d fallback(s); availability %.3g\n"
      rounds (Opdw.Feedback.Store.regressions store)
      (Opdw.Feedback.Store.fallbacks store) availability
  end;
  if availability < 1.0 then begin
    prerr_endline "some round returned non-oracle rows";
    exit 1
  end;
  if inject_regression && Opdw.Feedback.Store.fallbacks store = 0 then begin
    prerr_endline
      "expected the injected stats skew to quarantine a plan and fall back to LKG";
    exit 1
  end

let planstore_cmd =
  let runs_t =
    Arg.(value & opt (checked int ~expected:"a round count >= 1" (fun n -> n >= 1)) 3
         & info [ "runs" ] ~docv:"K"
           ~doc:"Rounds: each target query is optimized and executed K times \
                 through the feedback driver (minimum 4 with \
                 $(b,--inject-regression)).")
  in
  let inject_regression_t =
    Arg.(value & flag
         & info [ "inject-regression" ]
           ~doc:"After round 1 records the LKG plans, corrupt the statistics of \
                 the skew table so the optimizer recompiles a regressing plan; \
                 exits nonzero unless the store quarantines it and serves the \
                 LKG fallback within the hysteresis window (and every round \
                 still returns oracle rows).")
  in
  let skew_table_t =
    Arg.(value & opt string "lineitem"
         & info [ "skew-table" ] ~docv:"TABLE"
           ~doc:"Table whose statistics $(b,--inject-regression) corrupts.")
  in
  Cmd.v
    (Cmd.info "planstore"
       ~doc:"Drive queries through the feedback driver's last-known-good plan \
             store and dump its state: per-statement LKG plan and observed \
             cost, quarantined fingerprints, regression and fallback totals, \
             and answer availability (fraction of rounds returning the round-1 \
             rows).")
    Term.(const planstore $ nodes_t $ sf_t $ all_t $ query_t $ sql_t $ file_t
          $ seed_t $ budget_t $ jobs_t $ runs_t $ inject_regression_t
          $ skew_table_t $ json_t)

(* -- topology -- *)

let topology action nodes sf statements zipf_seed zipf_skew grow max_tables
    fault_seed fault_rate jobs =
  let w = setup ~nodes ~sf () in
  let app = w.Opdw.Workload.app in
  (* the storm: Zipf-ranked picks over the bundled workload queries, so a
     skewed head dominates the harvested log (what the advisor keys on) *)
  let bundle = Array.of_list Tpch.Queries.all in
  let stmts =
    Topology.Zipf.storm ~seed:zipf_seed ~s:zipf_skew ~length:statements
      (Array.length bundle)
    |> List.map (fun k -> (bundle.(k).Tpch.Queries.id, bundle.(k).Tpch.Queries.sql))
  in
  (* fault-free oracle rows, computed on a separate pristine appliance:
     every answer served during the storm — including the ones admitted
     while a grow / re-key move is in flight — must match exactly *)
  let oracle = Opdw.Workload.oracle (setup ~nodes ~sf ()) stmts in
  Par.with_pool ~jobs
  @@ fun pool ->
  Engine.Appliance.set_pool app pool;
  let fault = Fault.seeded ~seed:fault_seed ~rate:fault_rate () in
  let el =
    Topology.Elastic.create ~cache:(Opdw.cache ()) ~fault w.Opdw.Workload.shell app
  in
  let obs = Obs.create () in
  let { Opdw.Driver.statements; returned; wrong; misses; _ }, advice =
    Topology.Elastic.storm ~obs ~moves:(action = `Apply) ~grow_to:grow ~max_tables
      ~oracle el stmts
  in
  let total =
    List.fold_left (fun a (_, c) -> a + c) 0 advice.Topology.Advisor.a_statements
  in
  Printf.printf
    "advisor: %d execution(s) harvested, %d distinct statement(s); modelled \
     workload DMS cost %.4g -> %.4g\n"
    total
    (List.length advice.Topology.Advisor.a_statements)
    advice.Topology.Advisor.a_baseline advice.Topology.Advisor.a_proposed;
  (match advice.Topology.Advisor.a_proposals with
   | [] -> print_endline "proposals: none (current keys already minimal)"
   | ps ->
     List.iter
       (fun (p : Topology.Advisor.proposal) ->
          Printf.printf "  re-key %-10s [%s] -> [%s]  (%.4g -> %.4g, -%.1f%%)\n"
            p.Topology.Advisor.p_table
            (String.concat "," p.Topology.Advisor.p_from)
            (String.concat "," p.Topology.Advisor.p_cols)
            p.Topology.Advisor.p_before p.Topology.Advisor.p_after
            (100. *. (1. -. (p.Topology.Advisor.p_after /. p.Topology.Advisor.p_before))))
       ps);
  let matched = returned - wrong in
  Printf.printf
    "%d/%d statements returned oracle rows (availability %.3f); final topology: \
     %d nodes, epoch %d\n"
    matched statements (float_of_int matched /. float_of_int statements)
    (Opdw.Driver.nodes el) (Opdw.Driver.epoch el);
  (match Obs.counters_prefixed obs "topology." with
   | [] -> ()
   | cs -> List.iter (fun (k, v) -> Printf.printf "  %-28s %.6g\n" k v) cs);
  List.iter
    (fun (id, oc) ->
       match oc with
       | Opdw.Driver.Returned _ -> ()
       | oc ->
         Printf.eprintf "statement %s not executed: %s\n" id
           (Opdw.Driver.outcome_to_string oc))
    misses;
  if wrong > 0 then prerr_endline "some statement returned non-oracle rows";
  if misses <> [] then exit 1

let topology_cmd =
  let action_t =
    Arg.(required
         & pos 0 (some (enum [ ("advise", `Advise); ("apply", `Apply) ])) None
         & info [] ~docv:"ACTION"
           ~doc:"$(b,advise): serve the whole storm, then print the \
                 re-distribution proposals. $(b,apply): serve half the storm, \
                 optionally grow online ($(b,--grow)), apply the proposals as \
                 online re-key moves while still serving, then drain the rest.")
  in
  let statements_t =
    Arg.(value & opt (checked int ~expected:"a storm length >= 1" (fun n -> n >= 1)) 48
         & info [ "statements" ] ~docv:"N"
           ~doc:"Storm length (Zipf-ranked picks over the bundled workload queries).")
  in
  let zipf_seed_t =
    Arg.(value & opt int 1
         & info [ "zipf-seed" ] ~docv:"SEED"
           ~doc:"Seed for the Zipf storm draws (a fixed seed reproduces the \
                 exact statement sequence at any $(b,--jobs)).")
  in
  let zipf_skew_t =
    Arg.(value & opt float 1.5
         & info [ "zipf-skew" ] ~docv:"S"
           ~doc:"Zipf exponent: rank k is picked with weight 1/(k+1)^S.")
  in
  let grow_t =
    Arg.(value & opt int 0
         & info [ "grow" ] ~docv:"M"
           ~doc:"(apply) Grow the appliance online to M compute nodes mid-storm \
                 (ignored unless M exceeds the current node count).")
  in
  let max_tables_t =
    Arg.(value & opt (checked int ~expected:"a table budget >= 0" (fun n -> n >= 0)) 2
         & info [ "max-tables" ] ~docv:"K"
           ~doc:"Advisor budget: at most K tables re-keyed (greedy, each \
                 accepted only on a strict modelled-cost win).")
  in
  let t_fault_rate_t =
    Arg.(value & opt probability 0.
         & info [ "fault-rate" ] ~docv:"P"
           ~doc:"Per-site fault probability per step attempt during the storm \
                 and inside the move steps (default 0: fault-free).")
  in
  Cmd.v
    (Cmd.info "topology"
       ~doc:"Serve a skewed statement storm through the elastic driver, run the \
             re-distribution advisor over the harvested workload, and \
             ($(b,apply)) execute grow / re-key moves online while every \
             statement keeps returning oracle rows. Exits nonzero if any \
             served statement's rows differ from the fault-free oracle.")
    Term.(const topology $ action_t $ nodes_t $ sf_t $ statements_t $ zipf_seed_t
          $ zipf_skew_t $ grow_t $ max_tables_t $ fault_seed_t $ t_fault_rate_t
          $ jobs_t)

(* -- queries -- *)

let queries () =
  List.iter
    (fun q -> Printf.printf "%-5s %s\n" q.Tpch.Queries.id q.Tpch.Queries.description)
    Tpch.Queries.all

let queries_cmd =
  Cmd.v (Cmd.info "queries" ~doc:"List the bundled workload queries.")
    Term.(const queries $ const ())

let () =
  let doc = "the opdw distributed query optimizer (SQL Server PDW reproduction)" in
  let code =
    try
      Cmd.eval ~catch:false
        (Cmd.group (Cmd.info "opdw_cli" ~doc)
           [ explain_cmd; run_cmd; overload_cmd; memo_cmd; check_cmd; analyze_cmd;
             calibrate_cmd; planstore_cmd; topology_cmd; queries_cmd ])
    with
    | Governor.Gate.Rejected rj ->
      Printf.eprintf
        "statement rejected by admission control: %d running, %d queued (queue limit %d)\n"
        rj.Governor.Gate.running rj.Governor.Gate.queued rj.Governor.Gate.queue_limit;
      1
    | Check.Invalid vs ->
      Printf.eprintf "plan failed validation (%d violations):\n%s\n"
        (List.length vs) (Check.to_string vs);
      1
    | Sqlfront.Lexer.Lex_error (msg, pos) ->
      Printf.eprintf "SQL lexical error at offset %d: %s\n" pos msg; 1
    | Sqlfront.Parser.Parse_error msg ->
      Printf.eprintf "SQL parse error: %s\n" msg; 1
    | Algebra.Algebrizer.Resolve_error msg ->
      Printf.eprintf "name resolution error: %s\n" msg; 1
    | Algebra.Algebrizer.Unsupported msg ->
      Printf.eprintf "unsupported SQL construct: %s\n" msg; 1
    | Pdwopt.Optimizer.No_plan msg ->
      Printf.eprintf "optimization failed: %s\n" msg; 1
    | Fault.Exhausted { failure; attempts } ->
      Printf.eprintf "statement failed: retry budget exhausted after %d attempts (%s)\n"
        attempts (Fault.failure_to_string failure);
      1
    | Fault.Schedule_error msg ->
      Printf.eprintf "bad fault schedule: %s\n" msg; 1
    | Opdw.Feedback.Log.Parse_error msg ->
      Printf.eprintf "bad feedback log: %s\n" msg; 1
    | Sys_error msg ->
      Printf.eprintf "file error: %s\n" msg; 1
  in
  exit code
