(* The feedback loop: observation log persistence, miss detection, λ
   re-fitting, the LKG plan store's hysteresis machine, and the closed
   execution → calibration → fallback cycle end to end. *)

module Fb = Opdw.Feedback
module Log = Fb.Log
module Store = Fb.Store

let t name f = Alcotest.test_case name `Quick f
let checkf = Alcotest.(check (float 1e-9))

let geomean = function
  | [] -> 1.
  | xs ->
    exp (List.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (List.length xs))

let fresh_workload () = Opdw.Workload.tpch ~node_count:4 ~sf:0.002 ()

let sql_of id =
  match Tpch.Queries.find id with
  | Some q -> q.Tpch.Queries.sql
  | None -> Alcotest.fail ("no bundled query " ^ id)

(* -- the LKG plan store -- *)

let test_store_hysteresis () =
  let s = Store.create () in
  (* payloads are opaque to the store; strings suffice *)
  let ob ?(degraded = false) fp sim =
    Store.observe s ~statement:"q" ~fingerprint:fp ~degraded ~sim ~wall:0. fp
  in
  Alcotest.(check string) "first run sets LKG" "lkg-set"
    (Store.outcome_name (ob "A" 1.0));
  Alcotest.(check string) "in-band plan is recorded" "recorded"
    (Store.outcome_name (ob "B" 1.1));
  Alcotest.(check string) "first regression" "regressed(1)"
    (Store.outcome_name (ob "C" 1.5));
  Alcotest.(check string) "in-band run resets the streak" "recorded"
    (Store.outcome_name (ob "C" 1.0));
  Alcotest.(check string) "streak restarts from one" "regressed(1)"
    (Store.outcome_name (ob "C" 1.5));
  Alcotest.(check string) "second consecutive regression quarantines"
    "quarantined"
    (Store.outcome_name (ob "C" 1.6));
  Alcotest.(check bool) "C quarantined" true
    (Store.is_quarantined s ~statement:"q" ~fingerprint:"C");
  Alcotest.(check bool) "A not quarantined" false
    (Store.is_quarantined s ~statement:"q" ~fingerprint:"A");
  (* pre-execution resolution: quarantined fingerprints get the LKG *)
  (match Store.resolve s ~statement:"q" ~fingerprint:"C" with
   | Some p -> Alcotest.(check string) "fallback serves LKG payload" "A" p
   | None -> Alcotest.fail "expected an LKG fallback");
  Alcotest.(check bool) "LKG itself resolves to no substitution" true
    (Store.resolve s ~statement:"q" ~fingerprint:"A" = None);
  Alcotest.(check int) "fallbacks counted" 1 (Store.fallbacks s);
  Alcotest.(check int) "regressions counted" 3 (Store.regressions s);
  Alcotest.(check string) "strictly better plan is promoted" "lkg-improved"
    (Store.outcome_name (ob "D" 0.8));
  (match Store.lkg s "q" with
   | Some (fp, _, best) ->
     Alcotest.(check string) "LKG fingerprint" "D" fp;
     checkf "LKG best sim" 0.8 best
   | None -> Alcotest.fail "expected an LKG")

let test_store_degraded_never_lkg () =
  let s = Store.create () in
  let ob ~degraded fp sim =
    Store.observe s ~statement:"q" ~fingerprint:fp ~degraded ~sim ~wall:0. fp
  in
  Alcotest.(check string) "degraded before any LKG" "ignored-degraded"
    (Store.outcome_name (ob ~degraded:true "A" 0.5));
  Alcotest.(check bool) "no LKG from a degraded run" true (Store.lkg s "q" = None);
  Alcotest.(check string) "clean run sets LKG" "lkg-set"
    (Store.outcome_name (ob ~degraded:false "B" 1.0));
  Alcotest.(check string) "faster degraded run still ignored" "ignored-degraded"
    (Store.outcome_name (ob ~degraded:true "C" 0.1));
  match Store.lkg s "q" with
  | Some (fp, _, _) -> Alcotest.(check string) "LKG unchanged" "B" fp
  | None -> Alcotest.fail "expected an LKG"

(* -- log persistence -- *)

let sample_log () =
  let l = Log.create () in
  Log.append l
    { Log.r_statement = "select \"odd\"\nname from t";
      r_fingerprint = "v5;stats=3|tree";
      r_ops =
        [ { Log.o_group = 7; o_op = "HashJoin"; o_table = None;
            o_cols = [ ("lineitem", "l_orderkey"); ("orders", "o_orderkey") ];
            o_est = 1. /. 3.; o_actual = 12345.75 };
          { Log.o_group = 2; o_op = "TableScan"; o_table = Some "lineitem";
            o_cols = []; o_est = 0.; o_actual = 6001. } ];
      r_dms =
        [ { Log.d_component = Dms.Calibrate.Network; d_bytes = 8192.;
            d_seconds = 1.9073486e-05 };
          { Log.d_component = Dms.Calibrate.Blkcpy; d_bytes = 123.;
            d_seconds = 0.1 /. 7. } ];
      r_sim = 0.00123456789; r_wall = 0.25; r_degraded = false };
  Log.append l
    { Log.r_statement = "q2"; r_fingerprint = "fp2"; r_ops = []; r_dms = [];
      r_sim = 1e-9; r_wall = 0.; r_degraded = true };
  l

let test_log_roundtrip () =
  let l = sample_log () in
  let text = Log.to_string l in
  let back = Log.of_string text in
  Alcotest.(check int) "record count" 2 (Log.length back);
  (* structural float equality: the %h persistence must be bit-exact *)
  Alcotest.(check bool) "records round-trip bit-exact" true
    (Log.records back = Log.records l);
  Alcotest.(check bool) "render is stable" true (Log.to_string back = text)

let test_log_rejects_garbage () =
  let rejects what text =
    match Log.of_string text with
    | _ -> Alcotest.fail ("accepted " ^ what)
    | exception Log.Parse_error _ -> ()
  in
  rejects "unknown keyword" "# opdw feedback log v1\nbogus 1 2 3\n";
  rejects "op outside a record" "# opdw feedback log v1\nop 1 \"x\" \"-\" 0x0p+0 0x0p+0 -\n";
  rejects "unknown component"
    "# opdw feedback log v1\nrecord \"q\" \"fp\" 0x0p+0 0x0p+0 0\ndms warp 0x1p+3 0x1p-9\nend\n"

(* a line cut short is a Parse_error naming the line, not an End_of_file
   escaping from Scanf *)
let test_log_rejects_truncated () =
  let header = "# opdw feedback log v1\n" in
  let record = "record \"q\" \"fp\" 0x0p+0 0x0p+0 0\n" in
  let rejects what ~line text =
    match Log.of_string (header ^ text) with
    | _ -> Alcotest.fail ("accepted " ^ what)
    | exception Log.Parse_error m ->
      let prefix = Printf.sprintf "line %d:" line in
      Alcotest.(check string) (what ^ " names its line") prefix
        (String.sub m 0 (min (String.length m) (String.length prefix)))
  in
  rejects "record with only a statement" ~line:2 "record \"a\"\n";
  rejects "record without the degraded flag" ~line:2
    "record \"a\" \"b\" 0x1p0 0x1p0\n";
  rejects "op without its estimates" ~line:3 (record ^ "op 1 \"Filter\"\n");
  rejects "op without its observed rows" ~line:3
    (record ^ "op 1 \"Filter\" \"\" 0x1p0\n");
  rejects "dms without seconds" ~line:3 (record ^ "dms network 0x1p+3\n")

(* -- miss detection -- *)

let test_misses_columns () =
  let op ~est ~actual cols =
    { Log.o_group = 0; o_op = "Filter"; o_table = None; o_cols = cols;
      o_est = est; o_actual = actual }
  in
  let rc ops =
    { Log.r_statement = "q"; r_fingerprint = "fp"; r_ops = ops; r_dms = [];
      r_sim = 0.; r_wall = 0.; r_degraded = false }
  in
  let recs =
    [ rc
        [ op ~est:999. ~actual:9. [ ("T", "A") ];       (* 100x miss *)
          op ~est:10. ~actual:11. [ ("t", "b") ] ];     (* within threshold *)
      rc [ op ~est:9. ~actual:999. [ ("t", "a"); ("u", "c") ] ] ]
  in
  match Fb.Misses.columns ~threshold:2.0 recs with
  | [ a; c ] ->
    (* sorted by (table, column); keys lowercased and deduplicated *)
    Alcotest.(check string) "first table" "t" a.Fb.Misses.m_table;
    Alcotest.(check string) "first column" "a" a.Fb.Misses.m_column;
    Alcotest.(check int) "both misses counted" 2 a.Fb.Misses.m_ops;
    checkf "worst ratio" 100. a.Fb.Misses.m_worst;
    Alcotest.(check string) "second table" "u" c.Fb.Misses.m_table;
    Alcotest.(check string) "second column" "c" c.Fb.Misses.m_column
  | ms -> Alcotest.fail (Printf.sprintf "expected 2 missed columns, got %d" (List.length ms))

(* -- λ re-fitting -- *)

let test_lambda_fit () =
  let k = 2.5e-9 in
  let dms bytes =
    { Log.d_component = Dms.Calibrate.Network; d_bytes = bytes;
      d_seconds = k *. bytes }
  in
  let recs =
    [ { Log.r_statement = "q"; r_fingerprint = "fp";
        r_ops = []; r_dms = [ dms 1024.; dms 65536.; dms 300. ];
        r_sim = 0.; r_wall = 0.; r_degraded = false } ]
  in
  let lambdas, fits = Fb.Lambda.fit recs in
  Alcotest.(check (float 1e-15)) "network λ recovered" k
    lambdas.Dms.Cost.l_network;
  (* components with no observations keep the base value *)
  checkf "writer λ kept" Dms.Cost.default_lambdas.Dms.Cost.l_writer
    lambdas.Dms.Cost.l_writer;
  let net =
    List.find
      (fun (f : Fb.Lambda.fit) -> f.Fb.Lambda.f_component = Dms.Calibrate.Network)
      fits
  in
  Alcotest.(check int) "sample count" 3 net.Fb.Lambda.f_samples;
  Alcotest.(check bool) "perfect fit" true (net.Fb.Lambda.f_error < 1e-9)

(* -- catalog plumbing -- *)

let test_update_col_stats_bumps_version () =
  let sh = Fixtures.mini_shell () in
  let v0 = Catalog.Shell_db.stats_version sh in
  Catalog.Shell_db.update_col_stats sh "cust" "ck" (Catalog.Col_stats.make ());
  Alcotest.(check int) "stats_version bumped" (v0 + 1)
    (Catalog.Shell_db.stats_version sh);
  Alcotest.(check bool) "unknown table rejected" true
    (match Catalog.Shell_db.update_col_stats sh "nope" "x" (Catalog.Col_stats.make ()) with
     | () -> false
     | exception Invalid_argument _ -> true)

(* -- the closed loop, end to end -- *)

let model_err (oc : Fb.run_outcome) =
  Fb.model_error oc.Fb.res ~dms_time:oc.Fb.observed_dms

let test_calibrate_improves_model_error () =
  let w = fresh_workload () in
  let fb = Fb.create w.Opdw.Workload.shell w.Opdw.Workload.app in
  let sqls = List.map sql_of [ "Q1"; "Q3"; "Q6" ] in
  let before = List.map (fun s -> model_err (Fb.run fb s)) sqls in
  let v0 = Catalog.Shell_db.stats_version w.Opdw.Workload.shell in
  let cal = Fb.calibrate fb in
  Alcotest.(check int) "epoch bumped" 1 cal.Fb.new_epoch;
  Alcotest.(check bool) "some column refined" true (cal.Fb.refined <> []);
  Alcotest.(check bool) "stats_version advanced" true
    (Catalog.Shell_db.stats_version w.Opdw.Workload.shell > v0);
  let after = List.map (fun s -> model_err (Fb.run fb s)) sqls in
  Alcotest.(check bool)
    (Printf.sprintf "geomean error shrank (%.4g -> %.4g)" (geomean before)
       (geomean after))
    true
    (geomean after < geomean before)

let test_bounds_sound_after_refinement () =
  (* R11 soundness: executed row counts must stay inside the analyzer's
     static bounds computed from the refined statistics *)
  let w = fresh_workload () in
  let shell = w.Opdw.Workload.shell and app = w.Opdw.Workload.app in
  let fb = Fb.create shell app in
  let sql = sql_of "Q3" in
  ignore (Fb.run fb sql);
  ignore (Fb.calibrate fb);
  let r =
    Opdw.optimize ~options:(Fb.options fb) ~cache:(Fb.plan_cache fb) shell sql
  in
  let actx =
    Analysis.context ~shell ~reg:r.Opdw.memo.Memo.reg
      ~nodes:(Fb.options fb).Opdw.pdw.Pdwopt.Enumerate.nodes
  in
  let observe, violations =
    Analysis.bounds_observer (Analysis.group_bounds actx (Opdw.plan r))
  in
  ignore (Fb.run ~observe fb sql);
  Alcotest.(check int) "no bound violations post-refinement" 0 (violations ())

let test_regression_falls_back_to_lkg () =
  let w = fresh_workload () in
  let shell = w.Opdw.Workload.shell in
  let fb = Fb.create shell w.Opdw.Workload.app in
  let sql = sql_of "Q3" in
  let oc1 = Fb.run fb sql in
  Alcotest.(check string) "round 1 sets LKG" "lkg-set"
    (Store.outcome_name oc1.Fb.store_outcome);
  (* adversarial stats skew: the optimizer now believes lineitem is tiny,
     recompiles, and picks a regressing movement strategy *)
  let tbl = Catalog.Shell_db.find_exn shell "lineitem" in
  Catalog.Shell_db.set_stats shell "lineitem"
    { tbl.Catalog.Shell_db.stats with Catalog.Tbl_stats.row_count = 10. };
  let oc2 = Fb.run fb sql in
  let oc3 = Fb.run fb sql in
  let oc4 = Fb.run fb sql in
  Alcotest.(check string) "round 2 regresses" "regressed(1)"
    (Store.outcome_name oc2.Fb.store_outcome);
  Alcotest.(check string) "round 3 quarantines" "quarantined"
    (Store.outcome_name oc3.Fb.store_outcome);
  Alcotest.(check bool) "round 4 serves the LKG fallback" true oc4.Fb.fellback;
  Alcotest.(check string) "fallback runs the LKG plan"
    (Option.get oc1.Fb.res.Opdw.fingerprint)
    (Option.get oc4.Fb.res.Opdw.fingerprint);
  Alcotest.(check bool) "fallback rows are the round-1 rows" true
    (Engine.Local.canonical oc4.Fb.rows = Engine.Local.canonical oc1.Fb.rows);
  Alcotest.(check int) "one fallback counted" 1 (Store.fallbacks (Fb.store fb))

let test_plan_identity_across_jobs () =
  (* the whole loop — run, calibrate, run — is a pure function of the log
     and the seed: any --jobs yields bit-identical plans, sims and λs *)
  let cycle jobs =
    Par.with_pool ~jobs @@ fun pool ->
    let w = fresh_workload () in
    Engine.Appliance.set_pool w.Opdw.Workload.app pool;
    let fb = Fb.create w.Opdw.Workload.shell w.Opdw.Workload.app in
    let sql = sql_of "Q3" in
    ignore (Fb.run fb sql);
    let cal = Fb.calibrate fb in
    let oc = Fb.run fb sql in
    (Option.get oc.Fb.res.Opdw.fingerprint, oc.Fb.observed_sim, cal.Fb.lambdas)
  in
  let f1, s1, l1 = cycle 1 in
  let f4, s4, l4 = cycle 4 in
  Alcotest.(check string) "fingerprints identical at jobs 1 vs 4" f1 f4;
  Alcotest.(check bool) "simulated time bit-identical" true (s1 = s4);
  Alcotest.(check bool) "re-fitted λs bit-identical" true (l1 = l4)

(* one harvest: the feedback and elastic drivers log the same statement's
   per-operator observations through the same observer *)
let test_one_harvest () =
  let w = fresh_workload () in
  let shell = w.Opdw.Workload.shell and app = w.Opdw.Workload.app in
  let sql = sql_of "Q3" in
  let fb = Fb.create shell app in
  let oc = Fb.run fb sql in
  let el = Topology.Elastic.create ~fault:Fault.none shell app in
  let r, _ = Topology.Elastic.run el sql in
  Alcotest.(check string) "same plan" (Opdw.explain oc.Fb.res) (Opdw.explain r);
  let ops log =
    match List.rev (Log.records log) with
    | last :: _ -> last.Log.r_ops
    | [] -> Alcotest.fail "no record appended"
  in
  let fb_ops = ops (Fb.log fb) in
  Alcotest.(check bool) "harvested something" true (fb_ops <> []);
  Alcotest.(check bool) "identical r_ops" true (fb_ops = ops (Topology.Elastic.log el))

(* the observer is called in the caller domain in plan order: the call
   sequence is identical at any --jobs *)
let test_observer_sequence_across_jobs () =
  let calls jobs =
    Par.with_pool ~jobs @@ fun pool ->
    let w = fresh_workload () in
    Engine.Appliance.set_pool w.Opdw.Workload.app pool;
    let r = Opdw.optimize w.Opdw.Workload.shell (sql_of "Q3") in
    let reg = r.Opdw.memo.Memo.reg in
    let seen = ref [] in
    let observe (p : Pdwopt.Pplan.t) rows =
      seen :=
        (p.Pdwopt.Pplan.group, Pdwopt.Pplan.op_to_string reg p.Pdwopt.Pplan.op, rows)
        :: !seen
    in
    ignore (Opdw.run ~observe w.Opdw.Workload.app r);
    List.rev !seen
  in
  let c1 = calls 1 in
  Alcotest.(check bool) "observer called" true (c1 <> []);
  Alcotest.(check bool) "same call sequence at jobs 1 vs 4" true (c1 = calls 4)

let suite =
  [ t "store: hysteresis / quarantine / fallback" test_store_hysteresis;
    t "store: degraded never LKG" test_store_degraded_never_lkg;
    t "log: bit-exact round-trip" test_log_roundtrip;
    t "log: rejects garbage" test_log_rejects_garbage;
    t "misses: threshold, dedup, order" test_misses_columns;
    t "lambda: fit recovers λ, keeps base" test_lambda_fit;
    t "catalog: update_col_stats bumps version" test_update_col_stats_bumps_version;
    t "loop: calibration shrinks model error" test_calibrate_improves_model_error;
    t "loop: bounds stay sound after refinement" test_bounds_sound_after_refinement;
    t "loop: regression falls back to LKG" test_regression_falls_back_to_lkg;
    t "loop: plan identity at jobs 1 vs 4" test_plan_identity_across_jobs;
    t "harvest: feedback and elastic log identical ops" test_one_harvest;
    t "harvest: observer sequence at jobs 1 vs 4" test_observer_sequence_across_jobs;
    t "log: truncated lines are parse errors" test_log_rejects_truncated ]
