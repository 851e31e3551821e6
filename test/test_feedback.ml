(* The feedback loop: observation log persistence, miss detection, λ
   re-fitting, the LKG plan store's hysteresis machine, and the closed
   execution → calibration → fallback cycle end to end. *)

module Fb = Opdw.Feedback
module D = Opdw.Driver
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

(* a feedback driver (plan store attached), and one statement served
   from a zeroed account, so its observed cost is the whole account *)
let feedback_driver shell app = D.create ~regress_factor:1.2 shell app

let serve ?observe d sql =
  D.reset d;
  D.returned (D.run ?observe d sql)

let model_err (oc : D.served) =
  Fb.model_error oc.D.res ~dms_time:oc.D.observed_dms

let test_calibrate_improves_model_error () =
  let w = fresh_workload () in
  let fb = feedback_driver w.Opdw.Workload.shell w.Opdw.Workload.app in
  let sqls = List.map sql_of [ "Q1"; "Q3"; "Q6" ] in
  let before = List.map (fun s -> model_err (serve fb s)) sqls in
  let v0 = Catalog.Shell_db.stats_version w.Opdw.Workload.shell in
  let cal = Fb.calibrate fb in
  Alcotest.(check int) "epoch bumped" 1 cal.Fb.new_epoch;
  Alcotest.(check bool) "some column refined" true (cal.Fb.refined <> []);
  Alcotest.(check bool) "stats_version advanced" true
    (Catalog.Shell_db.stats_version w.Opdw.Workload.shell > v0);
  let after = List.map (fun s -> model_err (serve fb s)) sqls in
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
  let fb = feedback_driver shell app in
  let sql = sql_of "Q3" in
  ignore (serve fb sql);
  ignore (Fb.calibrate fb);
  let r =
    Opdw.optimize ~options:(D.options fb) ?cache:(D.cache fb) shell sql
  in
  let actx =
    Analysis.context ~shell ~reg:r.Opdw.memo.Memo.reg
      ~nodes:(D.options fb).Opdw.pdw.Pdwopt.Enumerate.nodes
  in
  let observe, violations =
    Check.bounds_observer (Check.group_bounds actx (Opdw.plan r))
  in
  ignore (serve ~observe fb sql);
  Alcotest.(check int) "no bound violations post-refinement" 0 (violations ())

let test_regression_falls_back_to_lkg () =
  let w = fresh_workload () in
  let shell = w.Opdw.Workload.shell in
  let fb = feedback_driver shell w.Opdw.Workload.app in
  let sql = sql_of "Q3" in
  let oc1 = serve fb sql in
  Alcotest.(check string) "round 1 sets LKG" "lkg-set"
    (Store.outcome_name (Option.get oc1.D.store_outcome));
  (* adversarial stats skew: the optimizer now believes lineitem is tiny,
     recompiles, and picks a regressing movement strategy *)
  let tbl = Catalog.Shell_db.find_exn shell "lineitem" in
  Catalog.Shell_db.set_stats shell "lineitem"
    { tbl.Catalog.Shell_db.stats with Catalog.Tbl_stats.row_count = 10. };
  let oc2 = serve fb sql in
  let oc3 = serve fb sql in
  let oc4 = serve fb sql in
  Alcotest.(check string) "round 2 regresses" "regressed(1)"
    (Store.outcome_name (Option.get oc2.D.store_outcome));
  Alcotest.(check string) "round 3 quarantines" "quarantined"
    (Store.outcome_name (Option.get oc3.D.store_outcome));
  Alcotest.(check bool) "round 4 serves the LKG fallback" true oc4.D.fellback;
  Alcotest.(check string) "fallback runs the LKG plan"
    (Option.get oc1.D.res.Opdw.fingerprint)
    (Option.get oc4.D.res.Opdw.fingerprint);
  Alcotest.(check bool) "fallback rows are the round-1 rows" true
    (Engine.Local.canonical oc4.D.rows = Engine.Local.canonical oc1.D.rows);
  Alcotest.(check int) "one fallback counted" 1 (Store.fallbacks (Option.get (D.store fb)))

(* an LKG serves only the catalog it was placed on: after a node loss
   the survivors' plan can be quarantined, but the 4-node LKG must not
   run on the 3-node appliance *)
let test_lkg_stays_on_its_catalog () =
  let w = fresh_workload () in
  let fb = feedback_driver w.Opdw.Workload.shell w.Opdw.Workload.app in
  let sql = sql_of "Q3" in
  let oc1 = serve fb sql in
  D.install fb (Engine.Appliance.decommission (D.app fb) ~node:0);
  let shell = D.shell fb in
  let tbl = Catalog.Shell_db.find_exn shell "lineitem" in
  Catalog.Shell_db.set_stats shell "lineitem"
    { tbl.Catalog.Shell_db.stats with Catalog.Tbl_stats.row_count = 10. };
  let outcomes = List.init 3 (fun _ -> serve fb sql) in
  Alcotest.(check (list string)) "the survivors' plan regresses into quarantine"
    [ "regressed(1)"; "quarantined" ]
    (List.map
       (fun oc -> Store.outcome_name (Option.get oc.D.store_outcome))
       (List.filteri (fun i _ -> i < 2) outcomes));
  let oc4 = List.nth outcomes 2 in
  Alcotest.(check bool) "no fallback to another catalog's LKG" false oc4.D.fellback;
  Alcotest.(check bool) "rows are the round-1 rows" true
    (Engine.Local.canonical oc4.D.rows = Engine.Local.canonical oc1.D.rows)

let test_plan_identity_across_jobs () =
  (* the whole loop — run, calibrate, run — is a pure function of the log
     and the seed: any --jobs yields bit-identical plans, sims and λs *)
  let cycle jobs =
    Par.with_pool ~jobs @@ fun pool ->
    let w = fresh_workload () in
    Engine.Appliance.set_pool w.Opdw.Workload.app pool;
    let fb = feedback_driver w.Opdw.Workload.shell w.Opdw.Workload.app in
    let sql = sql_of "Q3" in
    ignore (serve fb sql);
    let cal = Fb.calibrate fb in
    let oc = serve fb sql in
    (Option.get oc.D.res.Opdw.fingerprint, oc.D.observed_sim, cal.Fb.lambdas)
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
  let fb = feedback_driver shell app in
  let oc = serve fb sql in
  let el = Topology.Elastic.create ~fault:Fault.none shell app in
  let r, _ = Topology.Elastic.run el sql in
  Alcotest.(check string) "same plan" (Opdw.explain oc.D.res) (Opdw.explain r);
  let ops log =
    match List.rev (Log.records log) with
    | last :: _ -> last.Log.r_ops
    | [] -> Alcotest.fail "no record appended"
  in
  let fb_ops = ops (D.log fb) in
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

(* -- regression pin: the three entry points before the one driver -- *)

(* Recorded through [Governed.run], [Feedback.run] and [Elastic.run
   ~fault:Fault.none] before they became one driver: for Q3 then Q10 on
   one fresh 4-node SF 0.002 appliance per entry point, the MD5 of the
   canonical rows, the account's sim_time / dms_time / bytes_moved after
   the statement (hex floats, compared exactly), and the last log
   record's r_ops digest and r_fingerprint digest with its r_sim. The
   governed path kept no log. Governed and feedback statements start from
   a zeroed account; the elastic account is cumulative. *)
let pinned =
  [ ("governed", "Q3", "67886295abb388d67ba742aca205191c",
     "0x1.32acb4ae39e61p-11 0x1.a5d6b996ac57dp-13 0x1.2cp+10", "-", "-");
    ("governed", "Q10", "be9658f87b5eacee95f0ca569dc7e0c2",
     "0x1.1747380fa7c7ap-11 0x1.a813ac709100bp-13 0x1.0d98p+13", "-", "-");
    ("feedback", "Q3", "67886295abb388d67ba742aca205191c",
     "0x1.32acb4ae39e61p-11 0x1.a5d6b996ac57dp-13 0x1.2cp+10",
     "8242b5ad135ff2b9851a90d5de02dbf5",
     "d33d04f5c5865f37ce867eb648c197b2 0x1.32acb4ae39e61p-11");
    ("feedback", "Q10", "be9658f87b5eacee95f0ca569dc7e0c2",
     "0x1.1747380fa7c7ap-11 0x1.a813ac709100bp-13 0x1.0d98p+13",
     "df7ce3e72a977806b38bd0ae435f3a5d",
     "47984aed85f77081ab21084bd616edcc 0x1.1747380fa7c7ap-11");
    ("elastic", "Q3", "67886295abb388d67ba742aca205191c",
     "0x1.32acb4ae39e61p-11 0x1.a5d6b996ac57dp-13 0x1.2cp+10",
     "8242b5ad135ff2b9851a90d5de02dbf5",
     "d41d8cd98f00b204e9800998ecf8427e 0x1.32acb4ae39e61p-11");
    ("elastic", "Q10", "be9658f87b5eacee95f0ca569dc7e0c2",
     "0x1.24f9f65ef0d6ep-10 0x1.a6f533039eac4p-12 0x1.3318p+13",
     "df7ce3e72a977806b38bd0ae435f3a5d",
     "d41d8cd98f00b204e9800998ecf8427e 0x1.1747380fa7c7bp-11") ]

let test_driver_pins () =
  let digest s = Digest.to_hex (Digest.string s) in
  let ops (os : Log.op_obs list) =
    digest
      (String.concat ";"
         (List.map
            (fun (o : Log.op_obs) ->
               Printf.sprintf "%d %s %s %s %h %h" o.Log.o_group o.Log.o_op
                 (Option.value o.Log.o_table ~default:"-")
                 (String.concat "," (List.map (fun (t, c) -> t ^ ":" ^ c) o.Log.o_cols))
                 o.Log.o_est o.Log.o_actual)
            os))
  in
  let pin entry serve log =
    List.map
      (fun id ->
         let rows, app = serve (sql_of id) in
         let a = app.Engine.Appliance.account in
         let r_ops, r_fp =
           match log with
           | None -> ("-", "-")
           | Some log ->
             let r = List.hd (List.rev (Log.records log)) in
             (ops r.Log.r_ops,
              Printf.sprintf "%s %h" (digest r.Log.r_fingerprint) r.Log.r_sim)
         in
         (entry, id, digest (String.concat "\n" (Engine.Local.canonical rows)),
          Printf.sprintf "%h %h %h" a.Engine.Appliance.sim_time
            a.Engine.Appliance.dms_time a.Engine.Appliance.bytes_moved,
          r_ops, r_fp))
      [ "Q3"; "Q10" ]
  in
  let driver ?regress_factor entry =
    let w = fresh_workload () in
    let d = D.create ?regress_factor w.Opdw.Workload.shell w.Opdw.Workload.app in
    pin entry
      (fun sql -> ((serve d sql).D.rows, D.app d))
      (if regress_factor = None then None else Some (D.log d))
  in
  let elastic () =
    let w = fresh_workload () in
    let el = Topology.Elastic.create ~fault:Fault.none w.Opdw.Workload.shell w.Opdw.Workload.app in
    pin "elastic" (fun sql -> (snd (Topology.Elastic.run el sql), D.app el)) (Some (D.log el))
  in
  let got = driver "governed" @ driver ~regress_factor:1.2 "feedback" @ elastic () in
  List.iter2
    (fun (e, id, rows, acct, r_ops, r_fp) (_, _, rows', acct', r_ops', r_fp') ->
       let what k = Printf.sprintf "%s %s %s" e id k in
       Alcotest.(check string) (what "rows") rows rows';
       Alcotest.(check string) (what "sim/dms/bytes") acct acct';
       Alcotest.(check string) (what "r_ops") r_ops r_ops';
       Alcotest.(check string) (what "r_fingerprint, r_sim") r_fp r_fp')
    pinned got

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
    t "log: truncated lines are parse errors" test_log_rejects_truncated;
    t "driver: pinned rows, accounts and log records" test_driver_pins;
    t "driver: an LKG serves only its own catalog" test_lkg_stays_on_its_catalog ]
