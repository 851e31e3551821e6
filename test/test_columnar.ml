(* The columnar engine against its oracle: the row engine is the semantics
   reference, and every kernel in Engine.Batch must reproduce it value for
   value AND row for row — including the simulated clock, which must be
   bit-identical across engines and at any --jobs. *)

module Value = Catalog.Value
module Column = Catalog.Column
module Expr = Algebra.Expr
module Physop = Memo.Physop

(* -- literal-input operator harness: run one physical operator on both
   engines and demand identical layout + rows (order-sensitive) -- *)

let no_tables _ = failwith "no base tables in this test"

let rset layout rows = { Engine.Local.layout; rows }

let both op (children : Engine.Local.rset list) =
  let row = Engine.Local.exec_op ~read_table:no_tables op children in
  let col =
    Engine.Batch.to_rset
      (Engine.Batch.exec_op ~read_table:no_tables op
         (List.map Engine.Batch.of_rset children))
  in
  (row, col)

let pp_rset fmt (r : Engine.Local.rset) =
  Format.fprintf fmt "[%s] %s"
    (String.concat "," (List.map string_of_int r.Engine.Local.layout))
    (String.concat "; "
       (List.map
          (fun row ->
             String.concat "|" (List.map Value.to_string (Array.to_list row)))
          r.Engine.Local.rows))

let rset_t = Alcotest.testable pp_rset ( = )

let check_both msg op children =
  let row, col = both op children in
  Alcotest.check rset_t msg row col;
  row

(* -- column builders -- *)

let test_builder_roundtrip () =
  let cases =
    [ ("ints", [ Value.Int 1; Value.Int (-7); Value.Int max_int ]);
      ("ints+null", [ Value.Int 3; Value.Null; Value.Int 0 ]);
      ("floats", [ Value.Float 1.5; Value.Null; Value.Float (-0.25) ]);
      ("dates", [ Value.Date 9131; Value.Date 0 ]);
      ("bools", [ Value.Bool true; Value.Null; Value.Bool false ]);
      ("strings", [ Value.String "a"; Value.Null; Value.String "" ]);
      ("all nulls", [ Value.Null; Value.Null ]);
      ("mixed types", [ Value.Int 1; Value.Float 2.5; Value.String "x"; Value.Null ]);
      ("int then float", [ Value.Int 4; Value.Float 4.5 ]);
      ("empty", []) ]
  in
  List.iter
    (fun (msg, vs) ->
       let c = Column.of_value_list vs in
       Alcotest.(check int) (msg ^ ": length") (List.length vs) (Column.length c);
       Alcotest.(check bool) (msg ^ ": round-trip") true
         (Array.to_list (Column.to_values c) = vs))
    cases

let test_builder_typed_layout () =
  (* representation checks: homogeneous data must land in typed columns *)
  let is_ints = function Column.Ints _ -> true | _ -> false in
  let is_floats = function Column.Floats _ -> true | _ -> false in
  let is_boxed = function Column.Boxed _ -> true | _ -> false in
  Alcotest.(check bool) "ints are typed" true
    (is_ints (Column.of_value_list [ Value.Int 1; Value.Null; Value.Int 2 ]));
  Alcotest.(check bool) "dates are typed" true
    (is_ints (Column.of_value_list [ Value.Date 1; Value.Date 2 ]));
  Alcotest.(check bool) "floats are typed" true
    (is_floats (Column.of_value_list [ Value.Float 1.; Value.Null ]));
  Alcotest.(check bool) "type mixes demote to boxed" true
    (is_boxed (Column.of_value_list [ Value.Int 1; Value.Float 2. ]));
  Alcotest.(check bool) "strings are boxed" true
    (is_boxed (Column.of_value_list [ Value.String "s" ]))

let test_table_roundtrip () =
  let rows =
    [ [| Value.Int 1; Value.String "a"; Value.Float 0.5 |];
      [| Value.Int 2; Value.Null; Value.Float 1.5 |];
      [| Value.Null; Value.String "c"; Value.Null |] ]
  in
  let t = Column.table_of_rows ~width:3 rows in
  Alcotest.(check bool) "table round-trip" true (Column.table_rows t = rows)

(* -- selection-vector edge cases -- *)

let lit_true = Expr.Lit (Value.Bool true)
let lit_false = Expr.Lit (Value.Bool false)

let sample =
  rset [ 10; 11 ]
    [ [| Value.Int 1; Value.Float 10. |];
      [| Value.Int 2; Value.Null |];
      [| Value.Null; Value.Float 30. |];
      [| Value.Int 2; Value.Float 40. |] ]

let test_filter_edges () =
  (* empty input batch *)
  ignore (check_both "filter of empty" (Physop.Filter lit_true) [ rset [ 10 ] [] ]);
  (* all rows filtered out *)
  let r = check_both "all-filtered" (Physop.Filter lit_false) [ sample ] in
  Alcotest.(check int) "all-filtered is empty" 0 (List.length r.Engine.Local.rows);
  (* null in the predicate column: UNKNOWN drops the row *)
  let pred = Expr.Bin (Expr.Gt, Expr.Col 10, Expr.Lit (Value.Int 1)) in
  let r = check_both "null-key filter" (Physop.Filter pred) [ sample ] in
  Alcotest.(check int) "nulls dropped" 2 (List.length r.Engine.Local.rows);
  (* chained: filter over an already-narrowed selection (sel-of-sel) *)
  let b = Engine.Batch.of_rset sample in
  let once = Engine.Batch.exec_op ~read_table:no_tables (Physop.Filter pred) [ b ] in
  let twice =
    Engine.Batch.exec_op ~read_table:no_tables
      (Physop.Filter (Expr.Bin (Expr.Lt, Expr.Col 11, Expr.Lit (Value.Float 35.))))
      [ once ]
  in
  Alcotest.(check int) "sel-of-sel narrows" 0
    (List.length (Engine.Batch.to_rset twice).Engine.Local.rows)

let agg ?(distinct = false) out func arg =
  { Expr.agg_out = out; agg_func = func; agg_arg = arg; agg_distinct = distinct }

let test_aggregate_nulls () =
  (* nulls are skipped by every aggregate; empty/all-null input gives
     COUNT 0 and Null for SUM/AVG/MIN/MAX *)
  let aggs =
    [ agg 20 Expr.Sum (Some (Expr.Col 11));
      agg 21 Expr.Avg (Some (Expr.Col 11));
      agg 22 Expr.Count (Some (Expr.Col 11));
      agg 23 Expr.Min (Some (Expr.Col 11));
      agg 24 Expr.Count_star None ]
  in
  let r =
    check_both "grouped agg with nulls"
      (Physop.Hash_agg { keys = [ 10 ]; aggs }) [ sample ]
  in
  Alcotest.(check int) "group count (null is its own group)" 3
    (List.length r.Engine.Local.rows);
  (* global aggregate over an all-null column *)
  let nullcol = rset [ 11 ] [ [| Value.Null |]; [| Value.Null |] ] in
  let r = check_both "all-null global agg" (Physop.Hash_agg { keys = []; aggs }) [ nullcol ] in
  (match r.Engine.Local.rows with
   | [ [| s; a; c; m; cs |] ] ->
     Alcotest.(check bool) "SUM all-null = Null" true (s = Value.Null);
     Alcotest.(check bool) "AVG all-null = Null" true (a = Value.Null);
     Alcotest.(check bool) "COUNT skips nulls" true (c = Value.Int 0);
     Alcotest.(check bool) "MIN all-null = Null" true (m = Value.Null);
     Alcotest.(check bool) "COUNT star counts rows" true (cs = Value.Int 2)
   | _ -> Alcotest.fail "expected one output row");
  (* global aggregate over the empty input: one row, COUNTs 0 *)
  ignore
    (check_both "empty global agg" (Physop.Hash_agg { keys = []; aggs })
       [ rset [ 10; 11 ] [] ]);
  (* grouped aggregate over empty input: no rows *)
  let r =
    check_both "empty grouped agg" (Physop.Hash_agg { keys = [ 10 ]; aggs })
      [ rset [ 10; 11 ] [] ]
  in
  Alcotest.(check int) "no groups from no rows" 0 (List.length r.Engine.Local.rows);
  (* DISTINCT path *)
  ignore
    (check_both "distinct agg"
       (Physop.Hash_agg
          { keys = []; aggs = [ agg 20 Expr.Count (Some (Expr.Col 10)) ] })
       [ sample ]);
  ignore
    (check_both "distinct sum"
       (Physop.Hash_agg
          { keys = [];
            aggs = [ agg ~distinct:true 20 Expr.Sum (Some (Expr.Col 10)) ] })
       [ sample ])

let test_join_edges () =
  let left = sample in
  let right =
    rset [ 20; 21 ]
      [ [| Value.Int 2; Value.String "b" |];
        [| Value.Int 3; Value.String "c" |];
        [| Value.Null; Value.String "n" |] ]
  in
  let eq = Expr.Bin (Expr.Eq, Expr.Col 10, Expr.Col 20) in
  List.iter
    (fun (msg, kind) ->
       ignore
         (check_both msg (Physop.Hash_join { kind; pred = eq }) [ left; right ]))
    [ ("inner join", Algebra.Relop.Inner); ("left outer join", Algebra.Relop.Left_outer);
      ("semi join", Algebra.Relop.Semi); ("anti join", Algebra.Relop.Anti_semi) ];
  (* empty sides *)
  let nil = rset [ 20; 21 ] [] in
  ignore (check_both "join empty build" (Physop.Hash_join { kind = Algebra.Relop.Inner; pred = eq })
            [ left; nil ]);
  ignore (check_both "outer join empty build"
            (Physop.Hash_join { kind = Algebra.Relop.Left_outer; pred = eq }) [ left; nil ]);
  ignore (check_both "join empty probe"
            (Physop.Hash_join { kind = Algebra.Relop.Inner; pred = eq }) [ rset [ 10; 11 ] []; right ]);
  (* non-equi predicate: falls back to nested loops on both engines *)
  let lt = Expr.Bin (Expr.Lt, Expr.Col 10, Expr.Col 20) in
  ignore (check_both "non-equi join"
            (Physop.Hash_join { kind = Algebra.Relop.Inner; pred = lt }) [ left; right ])

(* -- end-to-end: both engines over the whole bundled workload -- *)

let canonical_and_time (w : Opdw.Workload.t) sql =
  let app = w.Opdw.Workload.app in
  Engine.Appliance.reset_account app;
  let r = Opdw.optimize w.Opdw.Workload.shell sql in
  let res = Opdw.run app r in
  let cols = List.map snd (Opdw.output_columns r) in
  (Engine.Local.canonical ~cols res,
   app.Engine.Appliance.account.Engine.Appliance.sim_time)

let test_workload_parity () =
  let wr = Lazy.force Fixtures.tpch_workload in
  let wc = Lazy.force Fixtures.tpch_columnar in
  List.iter
    (fun (q : Tpch.Queries.t) ->
       let rows_r, sim_r = canonical_and_time wr q.Tpch.Queries.sql in
       let rows_c, sim_c = canonical_and_time wc q.Tpch.Queries.sql in
       Alcotest.(check (list string))
         (q.Tpch.Queries.id ^ ": rows match the row engine") rows_r rows_c;
       Alcotest.(check (float 0.))
         (q.Tpch.Queries.id ^ ": simulated clock is bit-identical") sim_r sim_c)
    Tpch.Queries.all

(* qcheck: random plans agree across engines (rows and simulated time) *)
let prop_random_parity =
  let wr = lazy (Opdw.Workload.tpch ~node_count:4 ~sf:0.001 ()) in
  let wc =
    lazy (Opdw.Workload.tpch ~node_count:4 ~sf:0.001 ~engine:Engine.Rset.Columnar ())
  in
  QCheck.Test.make ~name:"random queries: columnar == row (rows and sim clock)"
    ~count:60 Test_fuzz.arb_query
    (fun q ->
       let sql = q.Test_fuzz.sql in
       let rows_r, sim_r = canonical_and_time (Lazy.force wr) sql in
       let rows_c, sim_c = canonical_and_time (Lazy.force wc) sql in
       if rows_r <> rows_c then QCheck.Test.fail_report ("row mismatch: " ^ sql);
       if sim_r <> sim_c then QCheck.Test.fail_report ("sim-clock mismatch: " ^ sql);
       true)

(* -- fault schedules: retries/recovery must not disturb engine parity -- *)

let chaos_once engine sql =
  let w = Opdw.Workload.tpch ~node_count:4 ~sf:0.002 ~engine () in
  let fault = Fault.seeded ~seed:11 ~rate:0.25 () in
  let ctx = Topology.Elastic.create ~fault w.Opdw.Workload.shell w.Opdw.Workload.app in
  let r, res = Topology.Elastic.run ctx sql in
  let cols = List.map snd (Opdw.output_columns r) in
  let a = (Topology.Elastic.app ctx).Engine.Appliance.account in
  (Engine.Local.canonical ~cols res, a.Engine.Appliance.sim_time,
   a.Engine.Appliance.injected, a.Engine.Appliance.retries)

let test_fault_parity () =
  List.iter
    (fun id ->
       let q = Option.get (Tpch.Queries.find id) in
       let rows_r, sim_r, inj_r, ret_r = chaos_once Engine.Rset.Row q.Tpch.Queries.sql in
       let rows_c, sim_c, inj_c, ret_c =
         chaos_once Engine.Rset.Columnar q.Tpch.Queries.sql
       in
       Alcotest.(check (list string)) (id ^ ": rows under faults") rows_r rows_c;
       Alcotest.(check (float 0.)) (id ^ ": sim clock under faults") sim_r sim_c;
       Alcotest.(check int) (id ^ ": same faults fired") inj_r inj_c;
       Alcotest.(check int) (id ^ ": same retries") ret_r ret_c)
    [ "Q3"; "Q6" ]

(* -- the simulated clock is jobs-independent on the columnar engine -- *)

let test_jobs_independence () =
  let once jobs =
    Par.with_pool ~jobs @@ fun pool ->
    let w = Opdw.Workload.tpch ~node_count:4 ~sf:0.002 ~engine:Engine.Rset.Columnar () in
    let app = w.Opdw.Workload.app in
    Engine.Appliance.set_pool app pool;
    canonical_and_time w (Option.get (Tpch.Queries.find "Q9")).Tpch.Queries.sql
  in
  let rows1, sim1 = once 1 in
  let rows4, sim4 = once 4 in
  Alcotest.(check (list string)) "rows at jobs 1 = jobs 4" rows1 rows4;
  Alcotest.(check (float 0.)) "sim clock at jobs 1 = jobs 4" sim1 sim4

let suite =
  [ Alcotest.test_case "column builders round-trip values" `Quick test_builder_roundtrip;
    Alcotest.test_case "column builders pick typed layouts" `Quick test_builder_typed_layout;
    Alcotest.test_case "tables round-trip rows" `Quick test_table_roundtrip;
    Alcotest.test_case "filter: empty, all-filtered, nulls, sel-of-sel" `Quick
      test_filter_edges;
    Alcotest.test_case "aggregates: null and empty-input handling" `Quick
      test_aggregate_nulls;
    Alcotest.test_case "joins: kinds, empty sides, non-equi" `Quick test_join_edges;
    Alcotest.test_case "all 25 workload queries: columnar == row" `Slow
      test_workload_parity;
    QCheck_alcotest.to_alcotest prop_random_parity;
    Alcotest.test_case "fault schedules: parity under retries" `Slow test_fault_parity;
    Alcotest.test_case "columnar sim clock is --jobs independent" `Quick
      test_jobs_independence ]
