let () =
  Alcotest.run "opdw"
    [ ("obs", Test_obs.suite);
      ("value", Test_value.suite);
      ("histogram", Test_histogram.suite);
      ("parser", Test_parser.suite);
      ("expr", Test_expr.suite);
      ("algebrizer", Test_algebrizer.suite);
      ("normalize", Test_normalize.suite);
      ("cardinality", Test_cardinality.suite);
      ("memo", Test_memo.suite);
      ("serialopt", Test_serialopt.suite);
      ("dms", Test_dms.suite);
      ("pdwopt", Test_pdwopt.suite);
      ("dsql", Test_dsql.suite);
      ("dsql_exec", Test_dsql_exec.suite);
      ("engine", Test_engine.suite);
      ("columnar", Test_columnar.suite);
      ("baseline", Test_baseline.suite);
      ("tpch", Test_tpch.suite);
      ("check", Test_check.suite);
      ("union", Test_union.suite);
      ("hints", Test_hints.suite);
      ("e2e", Test_e2e.suite);
      ("disjunction", Test_disjunction.suite);
      ("fuzz", Test_fuzz.suite);
      ("par", Test_par.suite);
      ("plancache", Test_plancache.suite);
      ("fault", Test_fault.suite);
      ("governor", Test_governor.suite);
      ("analysis", Test_analysis.suite);
      ("feedback", Test_feedback.suite);
      ("topology", Test_topology.suite);
      ("split", Test_split.suite) ]
