(* Executing the GENERATED DSQL text (re-parsed through our own front-end)
   must produce the same results as interpreting the plan directly — the
   strongest check on DSQL generation (paper §2.4/§3.4). *)

let t name f = Alcotest.test_case name `Quick f

(* [fixture]: the row-engine workload unless another is given *)
let via_dsql ?(fixture = Fixtures.tpch_workload) sql =
  let wl = Lazy.force fixture in
  let r = Opdw.optimize wl.Opdw.Workload.shell sql in
  let app = wl.Opdw.Workload.app in
  let from_plan = Opdw.run app r in
  let from_dsql = Engine.Dsql_exec.run app r.Opdw.dsql in
  let cols = List.map snd (Opdw.output_columns r) in
  (r,
   Engine.Local.canonical ~cols from_plan,
   (* the re-parsed statements have their own column ids; compare full rows *)
   Engine.Local.canonical from_dsql)

let check ?fixture sql =
  let _, plan_rows, dsql_rows = via_dsql ?fixture sql in
  Alcotest.(check (list string)) ("dsql == plan: " ^ sql) plan_rows dsql_rows

let test_local_only ?fixture () =
  check ?fixture "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 300000"

let test_shuffle_join ?fixture () =
  check ?fixture "SELECT c_custkey, o_orderdate FROM orders, customer WHERE o_custkey = c_custkey"

let test_groupby_split ?fixture () =
  check ?fixture
    "SELECT o_custkey, COUNT(*) AS c, SUM(o_totalprice) AS s FROM orders GROUP BY o_custkey"

let test_avg_split ?fixture () =
  check ?fixture "SELECT c_nationkey, AVG(c_acctbal) AS a FROM customer GROUP BY c_nationkey"

let test_semi_join ?fixture () =
  check ?fixture
    "SELECT c_name FROM customer WHERE c_custkey IN \
     (SELECT o_custkey FROM orders WHERE o_totalprice > 200000)"

let test_order_and_top ?fixture () =
  check ?fixture "SELECT TOP 10 o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC"

let test_union ?fixture () =
  check ?fixture
    "SELECT n_nationkey AS k FROM nation UNION ALL SELECT r_regionkey AS k FROM region"

(* a function nested under CAST inside another function: every call in
   the DSQL text gets its T-SQL spelling, at any depth *)
let test_nested_function ?fixture () =
  check ?fixture
    "SELECT o_orderkey, YEAR(CAST(DATEADD(day, 1, o_orderdate) AS DATE)) AS y \
     FROM orders, customer WHERE o_custkey = c_custkey"

let test_workload_queries ?fixture () =
  (* every workload statement, executed from its generated DSQL text *)
  List.iter (fun (q : Tpch.Queries.t) -> check ?fixture q.Tpch.Queries.sql) Tpch.Queries.all

(* the same statements on the columnar appliance: every operator of a
   step runs through the appliance's one engine dispatch, and temps stay
   column-major from step to step *)
let columnar (test : ?fixture:Opdw.Workload.t Lazy.t -> unit -> unit) () =
  test ~fixture:Fixtures.tpch_columnar ()

let test_columnar_targeted () =
  List.iter (fun test -> columnar test ())
    [ test_local_only; test_shuffle_join; test_groupby_split; test_avg_split;
      test_semi_join; test_order_and_top; test_union; test_nested_function ]

let suite =
  [ t "pure-local statement" test_local_only;
    t "shuffle join" test_shuffle_join;
    t "local/global group-by" test_groupby_split;
    t "AVG recomposition" test_avg_split;
    t "semi join as EXISTS" test_semi_join;
    t "order by + top at Return" test_order_and_top;
    t "union all" test_union;
    t "workload queries via DSQL text" test_workload_queries;
    t "nested function in DSQL text" test_nested_function;
    t "targeted statements via DSQL text, columnar" test_columnar_targeted;
    t "workload queries via DSQL text, columnar" (columnar test_workload_queries) ]
