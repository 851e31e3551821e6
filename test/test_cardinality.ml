(* Cardinality estimation against the shell statistics (paper Fig. 2, 2c). *)

open Algebra

let t name f = Alcotest.test_case name `Quick f

let estimate sql =
  let sh = Fixtures.shell () in
  let r = Algebra.Algebrizer.of_sql sh sql in
  let tr = Normalize.normalize r.Algebrizer.reg sh r.Algebrizer.tree in
  let env = { Cardinality.reg = r.Algebrizer.reg; shell = sh } in
  (Cardinality.of_tree env tr).Cardinality.card

let actual sql =
  let w = Lazy.force Fixtures.tpch_workload in
  let r = Opdw.optimize w.Opdw.Workload.shell sql in
  let res = Opdw.run w.Opdw.Workload.app r in
  float_of_int (List.length res.Engine.Local.rows)

let q_error est act =
  let est = Float.max est 1. and act = Float.max act 1. in
  Float.max (est /. act) (act /. est)

let check_q name sql bound =
  let e = estimate sql and a = actual sql in
  let q = q_error e a in
  Alcotest.(check bool)
    (Printf.sprintf "%s: q-error %.1f (est %.0f vs actual %.0f) <= %.0f" name q e a bound)
    true (q <= bound)

let test_base_table () = check_q "full scan" "SELECT o_orderkey FROM orders" 1.1

let test_range_filter () =
  check_q "date range"
    "SELECT o_orderkey FROM orders WHERE o_orderdate >= '1994-01-01' \
     AND o_orderdate < '1995-01-01'" 3.0

let test_equality_filter () =
  check_q "segment equality"
    "SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING'" 2.5

let test_like_prefix () =
  check_q "LIKE prefix" "SELECT p_partkey FROM part WHERE p_name LIKE 'forest%'" 12.0

let test_fk_join () =
  check_q "FK join"
    "SELECT o_orderkey, l_linenumber FROM orders, lineitem WHERE o_orderkey = l_orderkey" 2.0

let test_group_by () =
  check_q "group by custkey" "SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey" 4.0

let test_selective_conjunction () =
  check_q "two filters"
    "SELECT o_orderkey FROM orders WHERE o_totalprice > 200000 \
     AND o_orderdate >= '1996-01-01'" 4.0

let test_estimates_monotone () =
  let base = estimate "SELECT o_orderkey FROM orders" in
  let filtered = estimate "SELECT o_orderkey FROM orders WHERE o_totalprice > 300000" in
  Alcotest.(check bool) "filter shrinks estimate" true (filtered < base)

let test_semi_join_bounded_by_left () =
  let left = estimate "SELECT c_custkey FROM customer" in
  let semi =
    estimate "SELECT c_custkey FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders)"
  in
  Alcotest.(check bool) "semi <= left" true (semi <= left +. 1e-9)

let test_empty_is_zero () =
  Alcotest.(check (float 0.)) "contradiction" 0.
    (estimate "SELECT c_custkey FROM customer WHERE 1 = 0")

(* Q7's nation pair: the normalizer pushes (n_name = 'FRANCE' OR n_name =
   'GERMANY') below the join on both sides, so the join's residual OR must
   be conditioned on those filters rather than charged again *)
let nation_pair =
  "SELECT n1.n_name, n2.n_name FROM nation n1, nation n2 \
   WHERE (n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY') \
      OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE')"

let test_residual_or_not_double_counted () =
  check_q "nation pair (residual OR)" nation_pair 1.5;
  (* the pushed filters and the conditioned residual together charge the
     OR exactly once: same estimate as the un-normalized Select over the
     cross product *)
  let sh = Fixtures.shell () in
  let r = Algebra.Algebrizer.of_sql sh nation_pair in
  let env = { Cardinality.reg = r.Algebrizer.reg; shell = sh } in
  let raw = (Cardinality.of_tree env r.Algebrizer.tree).Cardinality.card in
  Alcotest.(check (float 1e-9)) "normalized == un-normalized estimate" raw
    (estimate nation_pair)

let suite =
  [ t "base table exact" test_base_table;
    t "date range filter" test_range_filter;
    t "equality filter" test_equality_filter;
    t "LIKE prefix via histogram" test_like_prefix;
    t "FK join" test_fk_join;
    t "group-by NDV" test_group_by;
    t "conjunctive filters" test_selective_conjunction;
    t "filters shrink estimates" test_estimates_monotone;
    t "semi join bounded by left" test_semi_join_bounded_by_left;
    t "contradiction estimates zero" test_empty_is_zero;
    t "residual OR not double-counted" test_residual_or_not_double_counted ]
