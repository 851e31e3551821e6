(* Algebrizer: name resolution, typing, subquery decorrelation. *)

open Algebra

let t name f = Alcotest.test_case name `Quick f

let alg sql = Algebra.Algebrizer.of_sql (Fixtures.shell ()) sql

let rec find_ops pred (tr : Relop.t) =
  (if pred tr.Relop.op then [ tr ] else []) @ List.concat_map (find_ops pred) tr.Relop.children

let count_ops pred tr = List.length (find_ops pred tr)

let is_join k = function Relop.Join { kind; _ } -> kind = k | _ -> false
let is_groupby = function Relop.Group_by _ -> true | _ -> false
let is_get = function Relop.Get _ -> true | _ -> false

let test_simple_resolution () =
  let r = alg "SELECT c_custkey, c_name FROM customer" in
  Alcotest.(check int) "two output cols" 2 (List.length r.Algebrizer.output);
  Alcotest.(check (list string)) "names" [ "c_custkey"; "c_name" ]
    (List.map fst r.Algebrizer.output)

let test_alias_resolution () =
  let r = alg "SELECT c.c_custkey FROM customer c, orders o WHERE c.c_custkey = o.o_custkey" in
  Alcotest.(check int) "gets" 2 (count_ops is_get r.Algebrizer.tree)

let test_star_expansion () =
  let r = alg "SELECT * FROM nation" in
  Alcotest.(check int) "nation has 4 cols" 4 (List.length r.Algebrizer.output)

let test_qualified_star () =
  let r = alg "SELECT n.* , r_name FROM nation n, region r WHERE n.n_regionkey = r.r_regionkey" in
  Alcotest.(check int) "4 + 1 cols" 5 (List.length r.Algebrizer.output)

let test_unknown_column () =
  Alcotest.(check bool) "raises" true
    (match alg "SELECT nope FROM customer" with
     | exception Algebrizer.Resolve_error _ -> true
     | _ -> false)

let test_ambiguous_column () =
  Alcotest.(check bool) "raises" true
    (match alg "SELECT n_nationkey FROM nation a, nation b" with
     | exception Algebrizer.Resolve_error _ -> true
     | _ -> false)

let test_unknown_table () =
  Alcotest.(check bool) "raises" true
    (match alg "SELECT x FROM nonexistent" with
     | exception Algebrizer.Resolve_error _ -> true
     | _ -> false)

let test_unique_col_ids () =
  (* two instances of the same table get distinct column ids *)
  let r = alg "SELECT a.n_name FROM nation a, nation b WHERE a.n_nationkey = b.n_nationkey" in
  let gets = find_ops is_get r.Algebrizer.tree in
  match gets with
  | [ g1; g2 ] ->
    let cols tr = Relop.output_col_set tr in
    Alcotest.(check bool) "disjoint ids" true
      (Registry.Col_set.is_empty (Registry.Col_set.inter (cols g1) (cols g2)))
  | _ -> Alcotest.fail "expected two gets"

let test_in_subquery_becomes_semi () =
  let r = alg "SELECT c_name FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders)" in
  Alcotest.(check int) "semi join" 1 (count_ops (is_join Relop.Semi) r.Algebrizer.tree)

let test_not_in_becomes_anti () =
  let r = alg "SELECT c_name FROM customer WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)" in
  Alcotest.(check int) "anti join" 1 (count_ops (is_join Relop.Anti_semi) r.Algebrizer.tree)

let test_exists_correlated () =
  let r =
    alg
      "SELECT c_name FROM customer WHERE EXISTS \
       (SELECT o_orderkey FROM orders WHERE o_custkey = c_custkey AND o_totalprice > 100)"
  in
  let semis = find_ops (is_join Relop.Semi) r.Algebrizer.tree in
  Alcotest.(check int) "one semi join" 1 (List.length semis);
  (* correlation became the join predicate *)
  match (List.hd semis).Relop.op with
  | Relop.Join { pred; _ } ->
    Alcotest.(check bool) "equality in join pred" true (Expr.equi_pairs pred <> [])
  | _ -> assert false

let test_scalar_agg_subquery () =
  let r =
    alg
      "SELECT o_orderkey FROM orders WHERE o_totalprice > \
       (SELECT AVG(o_totalprice) FROM orders)"
  in
  (* decorrelated into a join against a scalar aggregate *)
  Alcotest.(check int) "group by introduced" 1 (count_ops is_groupby r.Algebrizer.tree);
  Alcotest.(check int) "inner join introduced" 1
    (count_ops (is_join Relop.Inner) r.Algebrizer.tree)

let test_correlated_scalar_agg () =
  let r =
    alg
      "SELECT l_orderkey FROM lineitem l1 WHERE l_quantity > \
       (SELECT AVG(l_quantity) FROM lineitem l2 WHERE l2.l_partkey = l1.l_partkey)"
  in
  let gbs = find_ops is_groupby r.Algebrizer.tree in
  Alcotest.(check int) "one group by" 1 (List.length gbs);
  match (List.hd gbs).Relop.op with
  | Relop.Group_by { keys; _ } ->
    Alcotest.(check int) "correlation key" 1 (List.length keys)
  | _ -> assert false

let test_group_by_having () =
  let r =
    alg
      "SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey HAVING COUNT(*) > 2"
  in
  Alcotest.(check int) "group by" 1 (count_ops is_groupby r.Algebrizer.tree);
  Alcotest.(check int) "having select above group"
    1
    (count_ops (function Relop.Select _ -> true | _ -> false) r.Algebrizer.tree)

let test_distinct_becomes_groupby () =
  let r = alg "SELECT DISTINCT n_regionkey FROM nation" in
  Alcotest.(check int) "group by for distinct" 1 (count_ops is_groupby r.Algebrizer.tree)

let test_agg_dedup () =
  (* the same aggregate used twice yields one agg_def *)
  let r = alg "SELECT SUM(o_totalprice), SUM(o_totalprice) + 1 FROM orders" in
  let gbs = find_ops is_groupby r.Algebrizer.tree in
  match (List.hd gbs).Relop.op with
  | Relop.Group_by { aggs; _ } -> Alcotest.(check int) "one agg" 1 (List.length aggs)
  | _ -> assert false

let test_order_by_alias () =
  let r = alg "SELECT o_custkey, COUNT(*) AS cnt FROM orders GROUP BY o_custkey ORDER BY cnt" in
  Alcotest.(check int) "sort present" 1
    (count_ops (function Relop.Sort _ -> true | _ -> false) r.Algebrizer.tree)

let test_date_coercion () =
  let r = alg "SELECT o_orderkey FROM orders WHERE o_orderdate >= '1994-01-01'" in
  let sels = find_ops (function Relop.Select _ -> true | _ -> false) r.Algebrizer.tree in
  let has_date_lit =
    List.exists
      (fun s ->
         match s.Relop.op with
         | Relop.Select (Expr.Bin (_, _, Expr.Lit (Catalog.Value.Date _))) -> true
         | _ -> false)
      sels
  in
  Alcotest.(check bool) "string literal coerced to date" true has_date_lit

let test_derived_table () =
  let r =
    alg
      "SELECT total FROM (SELECT o_custkey, SUM(o_totalprice) AS total FROM orders \
       GROUP BY o_custkey) AS agg WHERE total > 100"
  in
  Alcotest.(check int) "one output" 1 (List.length r.Algebrizer.output)

let test_output_types () =
  let r = alg "SELECT COUNT(*) AS c, AVG(o_totalprice) AS a FROM orders" in
  let reg = r.Algebrizer.reg in
  match r.Algebrizer.output with
  | [ (_, c); (_, a) ] ->
    Alcotest.(check string) "count is int" "int"
      (Catalog.Types.to_string (Registry.ty reg c));
    Alcotest.(check string) "avg is float" "float"
      (Catalog.Types.to_string (Registry.ty reg a))
  | _ -> Alcotest.fail "two outputs expected"

let refused sql =
  match alg sql with
  | exception Algebrizer.Resolve_error _ -> "resolve"
  | exception Algebrizer.Unsupported _ -> "unsupported"
  | _ -> "accepted"

let test_ungrouped_column () =
  (* a FROM column outside GROUP BY and outside any aggregate is refused
     where it is named, not at execution *)
  List.iter
    (fun sql -> Alcotest.(check string) sql "resolve" (refused sql))
    [ "SELECT o_orderdate, COUNT(*) AS c FROM orders";
      "SELECT o_orderstatus, o_orderdate FROM orders GROUP BY o_orderstatus";
      "SELECT o_orderstatus FROM orders GROUP BY o_orderstatus HAVING o_totalprice > 1";
      "SELECT o_orderstatus, COUNT(*) AS c FROM orders GROUP BY o_orderstatus \
       ORDER BY o_orderdate" ];
  (* group keys, aggregates and a computed key's own expression are fine *)
  List.iter
    (fun sql -> Alcotest.(check string) sql "accepted" (refused sql))
    [ "SELECT o_orderstatus, COUNT(*) AS c FROM orders GROUP BY o_orderstatus";
      "SELECT YEAR(o_orderdate) AS y, SUM(o_totalprice) AS s FROM orders \
       GROUP BY YEAR(o_orderdate)";
      "SELECT YEAR(o_orderdate) + 1 AS y FROM orders GROUP BY YEAR(o_orderdate) \
       ORDER BY y" ]

let test_order_by_unselected () =
  (* a key may read only what the projection keeps *)
  List.iter
    (fun sql -> Alcotest.(check string) sql "unsupported" (refused sql))
    [ "SELECT n_name FROM nation ORDER BY n_regionkey";
      "SELECT n_name FROM nation GROUP BY n_name, n_regionkey ORDER BY n_regionkey, n_name" ]

(* ORDER BY over a computed select item, by alias or by the same
   expression, sorts on the item's output column and runs *)
let test_order_by_computed_item () =
  let w = Lazy.force Fixtures.tpch_columnar in
  List.iter
    (fun sql ->
       let r = Opdw.optimize w.Opdw.Workload.shell sql in
       (* rendered cells: distributed float sums may differ from the
          reference's in the last bits *)
       let render (rs : Engine.Local.rset) =
         List.map
           (fun row -> String.concat "|" (List.map Catalog.Value.to_string (Array.to_list row)))
           rs.Engine.Local.rows
       in
       let rows = render (Opdw.run w.Opdw.Workload.app r) in
       let reference = render (Option.get (Opdw.run_reference w.Opdw.Workload.app r)) in
       Alcotest.(check bool) (sql ^ ": rows") true (rows <> []);
       Alcotest.(check (list string)) (sql ^ ": ordered as the reference") reference rows)
    [ "SELECT n_name, SUM(l_extendedprice) * 2 AS revenue FROM lineitem, supplier, nation \
       WHERE l_suppkey = s_suppkey AND s_nationkey = n_nationkey GROUP BY n_name \
       ORDER BY revenue DESC";
      "SELECT n_name, SUM(l_extendedprice) * 2 AS revenue FROM lineitem, supplier, nation \
       WHERE l_suppkey = s_suppkey AND s_nationkey = n_nationkey GROUP BY n_name \
       ORDER BY SUM(l_extendedprice) * 2 DESC, n_name";
      "SELECT n_regionkey + 1 AS k, n_name FROM nation ORDER BY n_regionkey + 1, n_name";
      "SELECT YEAR(o_orderdate) AS y, COUNT(*) AS c FROM orders GROUP BY YEAR(o_orderdate) \
       ORDER BY y" ]

let suite =
  [ t "simple resolution" test_simple_resolution;
    t "alias resolution" test_alias_resolution;
    t "star expansion" test_star_expansion;
    t "qualified star" test_qualified_star;
    t "unknown column error" test_unknown_column;
    t "ambiguous column error" test_ambiguous_column;
    t "unknown table error" test_unknown_table;
    t "unique column identities" test_unique_col_ids;
    t "IN -> semi join" test_in_subquery_becomes_semi;
    t "NOT IN -> anti semi join" test_not_in_becomes_anti;
    t "correlated EXISTS -> semi join" test_exists_correlated;
    t "scalar aggregate subquery" test_scalar_agg_subquery;
    t "correlated scalar aggregate (Q17 shape)" test_correlated_scalar_agg;
    t "group by + having" test_group_by_having;
    t "DISTINCT becomes group-by" test_distinct_becomes_groupby;
    t "duplicate aggregates deduplicated" test_agg_dedup;
    t "order by select alias" test_order_by_alias;
    t "date literal coercion" test_date_coercion;
    t "derived table" test_derived_table;
    t "aggregate output types" test_output_types;
    t "ungrouped column is a resolve error" test_ungrouped_column;
    t "order by an unselected column is refused" test_order_by_unselected;
    t "order by a computed select item runs" test_order_by_computed_item ]
