(* Normalization: folding, pushdown, transitivity closure, contradiction
   detection, redundant join elimination, semi-join relocation. *)

open Algebra

let t name f = Alcotest.test_case name `Quick f

let norm sql =
  let _, tr = Fixtures.algebrize_normalize sql in
  tr

let rec find_ops pred (tr : Relop.t) =
  (if pred tr.Relop.op then [ tr ] else []) @ List.concat_map (find_ops pred) tr.Relop.children

let count pred tr = List.length (find_ops pred tr)
let is_select = function Relop.Select _ -> true | _ -> false
let is_empty = function Relop.Empty _ -> true | _ -> false
let is_get = function Relop.Get _ -> true | _ -> false
let is_cross = function Relop.Join { kind = Relop.Cross; _ } -> true | _ -> false

let all_conjuncts tr =
  let rec go (n : Relop.t) =
    (match n.Relop.op with
     | Relop.Select p -> Expr.conjuncts p
     | Relop.Join { pred; _ } -> Expr.conjuncts pred
     | _ -> [])
    @ List.concat_map go n.Relop.children
  in
  go tr

let test_constant_folding () =
  let tr = norm "SELECT c_custkey FROM customer WHERE c_acctbal > 100 + 200" in
  let folded =
    List.exists
      (function
        | Expr.Bin (Expr.Gt, _, Expr.Lit (Catalog.Value.Int 300)) -> true
        | _ -> false)
      (all_conjuncts tr)
  in
  Alcotest.(check bool) "100+200 folded" true folded

let test_boolean_folding () =
  let tr = norm "SELECT c_custkey FROM customer WHERE c_acctbal > 0 AND 1 = 1" in
  let trivial =
    List.exists
      (function Expr.Lit (Catalog.Value.Bool true) -> true | _ -> false)
      (all_conjuncts tr)
  in
  Alcotest.(check bool) "no trivial TRUE conjunct" false trivial

let test_pushdown_below_join () =
  let tr =
    norm
      "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey \
       AND o_totalprice > 100 AND c_acctbal > 0"
  in
  (* both single-table filters sit directly above their Get *)
  let selects = find_ops is_select tr in
  let above_get s =
    match s.Relop.children with
    | [ { Relop.op = Relop.Get _; _ } ] -> true
    | _ -> false
  in
  Alcotest.(check int) "two pushed filters" 2
    (List.length (List.filter above_get selects))

let test_cross_to_inner () =
  let tr = norm "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey" in
  Alcotest.(check int) "no cross join left" 0 (count is_cross tr)

let test_transitivity_constants () =
  (* c_custkey = o_custkey and c_custkey = 7 must derive o_custkey = 7 *)
  let tr =
    norm
      "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey AND c_custkey = 7"
  in
  let derived =
    List.exists
      (function
        | Expr.Bin (Expr.Eq, Expr.Col _, Expr.Lit (Catalog.Value.Int 7)) -> true
        | _ -> false)
      (all_conjuncts tr)
    && List.length
         (List.filter
            (function
              | Expr.Bin (Expr.Eq, _, Expr.Lit (Catalog.Value.Int 7)) -> true
              | Expr.Bin (Expr.Eq, Expr.Lit (Catalog.Value.Int 7), _) -> true
              | _ -> false)
            (all_conjuncts tr))
       >= 2
  in
  Alcotest.(check bool) "constant propagated across equality" true derived

let test_transitivity_equalities () =
  (* a=b, b=c derives a=c somewhere *)
  let tr =
    norm
      "SELECT 1 AS one FROM customer, orders, lineitem \
       WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND c_custkey = l_suppkey"
  in
  (* the closure must add o_custkey = l_suppkey (or equivalent pair) *)
  let eqs = List.concat_map (fun c -> Option.to_list (Expr.as_col_eq c)) (all_conjuncts tr) in
  Alcotest.(check bool) "at least 4 equality conjuncts" true (List.length eqs >= 4)

let test_contradiction_range () =
  let tr = norm "SELECT c_name FROM customer WHERE c_acctbal > 100 AND c_acctbal < 50" in
  Alcotest.(check bool) "collapsed to Empty" true (count is_empty tr >= 1)

let test_contradiction_equality () =
  let tr = norm "SELECT c_name FROM customer WHERE c_custkey = 1 AND c_custkey = 2" in
  Alcotest.(check bool) "conflicting equalities" true (count is_empty tr >= 1)

let test_contradiction_false () =
  let tr = norm "SELECT c_name FROM customer WHERE 1 = 2" in
  Alcotest.(check bool) "literal false" true (count is_empty tr >= 1)

let test_no_false_contradiction () =
  let tr = norm "SELECT c_name FROM customer WHERE c_acctbal >= 100 AND c_acctbal <= 100" in
  Alcotest.(check int) "touching closed bounds are satisfiable" 0 (count is_empty tr)

let test_empty_propagation_join () =
  let tr =
    norm
      "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey AND 1 = 0"
  in
  Alcotest.(check bool) "empty propagates through join" true (count is_empty tr >= 1);
  Alcotest.(check int) "no join remains" 0
    (count (function Relop.Join _ -> true | _ -> false) tr)

let test_redundant_join_elimination () =
  (* joining orders to customer on the FK without using customer columns *)
  let tr = norm "SELECT o_orderkey FROM orders, customer WHERE o_custkey = c_custkey" in
  Alcotest.(check int) "customer join eliminated" 1 (count is_get tr)

let test_no_elimination_when_used () =
  let tr =
    norm "SELECT o_orderkey, c_name FROM orders, customer WHERE o_custkey = c_custkey"
  in
  Alcotest.(check int) "both tables needed" 2 (count is_get tr)

let test_no_elimination_non_pk () =
  (* join on a non-PK column must not be eliminated *)
  let tr =
    norm "SELECT c1.c_custkey FROM customer c1, customer c2 \
          WHERE c1.c_nationkey = c2.c_nationkey"
  in
  Alcotest.(check int) "self join kept" 2 (count is_get tr)

let test_semi_join_through_groupby () =
  (* Q20's shape: the part filter reaches lineitem below the aggregation *)
  let q20 = (Option.get (Tpch.Queries.find "Q20")).Tpch.Queries.sql in
  let tr = norm q20 in
  let gbs = find_ops (function Relop.Group_by _ -> true | _ -> false) tr in
  let gb_over_semi =
    List.exists
      (fun gb ->
         match gb.Relop.children with
         | [ { Relop.op = Relop.Join { kind = Relop.Semi; _ }; _ } ] -> true
         | _ -> false)
      gbs
  in
  Alcotest.(check bool) "group-by over semi-join (early filtering)" true gb_over_semi

let test_output_cols_preserved () =
  List.iter
    (fun sql ->
       let r = Algebra.Algebrizer.of_sql (Fixtures.shell ()) sql in
       let before = Relop.output_cols r.Algebrizer.tree in
       let after =
         Relop.output_cols
           (Normalize.normalize r.Algebrizer.reg (Fixtures.shell ()) r.Algebrizer.tree)
       in
       Alcotest.(check (list int)) ("outputs stable: " ^ sql) before after)
    [ "SELECT c_name FROM customer WHERE c_acctbal > 0";
      "SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey";
      "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey AND 1 = 0" ]

(* property: normalization preserves semantics on the executable workload
   (covered more broadly by the end-to-end suite; here: idempotence) *)
let test_idempotent () =
  List.iter
    (fun q ->
       let sh = Fixtures.shell () in
       let r = Algebra.Algebrizer.of_sql sh q.Tpch.Queries.sql in
       let n1 = Normalize.normalize r.Algebrizer.reg sh r.Algebrizer.tree in
       let n2 = Normalize.normalize r.Algebrizer.reg sh n1 in
       Alcotest.(check int)
         ("same size after renormalizing " ^ q.Tpch.Queries.id)
         (Relop.size n1) (Relop.size n2))
    Tpch.Queries.all

(* -- disjunctions: common-conjunct factoring and implied per-side filters -- *)

let ( &&& ) a b = Expr.Bin (Expr.And, a, b)
let ( ||| ) a b = Expr.Bin (Expr.Or, a, b)
let gt c k = Expr.Bin (Expr.Gt, Expr.Col c, Expr.Lit (Catalog.Value.Int k))

let expr =
  Alcotest.testable
    (fun ppf e -> Format.pp_print_string ppf (Expr.to_string_with string_of_int e))
    Expr.equal

let test_factor_common () =
  let a = gt 1 0 and b = gt 2 0 and c = gt 3 0 in
  Alcotest.check expr "(A and B) or (A and C)" (a &&& (b ||| c))
    (Normalize.factor_expr ((a &&& b) ||| (a &&& c)));
  Alcotest.check expr "shared conjunct in any position" (a &&& (b ||| c))
    (Normalize.factor_expr ((b &&& a) ||| (a &&& c)));
  Alcotest.check expr "three disjuncts" (a &&& ((b ||| c) ||| gt 4 0))
    (Normalize.factor_expr ((a &&& b) ||| (c &&& a) ||| (gt 4 0 &&& a)));
  let no_common = b ||| (c ||| a) in
  Alcotest.check expr "no shared conjunct: shape kept" no_common
    (Normalize.factor_expr no_common)

let test_factor_absorption () =
  let a = gt 1 0 and b = gt 2 0 and c = gt 3 0 in
  Alcotest.check expr "A or (A and B)" a (Normalize.factor_expr (a ||| (a &&& b)));
  Alcotest.check expr "(A and B) or A" a (Normalize.factor_expr ((a &&& b) ||| a));
  Alcotest.check expr "(A and C) or (A and B and C)" (a &&& c)
    (Normalize.factor_expr ((a &&& c) ||| (a &&& b &&& c)))

let is_or = function Expr.Bin (Expr.Or, _, _) -> true | _ -> false

(* the conjuncts of the filter sitting directly on the scan of [table] *)
let scan_filter table tr =
  List.concat_map
    (fun (s : Relop.t) ->
       match s.Relop.op, s.Relop.children with
       | Relop.Select p, [ { Relop.op = Relop.Get { table = t; _ }; _ } ]
         when String.lowercase_ascii t = table ->
         Expr.conjuncts p
       | _ -> [])
    (find_ops is_select tr)

let has_equi_join tr =
  List.exists
    (fun (j : Relop.t) ->
       match j.Relop.op with
       | Relop.Join { kind = Relop.Inner; pred } -> Expr.equi_pairs pred <> []
       | _ -> false)
    (find_ops (function Relop.Join _ -> true | _ -> false) tr)

let q19 () = (Option.get (Tpch.Queries.find "Q19")).Tpch.Queries.sql

let test_q19_implied_filters () =
  let tr = norm (q19 ()) in
  Alcotest.(check bool) "p_partkey = l_partkey factored into an equi join" true
    (has_equi_join tr);
  Alcotest.(check bool) "implied OR filter on part" true
    (List.exists is_or (scan_filter "part" tr));
  Alcotest.(check bool) "implied OR filter on lineitem" true
    (List.exists is_or (scan_filter "lineitem" tr));
  Alcotest.(check bool) "shared single-table conjuncts sank to lineitem" true
    (List.exists
       (function Expr.Bin (Expr.Eq, _, Expr.Lit (Catalog.Value.String "DELIVER IN PERSON")) -> true
               | _ -> false)
       (scan_filter "lineitem" tr))

let test_no_implied_without_cover () =
  (* the second disjunct has no customer conjunct: nothing is implied for
     customer, while orders gets (o_totalprice > 100 OR o_orderstatus = 'F') *)
  let tr =
    norm
      "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey \
       AND ((c_acctbal > 0 AND o_totalprice > 100) OR o_orderstatus = 'F')"
  in
  Alcotest.(check int) "no filter on customer" 0 (List.length (scan_filter "customer" tr));
  Alcotest.(check bool) "OR filter on orders" true
    (List.exists is_or (scan_filter "orders" tr))

let count_ors tr = List.length (List.filter is_or (all_conjuncts tr))

let test_no_implied_across_outer_and_anti () =
  let loj =
    norm
      "SELECT c_name, o_orderkey FROM customer LEFT OUTER JOIN orders \
       ON c_custkey = o_custkey \
       AND ((c_acctbal > 0 AND o_totalprice > 100) OR (c_acctbal < 0 AND o_totalprice < 50))"
  in
  Alcotest.(check int) "left-outer: only the ON disjunction" 1 (count_ors loj);
  let loj_where =
    norm
      "SELECT c_name, o_orderkey FROM customer LEFT OUTER JOIN orders \
       ON c_custkey = o_custkey \
       WHERE (c_acctbal > 0 AND o_totalprice > 100) OR (c_acctbal < 0 AND o_totalprice IS NULL)"
  in
  Alcotest.(check int) "left-outer: WHERE disjunction stays above" 1 (count_ors loj_where);
  let anti =
    norm
      "SELECT c_name FROM customer WHERE NOT EXISTS (SELECT o_orderkey FROM orders \
       WHERE o_custkey = c_custkey \
       AND ((o_totalprice > 100 AND c_acctbal > 0) OR (o_totalprice < 50 AND c_acctbal < 0)))"
  in
  Alcotest.(check int) "anti-semi: only the join disjunction" 1 (count_ors anti);
  Alcotest.(check bool) "anti-semi: customer unfiltered" false
    (List.exists is_or (scan_filter "customer" anti))

(* every Select/Join predicate along a root-to-leaf path, with the path's
   conjuncts so far: a filter stacked twice shows up as a repeat *)
let repeated_filters tr =
  let rec go seen (n : Relop.t) =
    let here =
      match n.Relop.op with
      | Relop.Select p | Relop.Join { pred = p; _ } -> Expr.conjuncts p
      | _ -> []
    in
    let rec dups seen = function
      | [] -> []
      | c :: rest ->
        (if List.exists (Expr.equal c) seen then [ c ] else []) @ dups (c :: seen) rest
    in
    dups seen here @ List.concat_map (go (here @ seen)) n.Relop.children
  in
  go [] tr

let test_disjunction_idempotent () =
  let sh = Fixtures.shell () in
  List.iter
    (fun (id, sql) ->
       let r = Algebra.Algebrizer.of_sql sh sql in
       let reg = r.Algebrizer.reg in
       let n1 = Normalize.normalize reg sh r.Algebrizer.tree in
       let obs = Obs.create () in
       let n2 = Normalize.normalize ~obs reg sh n1 in
       Alcotest.(check bool) (id ^ ": normalize (normalize t) = normalize t") true (n1 = n2);
       Alcotest.(check int) (id ^ ": no filter stacked twice") 0
         (List.length (repeated_filters n1));
       List.iter
         (fun rule ->
            Alcotest.(check (float 0.)) (id ^ ": second pass fires no " ^ rule) 0.
              (Obs.counter obs ("normalize.rule." ^ rule)))
         [ "factor_disjunction"; "imply_disjunction"; "push_predicates" ])
    [ ("Q7", (Option.get (Tpch.Queries.find "Q7")).Tpch.Queries.sql);
      ("Q19", q19 ());
      ("nested", "SELECT c_name FROM customer, orders, lineitem \
                  WHERE (c_custkey = o_custkey AND o_orderkey = l_orderkey \
                         AND c_acctbal > 0 AND l_quantity > 10) \
                     OR (c_custkey = o_custkey AND o_orderkey = l_orderkey \
                         AND c_acctbal < 0 AND o_totalprice > 100 AND l_quantity < 5)") ]

let test_rule_counters () =
  let counters sql =
    let sh = Fixtures.shell () in
    let r = Algebra.Algebrizer.of_sql sh sql in
    let obs = Obs.create () in
    ignore (Normalize.normalize ~obs r.Algebrizer.reg sh r.Algebrizer.tree);
    (Obs.counter obs "normalize.rule.factor_disjunction",
     Obs.counter obs "normalize.rule.imply_disjunction")
  in
  Alcotest.(check (pair (float 0.) (float 0.))) "Q19 fires both passes" (1., 1.)
    (counters (q19 ()));
  Alcotest.(check (pair (float 0.) (float 0.))) "Q3 fires neither" (0., 0.)
    (counters (Option.get (Tpch.Queries.find "Q3")).Tpch.Queries.sql)

let suite =
  [ t "constant folding" test_constant_folding;
    t "boolean folding" test_boolean_folding;
    t "pushdown below join" test_pushdown_below_join;
    t "cross + equality -> inner" test_cross_to_inner;
    t "transitive constant propagation" test_transitivity_constants;
    t "transitive equality closure" test_transitivity_equalities;
    t "contradiction: empty range" test_contradiction_range;
    t "contradiction: conflicting equalities" test_contradiction_equality;
    t "contradiction: literal false" test_contradiction_false;
    t "no false positive on touching bounds" test_no_false_contradiction;
    t "empty propagates through joins" test_empty_propagation_join;
    t "redundant FK join eliminated" test_redundant_join_elimination;
    t "join kept when columns used" test_no_elimination_when_used;
    t "join kept on non-PK equality" test_no_elimination_non_pk;
    t "semi-join pushed through group-by (Q20)" test_semi_join_through_groupby;
    t "output columns preserved" test_output_cols_preserved;
    t "idempotent on workload" test_idempotent;
    t "disjunction: common conjunct factored" test_factor_common;
    t "disjunction: absorption" test_factor_absorption;
    t "disjunction: Q19 implied filters on part and lineitem" test_q19_implied_filters;
    t "disjunction: nothing implied for an uncovered side" test_no_implied_without_cover;
    t "disjunction: no rewrite across left-outer / anti-semi" test_no_implied_across_outer_and_anti;
    t "disjunction: idempotent, no stacked filters" test_disjunction_idempotent;
    t "disjunction: named pass counters" test_rule_counters ]
