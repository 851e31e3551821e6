(* The paper's split of the pipeline (§3, Fig. 2): [Opdw.explore] does
   everything that does not read a distribution key, [Opdw.place] the
   rest, and [Opdw.optimize] is their composition. One explored statement
   placed on a shell with other distribution keys must give exactly the
   plan a fresh compile on that shell gives. Also the statement key the
   workload log, the breaker and the plan store use: it must still run as
   the statement it was taken from. *)

let t name f = Alcotest.test_case name `Quick f

let shell () = Fixtures.shell ()

(* the current keys and two re-keys of the tables most statements read *)
let key_sets =
  [ ("current keys", []);
    ("orders -> o_custkey", [ ("orders", [ "o_custkey" ]) ]);
    ("lineitem -> l_partkey", [ ("lineitem", [ "l_partkey" ]) ]) ]

let bits (r : Opdw.result) = Int64.bits_of_float (Opdw.plan r).Pdwopt.Pplan.dms_cost

let same_plan what (placed : Opdw.result) (fresh : Opdw.result) =
  Alcotest.(check int64) (what ^ ": dms_cost bit-equal") (bits fresh) (bits placed);
  Alcotest.(check string) (what ^ ": explain text equal")
    (Opdw.explain fresh) (Opdw.explain placed);
  (* the aggregation splits allocated the same column ids *)
  Alcotest.(check int) (what ^ ": registry size equal")
    (Algebra.Registry.count fresh.Opdw.memo.Memo.reg)
    (Algebra.Registry.count placed.Opdw.memo.Memo.reg)

(* explore each statement once on the live shell, then place it on every
   key set in turn: a placement must neither see nor leave behind another
   placement's registry columns *)
let default_options () =
  Opdw.default_options ~node_count:(Catalog.Shell_db.node_count (shell ()))

let check_placements ?(options = default_options ()) sqls =
  List.iter
    (fun (name, sql) ->
       let e = Opdw.explore ~options (shell ()) sql in
       List.iter
         (fun (keys, overrides) ->
            let shell' = Topology.Advisor.hypothetical (shell ()) overrides in
            same_plan (name ^ " on " ^ keys) (Opdw.place shell' e)
              (Opdw.optimize ~options shell' sql))
         key_sets)
    sqls

let bundled =
  List.map (fun (q : Tpch.Queries.t) -> (q.Tpch.Queries.id, q.Tpch.Queries.sql))
    Tpch.Queries.all

let test_place_bundled () = check_placements bundled

let join_sql =
  "SELECT c_custkey, o_orderdate FROM orders, customer WHERE o_custkey = c_custkey"

let test_place_hinted () =
  check_placements
    [ ("broadcast", join_sql ^ " OPTION (BROADCAST orders)");
      ("shuffle", join_sql ^ " OPTION (SHUFFLE customer)") ]

(* with collocated seeding the explore half reads distribution keys, so a
   statement is explored on the shell it is placed on (as the advisor
   does) *)
let test_place_seed_collocated () =
  let options = { (default_options ()) with Opdw.seed_collocated = true } in
  List.iter
    (fun (name, sql) ->
       List.iter
         (fun (keys, overrides) ->
            let shell' = Topology.Advisor.hypothetical (shell ()) overrides in
            same_plan (name ^ " on " ^ keys)
              (Opdw.place shell' (Opdw.explore ~options shell' sql))
              (Opdw.optimize ~options shell' sql))
         key_sets)
    bundled

let key = Opdw.Driver.statement_key

let test_statement_key_literals () =
  let sql case =
    Printf.sprintf "SELECT n_name FROM nation, region WHERE n_regionkey = r_regionkey \
                    AND r_name = '%s'" case
  in
  Alcotest.(check bool) "a literal's case is part of the key" false
    (key (sql "ASIA") = key (sql "asia"));
  (* an apostrophe in a comment does not open a literal *)
  let commented case =
    Printf.sprintf "SELECT n_name FROM nation, region -- customer's region\n\
                    WHERE n_regionkey = r_regionkey AND r_name = '%s'" case
  in
  Alcotest.(check bool) "a commented apostrophe keeps the literal's case" false
    (key (commented "ASIA") = key (commented "asia"));
  Alcotest.(check string) "trimmed" (sql "ASIA") (key ("  " ^ sql "ASIA" ^ "\n"))

(* the advisor replays the logged key, so the key must plan as the
   statement it was taken from *)
let test_statement_key_replays () =
  List.iter
    (fun (name, sql) ->
       same_plan name (Opdw.optimize (shell ()) (key sql))
         (Opdw.optimize (shell ()) sql))
    bundled

let suite =
  [ t "place = optimize: 25 bundled statements x 3 key sets" test_place_bundled;
    t "place = optimize: BROADCAST / SHUFFLE hints" test_place_hinted;
    t "place = optimize: collocated seeding" test_place_seed_collocated;
    t "statement key keeps literal case" test_statement_key_literals;
    t "statement key plans as its statement" test_statement_key_replays ]
