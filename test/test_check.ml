(* Static plan-validity analyzer (lib/check): positive runs over optimizer
   and baseline plans, plus a mutation matrix — each hand-corrupted plan or
   DSQL program must be rejected with the right rule id. *)

let t name f = Alcotest.test_case name `Quick f

let agg_sql =
  "SELECT o_orderstatus, SUM(o_totalprice) AS s FROM orders, customer \
   WHERE o_custkey = c_custkey GROUP BY o_orderstatus"

let q3_sql =
  match Tpch.Queries.find "Q3" with
  | Some q -> q.Tpch.Queries.sql
  | None -> failwith "Q3 missing from the bundled workload"

(* optimize without the built-in gate so mutants reach [Check.validate] *)
let optimize_raw sql = Opdw.optimize ~check:false (Fixtures.shell ()) sql

let cost_of (r : Opdw.result) =
  { Check.nodes = 4;  (* fixtures workload is node_count:4 *)
    lambdas = Pdwopt.Enumerate.default_opts.Pdwopt.Enumerate.lambdas;
    reg = r.Opdw.memo.Memo.reg }

let validate_full (r : Opdw.result) p =
  Check.validate ~cost:(cost_of r) ~dsql:r.Opdw.dsql ~shell:(Fixtures.shell ()) p

(* -- mutation helpers -- *)

let map_tree f p =
  let rec go p =
    f { p with Pdwopt.Pplan.children = List.map go p.Pdwopt.Pplan.children }
  in
  go p

(* apply [f] to the first (deepest-leftmost) node it accepts; a mutation that
   finds no target is a test bug, not a pass *)
let mutate_first f p =
  let hit = ref false in
  let p' =
    map_tree
      (fun n ->
         if !hit then n
         else match f n with Some n' -> hit := true; n' | None -> n)
      p
  in
  if not !hit then Alcotest.fail "mutation found no applicable plan node";
  p'

let expect_rules ~rules vs =
  if vs = [] then
    Alcotest.failf "mutant validated clean (expected one of [%s])"
      (String.concat "; " rules);
  if not (List.exists (fun v -> List.mem v.Check.rule rules) vs) then
    Alcotest.failf "expected a violation of [%s], got:\n%s"
      (String.concat "; " rules) (Check.to_string vs)

(* -- positive: real plans validate clean -- *)

let test_rule_catalog () =
  Alcotest.(check int) "thirteen rules" 13 (List.length Check.rules);
  let ids = List.map (fun r -> r.Check.id) Check.rules in
  Alcotest.(check int) "unique ids" 13
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun r ->
       Alcotest.(check bool)
         (r.Check.id ^ " cites a paper section") true
         (String.length r.Check.paper > 0))
    Check.rules

let test_clean_agg () =
  let r = optimize_raw agg_sql in
  let vs = validate_full r (Opdw.plan r) in
  Alcotest.(check string) "no violations" "" (Check.to_string vs)

let test_clean_q3 () =
  let r = optimize_raw q3_sql in
  let vs = validate_full r (Opdw.plan r) in
  Alcotest.(check string) "no violations" "" (Check.to_string vs)

let test_clean_baseline () =
  let r = optimize_raw q3_sql in
  match r.Opdw.baseline_plan with
  | None -> Alcotest.fail "no baseline plan produced"
  | Some b ->
    let vs = Check.validate_exec ~shell:(Fixtures.shell ()) b in
    Alcotest.(check string) "baseline passes exec rules" ""
      (Check.to_string vs)

(* -- mutation matrix -- *)

(* m1: splice out the deepest movement; its consumer now sees an input with
   the wrong distribution *)
let mut_splice_move () =
  let r = optimize_raw agg_sql in
  let bad =
    mutate_first
      (fun n ->
         match n.Pdwopt.Pplan.op with
         | Pdwopt.Pplan.Move _ -> Some (List.hd n.Pdwopt.Pplan.children)
         | _ -> None)
      (Opdw.plan r)
  in
  Check.validate ~shell:(Fixtures.shell ()) bad

let test_mut_splice_move () =
  expect_rules ~rules:[ "R1.dist-rederive"; "R2.dist-local-op" ] (mut_splice_move ())

(* m2: re-point a Shuffle at different hash columns while keeping the node's
   declared distribution *)
let mut_shuffle_cols () =
  let r = optimize_raw agg_sql in
  let bad =
    mutate_first
      (fun n ->
         match n.Pdwopt.Pplan.op with
         | Pdwopt.Pplan.Move { kind = Dms.Op.Shuffle hc; cols } ->
           Some { n with
                  Pdwopt.Pplan.op =
                    Pdwopt.Pplan.Move
                      { kind = Dms.Op.Shuffle (List.map (( + ) 1000) hc);
                        cols } }
         | _ -> None)
      (Opdw.plan r)
  in
  Check.validate ~shell:(Fixtures.shell ()) bad

let test_mut_shuffle_cols () =
  expect_rules ~rules:[ "R3.move-applicability" ] (mut_shuffle_cols ())

(* m5: drop a hash column from the movement's carried projection *)
let mut_move_layout () =
  let r = optimize_raw agg_sql in
  let bad =
    mutate_first
      (fun n ->
         match n.Pdwopt.Pplan.op with
         | Pdwopt.Pplan.Move { kind = Dms.Op.Shuffle (h :: _) as kind; cols }
           when List.mem h cols ->
           Some { n with
                  Pdwopt.Pplan.op =
                    Pdwopt.Pplan.Move
                      { kind; cols = List.filter (fun c -> c <> h) cols } }
         | _ -> None)
      (Opdw.plan r)
  in
  Check.validate ~shell:(Fixtures.shell ()) bad

let test_mut_move_layout () =
  expect_rules ~rules:[ "R4.move-layout" ] (mut_move_layout ())

(* m6: flip a serial operator's declared hash distribution *)
let mut_serial_dist () =
  let r = optimize_raw agg_sql in
  let bad =
    mutate_first
      (fun n ->
         match n.Pdwopt.Pplan.op, n.Pdwopt.Pplan.dist with
         | Pdwopt.Pplan.Serial _, Dms.Distprop.Hashed (_ :: _) ->
           Some { n with Pdwopt.Pplan.dist = Dms.Distprop.Replicated }
         | _ -> None)
      (Opdw.plan r)
  in
  Check.validate ~shell:(Fixtures.shell ()) bad

let test_mut_serial_dist () =
  expect_rules ~rules:[ "R1.dist-rederive"; "R2.dist-local-op" ] (mut_serial_dist ())

(* m4: a root claiming to cost less than its children *)
let mut_root_cost () =
  let r = optimize_raw agg_sql in
  let p = Opdw.plan r in
  let child_dms =
    List.fold_left
      (fun a c -> a +. c.Pdwopt.Pplan.dms_cost) 0. p.Pdwopt.Pplan.children
  in
  if child_dms <= 0. then
    Alcotest.fail "plan has no movement cost to corrupt";
  let bad = { p with Pdwopt.Pplan.dms_cost = 0. } in
  Check.validate ~shell:(Fixtures.shell ()) bad

let test_mut_root_cost () =
  expect_rules ~rules:[ "R5.cost-monotone" ] (mut_root_cost ())

(* -- DSQL mutations -- *)

let dsql_of sql =
  let r = optimize_raw sql in
  (r, Opdw.plan r, r.Opdw.dsql)

let validate_dsql r p d =
  Check.validate ~cost:(cost_of r) ~dsql:d ~shell:(Fixtures.shell ()) p

(* m3: swap the first two steps; ids are no longer sequential and the Return
   step no longer trails *)
let mut_dsql_swap () =
  let r, p, d = dsql_of agg_sql in
  let bad =
    match d.Dsql.Generate.steps with
    | a :: b :: rest -> { d with Dsql.Generate.steps = b :: a :: rest }
    | _ -> Alcotest.fail "need at least two DSQL steps"
  in
  validate_dsql r p bad

let test_mut_dsql_swap () =
  expect_rules ~rules:[ "R7.dsql-steps" ] (mut_dsql_swap ())

(* m7: drop the trailing Return step *)
let mut_dsql_no_return () =
  let r, p, d = dsql_of agg_sql in
  let bad =
    { d with
      Dsql.Generate.steps =
        List.filter
          (function Dsql.Generate.Return_step _ -> false | _ -> true)
          d.Dsql.Generate.steps }
  in
  validate_dsql r p bad

let test_mut_dsql_no_return () =
  expect_rules ~rules:[ "R7.dsql-steps" ] (mut_dsql_no_return ())

(* m9: duplicate a step id *)
let mut_dsql_dup_id () =
  let r, p, d = dsql_of agg_sql in
  let bad =
    { d with
      Dsql.Generate.steps =
        List.map
          (function
            | Dsql.Generate.Return_step s ->
              Dsql.Generate.Return_step { s with id = 0 }
            | s -> s)
          d.Dsql.Generate.steps }
  in
  validate_dsql r p bad

let test_mut_dsql_dup_id () =
  expect_rules ~rules:[ "R7.dsql-steps" ] (mut_dsql_dup_id ())

(* m8: corrupt a temp-table column id; the DMS step schema no longer matches
   the movement that fills it *)
let mut_dsql_schema () =
  let r, p, d = dsql_of agg_sql in
  let hit = ref false in
  let bad =
    { d with
      Dsql.Generate.steps =
        List.map
          (function
            | Dsql.Generate.Dms_step ({ cols = (id, n) :: rest; _ } as s)
              when not !hit ->
              hit := true;
              Dsql.Generate.Dms_step { s with cols = (id + 1000, n) :: rest }
            | s -> s)
          d.Dsql.Generate.steps }
  in
  if not !hit then Alcotest.fail "no DMS step to corrupt";
  validate_dsql r p bad

let test_mut_dsql_schema () =
  expect_rules ~rules:[ "R9.dsql-schema" ] (mut_dsql_schema ())

(* -- appliance refusal (satellite: the engine will not run an invalid plan) -- *)

let test_appliance_refusal () =
  let app = Fixtures.app () in
  let r = optimize_raw agg_sql in
  let bad =
    mutate_first
      (fun n ->
         match n.Pdwopt.Pplan.op, n.Pdwopt.Pplan.dist with
         | Pdwopt.Pplan.Serial _, Dms.Distprop.Hashed (_ :: _) ->
           (* still Hashed, so the simulated substrate happily executes it;
              only the analyzer knows the annotation is a lie *)
           Some { n with Pdwopt.Pplan.dist = Dms.Distprop.Hashed [ 999_999 ] }
         | _ -> None)
      (Opdw.plan r)
  in
  Fun.protect
    ~finally:(fun () -> Engine.Appliance.set_check app true)
    (fun () ->
       Engine.Appliance.set_check app true;
       (match Engine.Appliance.run_pplan app bad with
        | _ -> Alcotest.fail "appliance executed an invalid plan"
        | exception Check.Invalid vs ->
          expect_rules ~rules:[ "R1.dist-rederive"; "R2.dist-local-op" ] vs);
       (* with the gate off, the same plan runs (wrong annotations and all) *)
       Engine.Appliance.set_check app false;
       let res = Engine.Appliance.run_pplan app bad in
       Alcotest.(check bool) "gate off: plan executes" true
         (List.length res.Engine.Local.rows >= 0))

(* statement state is a value, not appliance state: a statement that raises
   [Check.Invalid] inside [Opdw.run] leaves nothing armed that the next
   statement on the same appliance could inherit *)
let test_observer_is_per_statement () =
  let app = Fixtures.app () in
  let r = optimize_raw agg_sql in
  let bad_plan =
    mutate_first
      (fun n ->
         match n.Pdwopt.Pplan.op, n.Pdwopt.Pplan.dist with
         | Pdwopt.Pplan.Serial _, Dms.Distprop.Hashed (_ :: _) ->
           Some { n with Pdwopt.Pplan.dist = Dms.Distprop.Hashed [ 999_999 ] }
         | _ -> None)
      (Opdw.plan r)
  in
  let bad = { r with Opdw.pdw = { r.Opdw.pdw with Pdwopt.Optimizer.plan = bad_plan } } in
  let counter () =
    let calls = ref [] in
    ((fun (p : Pdwopt.Pplan.t) rows -> calls := (p.Pdwopt.Pplan.group, rows) :: !calls),
     calls)
  in
  let observe1, first = counter () in
  (match Opdw.run ~observe:observe1 app bad with
   | _ -> Alcotest.fail "appliance executed an invalid plan"
   | exception Check.Invalid _ -> ());
  Alcotest.(check int) "refused statement observed nothing" 0 (List.length !first);
  let observe2, second = counter () in
  let good = Opdw.optimize (Fixtures.shell ()) q3_sql in
  ignore (Opdw.run ~observe:observe2 app good);
  Alcotest.(check int) "second counter sees exactly its own operators"
    (Fixtures.executed_ops (Opdw.plan good)) (List.length !second);
  Alcotest.(check int) "first counter unchanged" 0 (List.length !first)

(* m10: splice out the global half of Q1's local/global aggregation split,
   so the Compute above it reads the Shuffle directly: the partial
   aggregate below the Shuffle is no longer re-grouped by an enclosing
   global aggregate *)
let q1_shell =
  lazy (Opdw.Workload.tpch ~node_count:8 ~sf:0.002 ()).Opdw.Workload.shell

let mut_global_agg () =
  let shell = Lazy.force q1_shell in
  let q1 = Option.get (Tpch.Queries.find "Q1") in
  let r = Opdw.optimize ~check:false shell q1.Tpch.Queries.sql in
  let bad =
    mutate_first
      (fun n ->
         match n.Pdwopt.Pplan.op, n.Pdwopt.Pplan.children with
         | ( Pdwopt.Pplan.Serial
               (Memo.Physop.Hash_agg _ | Memo.Physop.Stream_agg _),
             [ ({ Pdwopt.Pplan.op = Pdwopt.Pplan.Move _; _ } as move) ] ) ->
           Some move
         | _ -> None)
      (Opdw.plan r)
  in
  (shell, bad)

let test_mut_global_agg () =
  let shell, bad = mut_global_agg () in
  let rules vs = List.map (fun v -> v.Check.rule) vs in
  Alcotest.(check (list string)) "validate" [ "R2.dist-local-op" ]
    (rules (Check.validate ~shell bad));
  Alcotest.(check (list string)) "validate_exec" [ "R2.dist-local-op" ]
    (rules (Check.validate_exec ~shell bad))

(* Every mutant's exact ordered [(rule, message)] list: a change to the
   check that drops, duplicates or reorders a violation fails here even
   when the mutant's rule id is still somewhere in the list. *)
let pinned_violations =
  [
    ( "spliced-out movement", mut_splice_move,
      [ ("R2.dist-local-op",
         "group-by on keys [2] over a H(0) input is not local and no enclosing global aggregate re-groups it; a movement or local/global split is missing") ] );
    ( "shuffle hash columns", mut_shuffle_cols,
      [ ("R3.move-applicability",
         "Shuffle over H(0) produces H(1002), but the plan declares H(2)");
        ("R4.move-layout",
         "hash columns [1002] are not carried by the moved stream (cols [2,18])") ] );
    ( "movement layout", mut_move_layout,
      [ ("R4.move-layout",
         "hash columns [2] are not carried by the moved stream (cols [18])") ] );
    ( "serial distribution", mut_serial_dist,
      [ ("R1.dist-rederive",
         "local group-by over R produces R, plan declares H(0)");
        ("R1.dist-rederive",
         "scan of orders is H(0) on the appliance, plan declares R") ] );
    ( "root cost", mut_root_cost,
      [ ("R5.cost-monotone",
         "cumulative DMS cost 0 is below its children's 3.78e-08") ] );
    ( "DSQL step order", mut_dsql_swap,
      [ ("R7.dsql-steps",
         "step at position 0 carries id 1 (want sequential ids)");
        ("R7.dsql-steps",
         "step at position 1 carries id 0 (want sequential ids)");
        ("R7.dsql-steps",
         "the last step must be the Return step");
        ("R8.dsql-temp-defined",
         "references TEMP_ID_1 before any step fills it") ] );
    ( "DSQL missing return", mut_dsql_no_return,
      [ ("R7.dsql-steps",
         "no Return step") ] );
    ( "DSQL duplicate id", mut_dsql_dup_id,
      [ ("R7.dsql-steps",
         "step at position 1 carries id 0 (want sequential ids)") ] );
    ( "DSQL temp schema", mut_dsql_schema,
      [ ("R9.dsql-schema",
         "temp-table schema covers columns [1002,18], movement carries [2,18]");
        ("R10.types",
         "o_orderstatus: temp column o_orderstatus maps to unknown column #1002") ] );
    ( "join key types", Test_analysis.mut_join_key_types,
      [ ("R11.bounds",
         "row estimate 10 outside derived bounds [0, 0]");
        ("R11.bounds",
         "row estimate 470.856 outside derived bounds [0, 0]");
        ("R11.bounds",
         "row estimate 470.856 outside derived bounds [0, 0]");
        ("R11.bounds",
         "row estimate 941.712 outside derived bounds [0, 0]");
        ("R10.types",
         "(customer.c_name = customer.c_custkey): comparison between incompatible types varchar and int");
        ("R12.contradiction",
         "contradictory predicate left unfolded: (customer.c_name = customer.c_custkey)");
        ("R11.bounds",
         "row estimate 266.664 outside derived bounds [0, 0]") ] );
    ( "SUM over string", Test_analysis.mut_sum_over_string,
      [ ("R10.types",
         "orders.o_orderstatus: SUM over non-numeric type varchar");
        ("R10.types",
         "partial17: SUM of type varchar assigned to column declared float") ] );
    ( "rows above bound", Test_analysis.mut_rows_above_bound,
      [ ("R11.bounds",
         "row estimate 4000 outside derived bounds [3000, 3000]") ] );
    ( "non-monotone rows", Test_analysis.mut_rows_non_monotone,
      [ ("R11.bounds",
         "row estimate 120380 outside derived bounds [0, 12028]") ] );
    ( "contradictory filter", Test_analysis.mut_contradictory_filter,
      [ ("R11.bounds",
         "row estimate 3000 outside derived bounds [0, 0]");
        ("R12.contradiction",
         "contradictory predicate left unfolded: ((orders.o_orderkey < 5) AND (orders.o_orderkey > 10))");
        ("R11.bounds",
         "row estimate 3000 outside derived bounds [0, 0]") ] );
    ( "IS NULL of non-nullable", Test_analysis.mut_null_of_nonnullable,
      [ ("R11.bounds",
         "row estimate 3000 outside derived bounds [0, 0]");
        ("R12.contradiction",
         "contradictory predicate left unfolded: (orders.o_orderkey IS NULL)");
        ("R11.bounds",
         "row estimate 3000 outside derived bounds [0, 0]") ] );
    ( "DSQL temp schema types", Test_analysis.mut_dsql_temp_types,
      [ ("R10.types",
         "o_orderstatus: temp column o_orderstatus emitted with conflicting types varchar and float") ] ) ]

let test_pinned_violations () =
  List.iter
    (fun (name, mutant, want) ->
       Alcotest.(check (list (pair string string))) name want
         (List.map (fun v -> (v.Check.rule, v.Check.message)) (mutant ())))
    pinned_violations

let suite =
  [ t "rule catalog" test_rule_catalog;
    t "agg plan validates clean" test_clean_agg;
    t "Q3 plan validates clean" test_clean_q3;
    t "baseline plan passes exec rules" test_clean_baseline;
    t "mutation: spliced-out movement" test_mut_splice_move;
    t "mutation: shuffle hash columns" test_mut_shuffle_cols;
    t "mutation: movement layout" test_mut_move_layout;
    t "mutation: serial distribution" test_mut_serial_dist;
    t "mutation: root cost" test_mut_root_cost;
    t "mutation: DSQL step order" test_mut_dsql_swap;
    t "mutation: DSQL missing return" test_mut_dsql_no_return;
    t "mutation: DSQL duplicate id" test_mut_dsql_dup_id;
    t "mutation: DSQL temp schema" test_mut_dsql_schema;
    t "appliance refuses invalid plans" test_appliance_refusal;
    t "observer is per statement, not appliance state"
      test_observer_is_per_statement;
    t "mutation: spliced-out global aggregate" test_mut_global_agg;
    t "mutants: exact ordered violations" test_pinned_violations ]
