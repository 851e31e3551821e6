(* Abstract-interpretation plan analyzer (lib/analysis): typed expressions,
   interval/cardinality bounds, contradiction detection, memo-level empty
   groups driving plan folding, the R10-R12 check rules over mutated plans,
   and the engine's --assert-bounds runtime oracle. *)

open Algebra

let t name f = Alcotest.test_case name `Quick f

let agg_sql =
  "SELECT o_orderstatus, SUM(o_totalprice) AS s FROM orders, customer \
   WHERE o_custkey = c_custkey GROUP BY o_orderstatus"

let filter_sql = "SELECT o_orderkey FROM orders WHERE o_orderkey > 0"

(* a contradiction only the catalog can prove: o_totalprice is never
   negative in the loaded data, so min/max seeding refutes the filter while
   the (stats-free) normalizer keeps it *)
let contra_sql = "SELECT o_orderkey FROM orders WHERE o_totalprice < 0"

let q3_sql =
  match Tpch.Queries.find "Q3" with
  | Some q -> q.Tpch.Queries.sql
  | None -> failwith "Q3 missing from the bundled workload"

let optimize_raw sql = Opdw.optimize ~check:false (Fixtures.shell ()) sql

let ctx_of (r : Opdw.result) =
  Analysis.context ~shell:(Fixtures.shell ()) ~reg:r.Opdw.memo.Memo.reg ~nodes:4

let cost_of (r : Opdw.result) =
  { Check.nodes = 4;
    lambdas = Pdwopt.Enumerate.default_opts.Pdwopt.Enumerate.lambdas;
    reg = r.Opdw.memo.Memo.reg }

let validate_full (r : Opdw.result) p =
  Check.validate ~cost:(cost_of r) ~dsql:r.Opdw.dsql ~shell:(Fixtures.shell ()) p

(* -- mutation helpers (same shape as test_check) -- *)

let map_tree f p =
  let rec go p =
    f { p with Pdwopt.Pplan.children = List.map go p.Pdwopt.Pplan.children }
  in
  go p

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

(* first registry column of the wanted base type *)
let col_of_ty reg ty =
  let n = Registry.count reg in
  let rec go i =
    if i >= n then Alcotest.fail "no column of the wanted type"
    else if (Registry.info reg i).Registry.ty = ty then i
    else go (i + 1)
  in
  go 0

(* -- typed-expression checker units -- *)

let test_infer_and_check_expr () =
  let r = optimize_raw agg_sql in
  let reg = r.Opdw.memo.Memo.reg in
  let scol = col_of_ty reg Catalog.Types.Tstring in
  let icol = col_of_ty reg Catalog.Types.Tint in
  (* well-typed: int comparison *)
  Alcotest.(check int) "int cmp clean" 0
    (List.length
       (Analysis.check_expr reg
          (Expr.Bin (Expr.Gt, Expr.Col icol, Expr.Lit (Catalog.Value.Int 0)))));
  (* arithmetic over a string column *)
  Alcotest.(check bool) "string arith rejected" true
    (Analysis.check_expr reg
       (Expr.Bin (Expr.Add, Expr.Col scol, Expr.Lit (Catalog.Value.Int 1)))
     <> []);
  (* incompatible comparison: string vs int *)
  Alcotest.(check bool) "string=int rejected" true
    (Analysis.check_expr reg (Expr.Bin (Expr.Eq, Expr.Col scol, Expr.Col icol))
     <> []);
  (* inferred type of an int column is non-nullable int when stats say so *)
  let ty = Analysis.infer_ty reg (Expr.Col icol) in
  Alcotest.(check bool) "col type is its declared base" true
    (ty.Analysis.base = Some Catalog.Types.Tint)

(* -- positive: workload plans annotate clean with sound bounds -- *)

let test_annotate_clean () =
  List.iter
    (fun sql ->
       let r = optimize_raw sql in
       let infos = Check.annotate (ctx_of r) (Opdw.plan r) in
       List.iter
         (fun ((n : Pdwopt.Pplan.t), (i : Check.node_info)) ->
            Alcotest.(check bool) "no type errors" true (i.Check.type_errors = []);
            Alcotest.(check bool) "no contradiction" true
              (i.Check.contradiction = None);
            Alcotest.(check bool) "bounds ordered" true
              (i.Check.card_lo <= i.Check.card_hi);
            (* the estimator must sit inside the derived interval (modulo its
               own 1-row floor); Return rows are not limit-clamped upstream *)
            match n.Pdwopt.Pplan.op with
            | Pdwopt.Pplan.Return _ -> ()
            | _ ->
              Alcotest.(check bool)
                (Printf.sprintf "rows %g within [%g, %g]" n.Pdwopt.Pplan.rows
                   i.Check.card_lo i.Check.card_hi)
                true
                (n.Pdwopt.Pplan.rows <= Float.max 1. i.Check.card_hi +. 9.
                 && n.Pdwopt.Pplan.rows >= i.Check.card_lo -. 1.))
         infos)
    [ agg_sql; q3_sql; filter_sql ]

let test_scan_bounds_exact () =
  let r = optimize_raw filter_sql in
  let infos = Check.annotate (ctx_of r) (Opdw.plan r) in
  let scan =
    List.find_opt
      (fun ((n : Pdwopt.Pplan.t), _) ->
         match n.Pdwopt.Pplan.op with
         | Pdwopt.Pplan.Serial (Memo.Physop.Table_scan _) -> true
         | _ -> false)
      infos
  in
  match scan with
  | None -> Alcotest.fail "no scan in the plan"
  | Some (n, i) ->
    Alcotest.(check (float 1e-9)) "scan lo is the catalog row count"
      n.Pdwopt.Pplan.rows i.Check.card_lo;
    Alcotest.(check (float 1e-9)) "scan hi is the catalog row count"
      n.Pdwopt.Pplan.rows i.Check.card_hi

(* -- mutation matrix: R10 (types), R11 (bounds), R12 (contradiction) -- *)

(* a1: join keys of incompatible types (agg_sql's unused join is eliminated
   by the optimizer, so mutate Q3's real joins) *)
let mut_join_key_types () =
  let r = optimize_raw q3_sql in
  let reg = r.Opdw.memo.Memo.reg in
  let scol = col_of_ty reg Catalog.Types.Tstring in
  let icol = col_of_ty reg Catalog.Types.Tint in
  let bad =
    mutate_first
      (fun n ->
         match n.Pdwopt.Pplan.op with
         | Pdwopt.Pplan.Serial (Memo.Physop.Hash_join { kind; pred = _ }) ->
           Some { n with
                  Pdwopt.Pplan.op =
                    Pdwopt.Pplan.Serial
                      (Memo.Physop.Hash_join
                         { kind;
                           pred = Expr.Bin (Expr.Eq, Expr.Col scol, Expr.Col icol) }) }
         | _ -> None)
      (Opdw.plan r)
  in
  validate_full r bad

let test_mut_join_key_types () =
  expect_rules ~rules:[ "R10.types" ] (mut_join_key_types ())

(* a2: SUM over a string column *)
let mut_sum_over_string () =
  let r = optimize_raw agg_sql in
  let reg = r.Opdw.memo.Memo.reg in
  let scol = col_of_ty reg Catalog.Types.Tstring in
  let bad =
    mutate_first
      (fun n ->
         match n.Pdwopt.Pplan.op with
         | Pdwopt.Pplan.Serial (Memo.Physop.Hash_agg { keys; aggs = a :: rest }) ->
           Some { n with
                  Pdwopt.Pplan.op =
                    Pdwopt.Pplan.Serial
                      (Memo.Physop.Hash_agg
                         { keys;
                           aggs =
                             { a with
                               Expr.agg_func = Expr.Sum;
                               agg_arg = Some (Expr.Col scol);
                               agg_distinct = false }
                             :: rest }) }
         | _ -> None)
      (Opdw.plan r)
  in
  validate_full r bad

let test_mut_sum_over_string () =
  expect_rules ~rules:[ "R10.types" ] (mut_sum_over_string ())

(* a3: scan claiming more rows than the catalog holds *)
let mut_rows_above_bound () =
  let r = optimize_raw agg_sql in
  let bad =
    mutate_first
      (fun n ->
         match n.Pdwopt.Pplan.op with
         | Pdwopt.Pplan.Serial (Memo.Physop.Table_scan _) ->
           Some { n with Pdwopt.Pplan.rows = n.Pdwopt.Pplan.rows +. 1000. }
         | _ -> None)
      (Opdw.plan r)
  in
  validate_full r bad

let test_mut_rows_above_bound () =
  expect_rules ~rules:[ "R11.bounds" ] (mut_rows_above_bound ())

(* a4: non-monotone estimate — a filter claiming far more rows than its
   child can produce *)
let mut_rows_non_monotone () =
  let r = optimize_raw q3_sql in
  let bad =
    mutate_first
      (fun n ->
         match n.Pdwopt.Pplan.op, n.Pdwopt.Pplan.children with
         | Pdwopt.Pplan.Serial (Memo.Physop.Filter _), [ c ] ->
           Some { n with
                  Pdwopt.Pplan.rows = (c.Pdwopt.Pplan.rows *. 10.) +. 100. }
         | _ -> None)
      (Opdw.plan r)
  in
  validate_full r bad

let test_mut_rows_non_monotone () =
  expect_rules ~rules:[ "R11.bounds" ] (mut_rows_non_monotone ())

(* a5: a contradictory range filter left unfolded in the plan *)
let mut_contradictory_filter () =
  let r = optimize_raw filter_sql in
  let bad =
    mutate_first
      (fun n ->
         match n.Pdwopt.Pplan.op with
         | Pdwopt.Pplan.Serial (Memo.Physop.Filter pred) ->
           let k =
             match Registry.Col_set.choose_opt (Expr.cols pred) with
             | Some c -> c
             | None -> Alcotest.fail "filter references no columns"
           in
           Some { n with
                  Pdwopt.Pplan.op =
                    Pdwopt.Pplan.Serial
                      (Memo.Physop.Filter
                         (Expr.Bin
                            (Expr.And,
                             Expr.Bin (Expr.Lt, Expr.Col k,
                                       Expr.Lit (Catalog.Value.Int 5)),
                             Expr.Bin (Expr.Gt, Expr.Col k,
                                       Expr.Lit (Catalog.Value.Int 10))))) }
         | _ -> None)
      (Opdw.plan r)
  in
  validate_full r bad

let test_mut_contradictory_filter () =
  expect_rules ~rules:[ "R12.contradiction" ] (mut_contradictory_filter ())

(* a6: nullability violation — IS NULL demanded of a column the catalog
   proves never null (a primary key) *)
let mut_null_of_nonnullable () =
  let r = optimize_raw filter_sql in
  let bad =
    mutate_first
      (fun n ->
         match n.Pdwopt.Pplan.op with
         | Pdwopt.Pplan.Serial (Memo.Physop.Filter pred) ->
           let k =
             match Registry.Col_set.choose_opt (Expr.cols pred) with
             | Some c -> c
             | None -> Alcotest.fail "filter references no columns"
           in
           Some { n with
                  Pdwopt.Pplan.op =
                    Pdwopt.Pplan.Serial
                      (Memo.Physop.Filter (Expr.Is_null (Expr.Col k, false))) }
         | _ -> None)
      (Opdw.plan r)
  in
  validate_full r bad

let test_mut_null_of_nonnullable () =
  expect_rules ~rules:[ "R12.contradiction" ] (mut_null_of_nonnullable ())

(* a7: DSQL temp schema carrying one emitted name at two incompatible types *)
let mut_dsql_temp_types () =
  let r = optimize_raw agg_sql in
  let reg = r.Opdw.memo.Memo.reg in
  let d = r.Opdw.dsql in
  let hit = ref false in
  let bad_steps =
    List.map
      (function
        | Dsql.Generate.Dms_step ({ cols = (a, an) :: (b, _) :: rest; _ } as s)
          when (not !hit)
               && not
                    (Catalog.Types.compatible (Registry.info reg a).Registry.ty
                       (Registry.info reg b).Registry.ty) ->
          hit := true;
          Dsql.Generate.Dms_step { s with cols = (a, an) :: (b, an) :: rest }
        | s -> s)
      d.Dsql.Generate.steps
  in
  if not !hit then Alcotest.fail "no DMS step with incompatible col pair";
  let bad = { d with Dsql.Generate.steps = bad_steps } in
  Check.validate ~cost:(cost_of r) ~dsql:bad ~shell:(Fixtures.shell ())
    (Opdw.plan r)

let test_mut_dsql_temp_types () =
  expect_rules ~rules:[ "R10.types" ] (mut_dsql_temp_types ())

(* -- memo-level analysis and contradiction-driven folding -- *)

let test_empty_groups_on_contradiction () =
  let r = optimize_raw contra_sql in
  let m = r.Opdw.memo in
  let empty = Analysis.empty_groups (ctx_of r) m in
  Alcotest.(check bool) "root group proven empty" true (empty (Memo.root m));
  (* a satisfiable query proves nothing empty *)
  let r2 = optimize_raw filter_sql in
  let m2 = r2.Opdw.memo in
  let empty2 = Analysis.empty_groups (ctx_of r2) m2 in
  let any = ref false in
  Memo.iter_groups m2 (fun g -> if empty2 g.Memo.gid then any := true);
  Alcotest.(check bool) "no empty groups in a live query" false !any

(* Every group's MEMO-level env (each column's interval, nullable, valued,
   and the cardinality bounds) as one digest, all groups from one pass. *)
let env_digest ctx (m : Memo.t) =
  let env = Analysis.memo_env ctx m in
  let value = function
    | None -> "-"
    | Some Catalog.Value.Null -> "N"
    | Some (Catalog.Value.Int i) -> Printf.sprintf "i%d" i
    | Some (Catalog.Value.Float f) -> Printf.sprintf "f%h" f
    | Some (Catalog.Value.String s) -> Printf.sprintf "s%S" s
    | Some (Catalog.Value.Bool b) -> Printf.sprintf "b%B" b
    | Some (Catalog.Value.Date d) -> Printf.sprintf "d%d" d
  in
  let b = Buffer.create 4096 in
  Memo.iter_groups m (fun g ->
      let e = env g.Memo.gid in
      Printf.bprintf b "g%d:%h,%h" g.Memo.gid e.Analysis.lo e.Analysis.hi;
      Analysis.iter_ivs
        (fun c (iv : Analysis.iv) ->
           Printf.bprintf b " %d[%s,%s]%B%B" c (value iv.Analysis.lo)
             (value iv.Analysis.hi) iv.Analysis.nullable iv.Analysis.valued)
        e;
      Buffer.add_char b ';');
  Digest.to_hex (Digest.string (Buffer.contents b))

(* 8 nodes, SF 0.01, over the MEMO the empty-group pass ran on *)
let pinned_envs =
  [ ("P1", "d798ce9e06291e9aa46955f3db73bdcf");
    ("F3", "910bd2c122638366d52a82a019cd62ea");
    ("P2", "8298ce0b588d43115203e1f87963bb32");
    ("Q1", "1f4b7bfec7688a334eda1b7a2ce8171e");
    ("Q2", "9136d5d6ccf7e276a39b8fccc28da81b");
    ("Q3", "9c9759a296dd7508c5508d035cef4d1e");
    ("Q4", "78e7724a7cd49af6dec959301c8b2cf2");
    ("Q5", "9434bb7bb7c7f055cbe8d6bdbf8bfd84");
    ("Q6", "7ea4d783ffb4ce6c609c7c5f1d790680");
    ("Q7", "02051adb8703b635757290aa13935f97");
    ("Q8", "96d89b34f89ec26cbd1a4a0babfaed8b");
    ("Q9", "1e98935feba96d1f4a3e59eeac9f9ffa");
    ("Q10", "1d1763d625477e2c5fac50e419d9c1d3");
    ("Q11", "65ec6a423c80d7aac832586324d19163");
    ("Q12", "e1ba939299284f63579f617af628953c");
    ("Q13", "e0fdd6dfc5ff6aaf907bfd2aeaea5f5a");
    ("Q14", "37f7e78702dc4f9f098354a82966d3d2");
    ("Q15", "6050b070097da047d24e024a5ee4d080");
    ("Q16", "04036036bce7b99e89f81eadeb9a415c");
    ("Q17", "99544d69c1c686d5f164e2a94220c2e4");
    ("Q18", "b4cf35c4aab789e24b3acd6949d7bb5c");
    ("Q19", "8e2b6abfcf266bb270dee593b722ac04");
    ("Q20", "4ccb7fe5903fd8bdfa711867193c7979");
    ("Q21", "ef3c8d7df179d1b7959a823bd092ebc4");
    ("Q22", "af1c98cea50ec66def27b2550a3562e3") ]

let test_memo_envs_pinned () =
  let sh = Lazy.force Fixtures.pinned_shell in
  let options = Opdw.default_options ~node_count:8 in
  Alcotest.(check (list string)) "every workload statement is pinned"
    (List.map (fun q -> q.Tpch.Queries.id) Tpch.Queries.all)
    (List.map fst pinned_envs);
  List.iter
    (fun (id, digest) ->
       let e = Opdw.explore ~options sh (Option.get (Tpch.Queries.find id)).Tpch.Queries.sql in
       let m = e.Opdw.e_memo in
       let ctx = Analysis.context ~shell:sh ~reg:m.Memo.reg ~nodes:8 in
       Alcotest.(check string) (id ^ ": group envs") digest (env_digest ctx m))
    pinned_envs

(* One evaluation per distinct (shape, canonical children) pair: [g]'s
   logical Select and physical Filter carry the same predicate, and their
   children were distinct groups until a merge made them one. *)
let test_memo_meet_dedup () =
  let sh = Fixtures.shell () in
  let r = Algebrizer.of_sql sh "SELECT c_custkey FROM customer WHERE c_custkey > 0" in
  let reg = r.Algebrizer.reg in
  let rec find_op f (t : Relop.t) =
    match f t.Relop.op with
    | Some x -> Some x
    | None -> List.find_map (find_op f) t.Relop.children
  in
  let find f = Option.get (find_op f r.Algebrizer.tree) in
  let get_op = find (function Relop.Get _ as op -> Some op | _ -> None) in
  let pred = find (function Relop.Select p -> Some p | _ -> None) in
  let m = Memo.create reg sh in
  let a = Memo.insert m (Memo.Logical get_op) [||] in
  let b =
    Memo.insert m
      (Memo.Logical (Relop.Empty (Registry.Col_set.elements (Memo.props m a).Memo.cols)))
      [||]
  in
  let g = Memo.insert m (Memo.Logical (Relop.Select pred)) [| a |] in
  ignore (Memo.insert ~target:g m (Memo.Physical (Memo.Physop.Filter pred)) [| b |]);
  Memo.merge_groups m a b;
  m.Memo.root <- g;
  let ctx = Analysis.context ~shell:sh ~reg ~nodes:4 in
  (* [a]: Get and Empty; [g]: one filter over [a] *)
  Alcotest.(check int) "distinct pairs evaluated" 3 (Analysis.memo_evals ctx m);
  Alcotest.(check bool) "the merged-in Empty refutes the scan" true
    (Analysis.is_empty (Analysis.memo_env ctx m g))

(* A column bound to [top_iv] is bound, not unbound: it shows in
   [fold_ivs] after a meet, a join and an inner join, as a map binding
   did. A literal equal to [top_iv] binds it too. *)
let test_explicit_top_stays_bound () =
  let bound e =
    Analysis.fold_ivs (fun c iv acc -> Printf.sprintf "%d%s" c (Analysis.iv_to_string iv) :: acc) e []
    |> List.rev
  in
  let top = Analysis.iv_to_string Analysis.top_iv in
  let literal_top : Analysis.iv = { lo = None; hi = None; nullable = true; valued = true } in
  let narrow = { Analysis.top_iv with Analysis.nullable = false } in
  let a = Analysis.set_iv Analysis.top_env 3 Analysis.top_iv in
  let b = Analysis.set_iv Analysis.top_env 5 narrow in
  let check name expect e = Alcotest.(check (list string)) name expect (bound e) in
  check "set_iv" [ "3" ^ top ] a;
  check "a literal top" [ "7" ^ top ] (Analysis.set_iv Analysis.top_env 7 literal_top);
  check "meet" [ "3" ^ top; "5" ^ Analysis.iv_to_string narrow ] (Analysis.meet_env a b);
  check "meet with itself" [ "3" ^ top ] (Analysis.meet_env a a);
  check "join: bound on both sides" [ "3" ^ top; "5" ^ top ]
    (Analysis.join_env (Analysis.set_iv a 5 Analysis.top_iv) (Analysis.set_iv b 3 Analysis.top_iv));
  check "join: bound on one side" [] (Analysis.join_env a b);
  let ctx =
    Analysis.context ~shell:(Fixtures.shell ()) ~reg:(Registry.create ()) ~nodes:4
  in
  let out, _ =
    Analysis.physop_transfer ctx
      (Memo.Physop.Hash_join { kind = Relop.Inner; pred = Expr.Lit (Catalog.Value.Bool true) })
      [ a; b ] ~dist:Dms.Distprop.Replicated ~partial_agg:false
  in
  check "inner join" [ "3" ^ top; "5" ^ Analysis.iv_to_string narrow ] out

let has_const_empty p =
  let found = ref false in
  let rec walk (n : Pdwopt.Pplan.t) =
    (match n.Pdwopt.Pplan.op with
     | Pdwopt.Pplan.Serial (Memo.Physop.Const_empty _) -> found := true
     | _ -> ());
    List.iter walk n.Pdwopt.Pplan.children
  in
  walk p;
  !found

let fold_options ~fold =
  let o = Opdw.default_options ~node_count:4 in
  { o with Opdw.pdw = { o.Opdw.pdw with Pdwopt.Enumerate.fold_empty = fold } }

let test_fold_to_const_empty () =
  let obs = Obs.create () in
  let r =
    Opdw.optimize ~obs ~options:(fold_options ~fold:true) (Fixtures.shell ())
      contra_sql
  in
  Alcotest.(check bool) "plan folded to ConstEmpty" true
    (has_const_empty (Opdw.plan r));
  Alcotest.(check bool) "analysis.empty_groups counted" true
    (List.exists
       (fun (k, v) -> k = "analysis.empty_groups" && v > 0.)
       (Obs.counters_prefixed obs "analysis."));
  (* both fold settings execute to the same (empty) answer *)
  let app = Fixtures.app () in
  let rows_on = (Opdw.run app r).Engine.Local.rows in
  (* with folding off the contradictory filter survives into the final plan,
     so the R12 check gate would (correctly) reject it — compile unchecked *)
  let r_off =
    Opdw.optimize ~check:false ~options:(fold_options ~fold:false)
      (Fixtures.shell ()) contra_sql
  in
  Alcotest.(check bool) "unfolded plan keeps the filter" false
    (has_const_empty (Opdw.plan r_off));
  let rows_off = (Opdw.run app r_off).Engine.Local.rows in
  Alcotest.(check int) "folded plan returns no rows" 0 (List.length rows_on);
  Alcotest.(check int) "unfolded plan returns no rows" 0 (List.length rows_off)

(* fold on/off produce bit-identical plans when no contradiction exists, at
   any pool width *)
let test_fold_bit_identity () =
  let render ~fold ~jobs sql =
    Par.with_pool ~jobs @@ fun pool ->
    let r =
      Opdw.optimize ~options:(fold_options ~fold) ~pool (Fixtures.shell ()) sql
    in
    let reg = r.Opdw.memo.Memo.reg in
    Printf.sprintf "%s\n--\n%s\n--\n%h"
      (Pdwopt.Pplan.to_string reg (Opdw.plan r))
      (Dsql.Generate.to_string r.Opdw.dsql)
      (Opdw.plan r).Pdwopt.Pplan.dms_cost
  in
  List.iter
    (fun sql ->
       let base = render ~fold:true ~jobs:1 sql in
       Alcotest.(check string) "fold off, jobs 1" base (render ~fold:false ~jobs:1 sql);
       Alcotest.(check string) "fold on, jobs 4" base (render ~fold:true ~jobs:4 sql);
       Alcotest.(check string) "fold off, jobs 4" base (render ~fold:false ~jobs:4 sql))
    [ agg_sql; q3_sql ]

(* -- the engine's --assert-bounds runtime oracle -- *)

let test_assert_bounds_workload () =
  let app = Fixtures.app () in
  List.iter
    (fun (q : Tpch.Queries.t) ->
       let r = Opdw.optimize (Fixtures.shell ()) q.Tpch.Queries.sql in
       let observe, violations =
         Check.bounds_observer (Check.group_bounds (ctx_of r) (Opdw.plan r))
       in
       ignore (Opdw.run ~observe app r);
       Alcotest.(check int)
         (q.Tpch.Queries.id ^ ": no bound violations") 0
         (violations ()))
    Tpch.Queries.all

let test_assert_bounds_detects_corruption () =
  let app = Fixtures.app () in
  let r = Opdw.optimize (Fixtures.shell ()) agg_sql in
  (* claim every group is empty; any operator that produces rows violates *)
  let tbl = Hashtbl.create 8 in
  let rec walk (n : Pdwopt.Pplan.t) =
    if n.Pdwopt.Pplan.group >= 0 then
      Hashtbl.replace tbl n.Pdwopt.Pplan.group (0., 0.);
    List.iter walk n.Pdwopt.Pplan.children
  in
  walk (Opdw.plan r);
  let observe, violations = Check.bounds_observer tbl in
  ignore (Opdw.run ~observe app r);
  Alcotest.(check bool) "violations detected" true (violations () > 0)

(* the count belongs to the caller: a violation observed before a node
   crash survives the decommission + replan (the replacement appliance
   starts from a clean slate, so a count kept on it would read 0) *)
let test_assert_bounds_survive_replan () =
  let w = Opdw.Workload.tpch ~node_count:4 ~sf:0.001 () in
  let shell = w.Opdw.Workload.shell in
  let r = Opdw.optimize shell q3_sql in
  let tbl = Hashtbl.create 8 in
  let rec walk (n : Pdwopt.Pplan.t) =
    if n.Pdwopt.Pplan.group >= 0 then
      Hashtbl.replace tbl n.Pdwopt.Pplan.group (0., 0.);
    List.iter walk n.Pdwopt.Pplan.children
  in
  walk (Opdw.plan r);
  let oracle = Engine.Local.canonical (Opdw.run w.Opdw.Workload.app r) in
  let check_bounds, violations = Check.bounds_observer tbl in
  let seen = ref 0 in
  let observe p rows = incr seen; check_bounds p rows in
  (* step 0 is the first Serial operator; a node crash is drawn only at a
     distributed Serial step, so the first such step after it crashes *)
  let fault =
    Fault.schedule (List.init 4 (fun k -> Fault.event ~node:0 Fault.Node_crash (k + 1)))
  in
  let el = Topology.Elastic.create ~fault shell w.Opdw.Workload.app in
  let _, rows = Topology.Elastic.run ~observe el q3_sql in
  Alcotest.(check int) "one replan" 1
    (Topology.Elastic.app el).Engine.Appliance.account.Engine.Appliance.replans;
  Alcotest.(check bool) "rows survive the replan" true
    (Engine.Local.canonical rows = oracle);
  Alcotest.(check bool) "first attempt observed before the crash" true (!seen >= 1);
  Alcotest.(check bool) "pre-crash violations counted" true (violations () >= 1);
  (* the crash cut the first attempt short, and the replanned attempt (a
     different plan on 3 nodes) is not observed *)
  Alcotest.(check bool) "only the interrupted first attempt observed" true
    (!seen < Fixtures.executed_ops (Opdw.plan r))

let suite =
  [ t "typed-expression checker" test_infer_and_check_expr;
    t "workload plans annotate clean" test_annotate_clean;
    t "scan bounds are exact" test_scan_bounds_exact;
    t "mutation: join key types (R10)" test_mut_join_key_types;
    t "mutation: SUM over string (R10)" test_mut_sum_over_string;
    t "mutation: rows above bound (R11)" test_mut_rows_above_bound;
    t "mutation: non-monotone rows (R11)" test_mut_rows_non_monotone;
    t "mutation: contradictory filter (R12)" test_mut_contradictory_filter;
    t "mutation: IS NULL of non-nullable (R12)" test_mut_null_of_nonnullable;
    t "mutation: DSQL temp schema types (R10)" test_mut_dsql_temp_types;
    t "empty groups on contradiction" test_empty_groups_on_contradiction;
    t "contradiction folds to ConstEmpty" test_fold_to_const_empty;
    t "fold on/off bit-identity" test_fold_bit_identity;
    t "assert-bounds: workload clean" test_assert_bounds_workload;
    t "assert-bounds: detects corruption" test_assert_bounds_detects_corruption;
    t "assert-bounds: violations survive a replan" test_assert_bounds_survive_replan;
    t "memo envs pinned (8 nodes, SF 0.01)" test_memo_envs_pinned;
    t "memo meet: one evaluation per distinct pair" test_memo_meet_dedup;
    t "env: an explicit top binding stays bound" test_explicit_top_stays_bound ]
