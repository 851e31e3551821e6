(* The PDW optimizer: property derivation, enumeration, enforcers, pruning,
   plan choice (paper Fig. 4, §3.2-3.3). *)

open Algebra

let t name f = Alcotest.test_case name `Quick f

let pipeline ?(node_count = 8) ?(pdw_opts = None) sql =
  let sh = Fixtures.shell () in
  ignore node_count;
  let r = Algebra.Algebrizer.of_sql sh sql in
  let tr = Normalize.normalize r.Algebrizer.reg sh r.Algebrizer.tree in
  let sres = Serialopt.Optimizer.optimize r.Algebrizer.reg sh tr in
  let m = sres.Serialopt.Optimizer.memo in
  let opts =
    match pdw_opts with
    | Some o -> o
    | None ->
      { Pdwopt.Enumerate.default_opts with
        Pdwopt.Enumerate.nodes = Catalog.Shell_db.node_count sh }
  in
  (m, Pdwopt.Optimizer.optimize ~opts m, sres)

let moves_of p = Pdwopt.Pplan.moves p

let test_derive_interesting_join_cols () =
  let m, _, _ =
    pipeline "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey"
  in
  let derived = Pdwopt.Derive.derive m in
  (* some group must have o_custkey or c_custkey as an interesting column *)
  let found = ref false in
  Memo.iter_groups m (fun g ->
      List.iter
        (fun cols ->
           List.iter
             (fun c ->
                let l = Registry.label m.Memo.reg c in
                if l = "customer.c_custkey" || l = "orders.o_custkey" then found := true)
             cols)
        (Pdwopt.Derive.interesting derived g.Memo.gid));
  Alcotest.(check bool) "join columns are interesting" true !found

let test_derive_required_cols () =
  let m, _, _ =
    pipeline "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey \
              AND o_totalprice > 5"
  in
  let derived = Pdwopt.Derive.derive m in
  (* the orders-side group's required columns exclude o_comment etc. *)
  let ok = ref false in
  Memo.iter_groups m (fun g ->
      let labels =
        List.map (Registry.label m.Memo.reg)
          (Registry.Col_set.elements (Pdwopt.Derive.required derived g.Memo.gid))
      in
      if List.mem "orders.o_custkey" labels && not (List.mem "orders.o_comment" labels)
      then ok := true);
  Alcotest.(check bool) "required excludes unused wide columns" true !ok

let test_collocated_join_no_moves () =
  (* orders and lineitem are both partitioned on orderkey: zero DMS cost *)
  let _, pres, _ =
    pipeline "SELECT o_orderkey, l_quantity FROM orders, lineitem \
              WHERE o_orderkey = l_orderkey"
  in
  let p = pres.Pdwopt.Optimizer.plan in
  Alcotest.(check int) "no data movement" 0 (Pdwopt.Pplan.move_count p)

let test_incompatible_join_needs_move () =
  let _, pres, _ =
    pipeline "SELECT c_custkey, o_orderdate FROM orders, customer \
              WHERE o_custkey = c_custkey"
  in
  let p = pres.Pdwopt.Optimizer.plan in
  Alcotest.(check bool) "at least one movement" true (Pdwopt.Pplan.move_count p >= 1);
  Alcotest.(check bool) "positive DMS cost" true (p.Pdwopt.Pplan.dms_cost > 0.)

let test_replicated_dimension_no_moves () =
  (* nation is replicated: joining it needs no movement *)
  let _, pres, _ =
    pipeline "SELECT c_name, n_name FROM customer, nation WHERE c_nationkey = n_nationkey"
  in
  Alcotest.(check int) "no movement for replicated join" 0
    (Pdwopt.Pplan.move_count pres.Pdwopt.Optimizer.plan)

let test_local_groupby_on_distribution_key () =
  (* group by the distribution column: local aggregation, no movement *)
  let _, pres, _ =
    pipeline "SELECT o_orderkey, COUNT(*) FROM orders GROUP BY o_orderkey"
  in
  Alcotest.(check int) "local group-by" 0 (Pdwopt.Pplan.move_count pres.Pdwopt.Optimizer.plan)

let test_groupby_split_or_shuffle () =
  (* group by a non-distribution column requires exactly one movement (of
     either the raw rows or the partial aggregates) *)
  let _, pres, _ = pipeline "SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey" in
  let p = pres.Pdwopt.Optimizer.plan in
  Alcotest.(check int) "one movement" 1 (Pdwopt.Pplan.move_count p)

let test_scalar_agg_split () =
  let m, pres, _ = pipeline "SELECT SUM(o_totalprice) FROM orders" in
  let p = pres.Pdwopt.Optimizer.plan in
  ignore m;
  (* either gather-then-aggregate or local/global split; the split moves N
     rows instead of all rows and must win *)
  let rec has_two_aggs (p : Pdwopt.Pplan.t) =
    let here =
      match p.Pdwopt.Pplan.op with
      | Pdwopt.Pplan.Serial (Memo.Physop.Hash_agg _) -> 1
      | _ -> 0
    in
    here + List.fold_left (fun a c -> a + has_two_aggs c) 0 p.Pdwopt.Pplan.children
  in
  Alcotest.(check bool) "local/global split chosen" true (has_two_aggs p >= 2)

let test_avg_split_produces_compute () =
  let _, pres, _ = pipeline "SELECT o_custkey, AVG(o_totalprice) FROM orders GROUP BY o_custkey" in
  let p = pres.Pdwopt.Optimizer.plan in
  let rec has_div (p : Pdwopt.Pplan.t) =
    (match p.Pdwopt.Pplan.op with
     | Pdwopt.Pplan.Serial (Memo.Physop.Compute defs) ->
       List.exists
         (fun (_, e) -> match e with Expr.Bin (Expr.Div, _, _) -> true | _ -> false)
         defs
     | _ -> false)
    || List.exists has_div p.Pdwopt.Pplan.children
  in
  (* if the optimizer chose the split, AVG is recomposed as SUM/SUM *)
  let split =
    List.length
      (List.filter
         (function Dms.Op.Shuffle _ -> true | _ -> false)
         (moves_of p))
    >= 1
  in
  if split then Alcotest.(check bool) "AVG recomposed via Compute" true (has_div p)

let test_broadcast_for_small_side () =
  (* tiny filtered part side joined with big lineitem: broadcast expected *)
  let _, pres, _ =
    pipeline
      "SELECT l_quantity FROM lineitem, part \
       WHERE l_partkey = p_partkey AND p_name LIKE 'forest%'"
  in
  let kinds = moves_of pres.Pdwopt.Optimizer.plan in
  Alcotest.(check bool) "a broadcast move is used" true
    (List.exists (function Dms.Op.Broadcast -> true | _ -> false) kinds)

let test_dms_cost_only_from_moves () =
  let _, pres, _ =
    pipeline "SELECT o_orderkey FROM orders WHERE o_totalprice > 0"
  in
  let body = List.hd pres.Pdwopt.Optimizer.plan.Pdwopt.Pplan.children in
  Alcotest.(check int) "no movements" 0 (Pdwopt.Pplan.move_count body);
  Alcotest.(check (float 0.)) "no DMS cost before the final Return" 0.
    body.Pdwopt.Pplan.dms_cost

let test_pruning_bounds_options () =
  let _, pres, _ =
    pipeline
      "SELECT c_custkey FROM customer, orders, lineitem \
       WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey"
  in
  let s = pres.Pdwopt.Optimizer.stats in
  Alcotest.(check bool) "pruning keeps far fewer options than enumerated" true
    (s.Pdwopt.Enumerate.options_kept * 2 < s.Pdwopt.Enumerate.pdw_exprs_enumerated)

let test_pruning_off_explodes () =
  let sql =
    "SELECT c_custkey FROM customer, orders, lineitem \
     WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey"
  in
  let with_prune prune =
    let opts = { Pdwopt.Enumerate.default_opts with Pdwopt.Enumerate.prune } in
    let _, pres, _ = pipeline ~pdw_opts:(Some opts) sql in
    pres.Pdwopt.Optimizer.stats.Pdwopt.Enumerate.options_kept
  in
  Alcotest.(check bool) "pruning reduces kept options" true
    (with_prune true < with_prune false)

let test_return_is_root () =
  let _, pres, _ = pipeline "SELECT c_name FROM customer ORDER BY c_name" in
  match pres.Pdwopt.Optimizer.plan.Pdwopt.Pplan.op with
  | Pdwopt.Pplan.Return { sort; _ } ->
    Alcotest.(check int) "return carries the order" 1 (List.length sort)
  | _ -> Alcotest.fail "root must be Return"

let test_three_way_join_order_changes () =
  (* §3.2: serial best = filter customer first; parallel best = exploit the
     orders/lineitem collocation. At minimum, the PDW plan must beat the
     parallelized serial plan on DMS cost for this shape. *)
  let sh = Fixtures.shell () in
  let q = (Option.get (Tpch.Queries.find "P2")).Tpch.Queries.sql in
  let r = Opdw.optimize sh q in
  match r.Opdw.baseline_plan with
  | Some b ->
    Alcotest.(check bool) "PDW cost <= baseline cost" true
      ((Opdw.plan r).Pdwopt.Pplan.dms_cost <= b.Pdwopt.Pplan.dms_cost +. 1e-15)
  | None -> Alcotest.fail "baseline failed"

let test_whole_workload_planned () =
  List.iter
    (fun q ->
       let _, pres, _ = pipeline q.Tpch.Queries.sql in
       Alcotest.(check bool) (q.Tpch.Queries.id ^ " planned") true
         (Pdwopt.Pplan.size pres.Pdwopt.Optimizer.plan > 0))
    Tpch.Queries.all

(* -- step 04: derivation results pinned per statement -- *)

(* Every live group's interesting lists (order included) and required
   set, as one digest. *)
let derive_digest (m : Memo.t) =
  let d = Pdwopt.Derive.derive m in
  let b = Buffer.create 4096 in
  let ints l = String.concat "," (List.map string_of_int l) in
  Memo.iter_groups m (fun g ->
      let gid = g.Memo.gid in
      Printf.bprintf b "g%d:" gid;
      List.iter (fun l -> Printf.bprintf b "[%s]" (ints l)) (Pdwopt.Derive.interesting d gid);
      Printf.bprintf b "|%s;"
        (ints (Registry.Col_set.elements (Pdwopt.Derive.required d gid))));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* 8 nodes, SF 0.01, over the MEMO the enumeration ran on *)
let pinned_derive =
  [ ("P1", "d1ae6b28221bee3f189e3c1fd7b58aa4");
    ("F3", "5c18c2c7ab88361e60ba32add099d785");
    ("P2", "40d244d1f7f6f446e93c130b10344d79");
    ("Q1", "f28a4171b3b528eaa5605857d79b4709");
    ("Q2", "77b8762466d23df7534ff87104bc81de");
    ("Q3", "6dd6ffab49fbef28cb3b2b35de41325d");
    ("Q4", "cc33764d2dec61f1b49b5673aa770a66");
    ("Q5", "82e0984aaab29c98bcb68670a09e31f7");
    ("Q6", "5a35713703fb89c34e67fb0f8e8d2bda");
    ("Q7", "09a53fa6c6d4989e867b13ac3f8ce9e1");
    ("Q8", "fdcf92d5260b6fee4ee284d789d2c957");
    ("Q9", "03d65e2f0378f27bf155034b01c0f104");
    ("Q10", "adebe599a39d1fb383bab29b4ccddd4d");
    ("Q11", "a39026384452c6f1e8e859e4007712c1");
    ("Q12", "e512f201b7bca02daaacdb0844b65f71");
    ("Q13", "15c9c07f4b96ed89580d043e729bf1e3");
    ("Q14", "7630f5a4a0db650c491fb6fd11e05a14");
    ("Q15", "c80573a8830a091a7159a981e5bf00ff");
    ("Q16", "ab4e1ad83f5a1ad66d1212b3fcf5d8fb");
    ("Q17", "97307bf90c9387e320d4ef726d665636");
    ("Q18", "cb0bfbb7b049ff2374dae55dfe61fb3e");
    ("Q19", "2e98ad96715f102e1bb96ce4e62c926f");
    ("Q20", "ae13ea7e22df6f3cf9935c7502db9b3f");
    ("Q21", "e08568d164f2334b1fffbc83a6000b0f");
    ("Q22", "5a43c5aeab2a388a8910b4a1aa06053b") ]

let test_derive_pinned () =
  let sh = Lazy.force Fixtures.pinned_shell in
  Alcotest.(check (list string)) "every workload statement is pinned"
    (List.map (fun q -> q.Tpch.Queries.id) Tpch.Queries.all)
    (List.map fst pinned_derive);
  List.iter
    (fun (id, digest) ->
       let r = Opdw.optimize sh (Option.get (Tpch.Queries.find id)).Tpch.Queries.sql in
       Alcotest.(check string) (id ^ ": interesting + required") digest
         (derive_digest r.Opdw.memo))
    pinned_derive

(* A group that is its own child: [g] = Select(scan) | GroupBy[k1](g) |
   Select'(scan), and a later group GroupBy[k2](scan). The self GroupBy
   adds [k1] to [g] between the two pass-throughs to [scan], so the second
   pass must still run in the same round: [scan] receives [k1] before
   [k2] does. *)
let test_derive_self_child () =
  let sh = Fixtures.shell () in
  let r = Algebrizer.of_sql sh "SELECT c_custkey, c_nationkey FROM customer" in
  let reg = r.Algebrizer.reg in
  let rec get (t : Relop.t) =
    match t.Relop.op, t.Relop.children with
    | Relop.Get _, _ -> t.Relop.op
    | _, c :: _ -> get c
    | _, [] -> Alcotest.fail "no Get in the tree"
  in
  let get_op = get r.Algebrizer.tree in
  let col label =
    match get_op with
    | Relop.Get { cols; _ } ->
      List.find (fun c -> Registry.label reg c = label) (Array.to_list cols)
    | _ -> assert false
  in
  let k1 = col "customer.c_custkey" and k2 = col "customer.c_nationkey" in
  let positive c = Expr.Bin (Expr.Gt, Expr.Col c, Expr.Lit (Catalog.Value.Int 0)) in
  let m = Memo.create reg sh in
  let scan = Memo.insert m (Memo.Logical get_op) [||] in
  let g = Memo.insert m (Memo.Logical (Relop.Select (positive k1))) [| scan |] in
  ignore
    (Memo.insert ~target:g m
       (Memo.Logical (Relop.Group_by { keys = [ k1 ]; aggs = [] })) [| g |]);
  ignore (Memo.insert ~target:g m (Memo.Logical (Relop.Select (positive k2))) [| scan |]);
  let h =
    Memo.insert m (Memo.Logical (Relop.Group_by { keys = [ k2 ]; aggs = [] })) [| scan |]
  in
  m.Memo.root <- g;
  let d = Pdwopt.Derive.derive m in
  let labels gid =
    List.map (List.map (Registry.label reg)) (Pdwopt.Derive.interesting d gid)
  in
  Alcotest.(check (list (list string))) "scan: k1 passed down before k2 added"
    [ [ "customer.c_nationkey" ]; [ "customer.c_custkey" ] ] (labels scan);
  Alcotest.(check (list (list string))) "g: its own group-by key"
    [ [ "customer.c_custkey" ] ] (labels g);
  Alcotest.(check (list (list string))) "h: nothing above it" [] (labels h)

(* Step 04 and steps 05-07 are spans of their own under [pdw_optimize]. *)
let test_derive_enumerate_spans () =
  let obs = Obs.create () in
  ignore
    (Opdw.optimize ~obs (Fixtures.shell ())
       (Option.get (Tpch.Queries.find "Q3")).Tpch.Queries.sql);
  let rec walk parent acc (s : Obs.span) =
    let acc =
      if s.Obs.name = "pdw.derive" || s.Obs.name = "pdw.enumerate" then
        (parent, s.Obs.name, s.Obs.calls) :: acc
      else acc
    in
    List.fold_left (walk s.Obs.name) acc s.Obs.children
  in
  Alcotest.(check (list (triple string string int))) "one entry each, under pdw_optimize"
    [ ("pdw_optimize", "pdw.derive", 1); ("pdw_optimize", "pdw.enumerate", 1) ]
    (List.sort compare (List.fold_left (walk "") [] (Obs.roots obs)))

let suite =
  [ t "interesting join columns derived" test_derive_interesting_join_cols;
    t "required columns derived" test_derive_required_cols;
    t "collocated join: no movement" test_collocated_join_no_moves;
    t "incompatible join: movement inserted" test_incompatible_join_needs_move;
    t "replicated dimension: no movement" test_replicated_dimension_no_moves;
    t "group-by on distribution key is local" test_local_groupby_on_distribution_key;
    t "group-by on other key: one movement" test_groupby_split_or_shuffle;
    t "scalar aggregate local/global split" test_scalar_agg_split;
    t "AVG split recomposition" test_avg_split_produces_compute;
    t "broadcast chosen for small side" test_broadcast_for_small_side;
    t "DMS cost only from movements" test_dms_cost_only_from_moves;
    t "pruning bounds kept options" test_pruning_bounds_options;
    t "pruning ablation" test_pruning_off_explodes;
    t "Return at root with order" test_return_is_root;
    t "PDW beats parallelized-serial (§3.2)" test_three_way_join_order_changes;
    t "whole workload planned" test_whole_workload_planned;
    t "derivation pinned (8 nodes, SF 0.01)" test_derive_pinned;
    t "derivation: a group that is its own child" test_derive_self_child;
    t "derive and enumerate spans" test_derive_enumerate_spans ]
