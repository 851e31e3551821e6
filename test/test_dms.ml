(* DMS layer: distribution properties, the 7 movement operations, and the
   lambda cost model's structure (paper §3.3, Fig. 5). *)

open Dms

let t name f = Alcotest.test_case name `Quick f

let h cols = Distprop.Hashed cols
let equi = [ (1, 11); (2, 12) ]

let test_hash_compat () =
  Alcotest.(check bool) "matching single" true (Distprop.hash_compatible ~equi [ 1 ] [ 11 ]);
  Alcotest.(check bool) "matching pair" true
    (Distprop.hash_compatible ~equi [ 1; 2 ] [ 11; 12 ]);
  Alcotest.(check bool) "misaligned pair" false
    (Distprop.hash_compatible ~equi [ 1; 2 ] [ 12; 11 ]);
  Alcotest.(check bool) "length mismatch" false
    (Distprop.hash_compatible ~equi [ 1 ] [ 11; 12 ]);
  Alcotest.(check bool) "unequated columns" false
    (Distprop.hash_compatible ~equi [ 3 ] [ 11 ]);
  Alcotest.(check bool) "empty lists never compatible" false
    (Distprop.hash_compatible ~equi [] [])

let test_join_local_inner () =
  let jl = Distprop.join_local ~kind:Algebra.Relop.Inner ~equi in
  Alcotest.(check bool) "collocated" true (jl (h [ 1 ]) (h [ 11 ]) = Some (h [ 1 ]));
  Alcotest.(check bool) "incompatible hashes" true (jl (h [ 1 ]) (h [ 12 ]) = None);
  Alcotest.(check bool) "hash x replicated" true
    (jl (h [ 1 ]) Distprop.Replicated = Some (h [ 1 ]));
  Alcotest.(check bool) "replicated x hash ok for inner" true
    (jl Distprop.Replicated (h [ 11 ]) = Some (h [ 11 ]));
  Alcotest.(check bool) "repl x repl" true
    (jl Distprop.Replicated Distprop.Replicated = Some Distprop.Replicated);
  Alcotest.(check bool) "single x single" true
    (jl Distprop.Single_node Distprop.Single_node = Some Distprop.Single_node)

let test_join_local_semi () =
  let jl k = Distprop.join_local ~kind:k ~equi in
  (* a replicated LEFT input would duplicate semi/anti/outer results *)
  List.iter
    (fun k ->
       Alcotest.(check bool) "replicated left rejected" true
         (jl k Distprop.Replicated (h [ 11 ]) = None);
       Alcotest.(check bool) "replicated right fine" true
         (jl k (h [ 1 ]) Distprop.Replicated = Some (h [ 1 ])))
    Algebra.Relop.[ Semi; Anti_semi; Left_outer ]

(* [Hashed []] is the distributed-unknown sentinel: it is distributed on
   *some* columns, so no hash-alignment argument is ever allowed on it. The
   static analyzer (lib/check) leans on these corners. *)
let test_hashed_unknown_corners () =
  let jl = Distprop.join_local ~kind:Algebra.Relop.Inner ~equi in
  Alcotest.(check bool) "unknown x unknown never collocated" true
    (jl (h []) (h []) = None);
  Alcotest.(check bool) "hashed x unknown never collocated" true
    (jl (h [ 1 ]) (h []) = None);
  Alcotest.(check bool) "unknown x hashed never collocated" true
    (jl (h []) (h [ 11 ]) = None);
  Alcotest.(check bool) "unknown x replicated is local, stays unknown" true
    (jl (h []) Distprop.Replicated = Some (h []));
  Alcotest.(check bool) "group-by over unknown needs movement" true
    (Distprop.groupby_local ~keys:[ 1 ] (h []) = None);
  Alcotest.(check bool) "scalar aggregate over hashed needs movement" true
    (Distprop.groupby_local ~keys:[] (h [ 1 ]) = None);
  Alcotest.(check bool) "hash_compatible rejects unknown on either side" true
    (not (Distprop.hash_compatible ~equi [] [ 11 ])
     && not (Distprop.hash_compatible ~equi [ 1 ] []))

let test_groupby_local () =
  Alcotest.(check bool) "hash cols subset of keys" true
    (Distprop.groupby_local ~keys:[ 1; 2 ] (h [ 1 ]) = Some (h [ 1 ]));
  Alcotest.(check bool) "hash cols not subset" true
    (Distprop.groupby_local ~keys:[ 2 ] (h [ 1 ]) = None);
  Alcotest.(check bool) "unknown partitioning" true
    (Distprop.groupby_local ~keys:[ 1 ] (h []) = None);
  Alcotest.(check bool) "replicated ok" true
    (Distprop.groupby_local ~keys:[] Distprop.Replicated = Some Distprop.Replicated)

let test_op_transitions () =
  let check_out k d expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s applied" (Op.name k))
      true
      (match Op.output_dist k d, expected with
       | Some a, Some b -> Distprop.equal a b
       | None, None -> true
       | _ -> false)
  in
  check_out (Op.Shuffle [ 5 ]) (h [ 1 ]) (Some (h [ 5 ]));
  check_out (Op.Shuffle [ 5 ]) Distprop.Single_node (Some (h [ 5 ]));
  check_out (Op.Shuffle [ 5 ]) Distprop.Replicated None;
  check_out Op.Partition_move (h [ 1 ]) (Some Distprop.Single_node);
  check_out Op.Partition_move Distprop.Replicated None;
  check_out Op.Control_node_move Distprop.Single_node (Some Distprop.Replicated);
  check_out Op.Broadcast (h [ 1 ]) (Some Distprop.Replicated);
  check_out Op.Broadcast Distprop.Replicated None;
  check_out (Op.Trim [ 5 ]) Distprop.Replicated (Some (h [ 5 ]));
  check_out (Op.Trim [ 5 ]) (h [ 1 ]) None;
  check_out Op.Replicated_broadcast Distprop.Single_node (Some Distprop.Replicated);
  check_out Op.Remote_copy (h [ 1 ]) (Some Distprop.Single_node);
  check_out Op.Remote_copy Distprop.Replicated (Some Distprop.Single_node);
  check_out Op.Remote_copy Distprop.Single_node None

let test_all_transitions_one_move () =
  (* every (src, dst) pair of distinct distribution properties is reachable
     with a single movement *)
  let dists = [ h [ 1 ]; h [ 5 ]; Distprop.Replicated; Distprop.Single_node ] in
  List.iter
    (fun src ->
       List.iter
         (fun dst ->
            if not (Distprop.equal src dst) then begin
              let interesting = match dst with Distprop.Hashed c -> [ c ] | _ -> [] in
              let moves = Op.moves_to ~interesting src dst in
              Alcotest.(check bool)
                (Printf.sprintf "%s -> %s reachable" (Distprop.short_string src)
                   (Distprop.short_string dst))
                true (moves <> [])
            end)
         dists)
    dists

(* -- cost model -- *)

let cost k ~rows ~width = (Cost.cost k ~nodes:8 ~rows ~width).Cost.c_total

let test_cost_max_structure () =
  let b = Cost.cost (Op.Shuffle [ 1 ]) ~nodes:8 ~rows:10000. ~width:50. in
  Alcotest.(check (float 1e-12)) "source = max(reader, network)"
    (Float.max b.Cost.c_reader b.Cost.c_network) b.Cost.c_source;
  Alcotest.(check (float 1e-12)) "target = max(writer, blkcpy)"
    (Float.max b.Cost.c_writer b.Cost.c_blkcpy) b.Cost.c_target;
  Alcotest.(check (float 1e-12)) "total = max(source, target)"
    (Float.max b.Cost.c_source b.Cost.c_target) b.Cost.c_total

let test_cost_linear_in_bytes () =
  let c1 = cost (Op.Shuffle [ 1 ]) ~rows:1000. ~width:10. in
  let c2 = cost (Op.Shuffle [ 1 ]) ~rows:2000. ~width:10. in
  let c3 = cost (Op.Shuffle [ 1 ]) ~rows:1000. ~width:20. in
  Alcotest.(check (float 1e-12)) "doubling rows doubles cost" (2. *. c1) c2;
  Alcotest.(check (float 1e-12)) "doubling width doubles cost" (2. *. c1) c3

let test_shuffle_scales_with_nodes () =
  let c8 = (Cost.cost (Op.Shuffle [ 1 ]) ~nodes:8 ~rows:8000. ~width:10.).Cost.c_total in
  let c16 = (Cost.cost (Op.Shuffle [ 1 ]) ~nodes:16 ~rows:8000. ~width:10.).Cost.c_total in
  Alcotest.(check bool) "more nodes -> cheaper shuffle" true (c16 < c8)

let test_broadcast_vs_shuffle_crossover () =
  (* shuffle moves Y*w/N, broadcast writes Y*w everywhere: broadcast of a
     small table beats shuffling a big one, and vice versa *)
  let small_bcast = cost Op.Broadcast ~rows:100. ~width:10. in
  let big_shuffle = cost (Op.Shuffle [ 1 ]) ~rows:100000. ~width:10. in
  Alcotest.(check bool) "broadcast small < shuffle big" true (small_bcast < big_shuffle);
  let big_bcast = cost Op.Broadcast ~rows:100000. ~width:10. in
  let small_shuffle = cost (Op.Shuffle [ 1 ]) ~rows:100. ~width:10. in
  Alcotest.(check bool) "shuffle small < broadcast big" true (small_shuffle < big_bcast)

let test_trim_no_network () =
  let b = Cost.cost (Op.Trim [ 1 ]) ~nodes:8 ~rows:1000. ~width:10. in
  Alcotest.(check (float 0.)) "trim is network-free" 0. b.Cost.c_network

let test_hash_reader_premium () =
  let sh = Cost.cost (Op.Shuffle [ 1 ]) ~nodes:8 ~rows:1000. ~width:10. in
  let pm = Cost.cost Op.Partition_move ~nodes:8 ~rows:1000. ~width:10. in
  Alcotest.(check bool) "hashing reader costs more than direct" true
    (sh.Cost.c_reader > pm.Cost.c_reader)

(* calibration *)
let test_calibrate_exact_linear () =
  let lambda = 2.5e-9 in
  let samples =
    List.map
      (fun b -> { Calibrate.component = Calibrate.Network; bytes = b; seconds = lambda *. b })
      [ 1e3; 1e4; 1e5; 1e6 ]
  in
  let fitted = Calibrate.fit_lambda samples in
  Alcotest.(check (float 1e-15)) "exact fit" lambda fitted;
  Alcotest.(check (float 1e-9)) "zero residual" 0. (Calibrate.fit_error fitted samples)

let test_calibrate_with_overhead () =
  (* per-row overhead makes the relationship affine; the fit should land
     between the pure slope and slope+overhead *)
  let samples =
    List.map
      (fun b ->
         { Calibrate.component = Calibrate.Blkcpy; bytes = b; seconds = (1e-9 *. b) +. 1e-4 })
      [ 1e5; 1e6; 1e7 ]
  in
  let fitted = Calibrate.fit_lambda samples in
  Alcotest.(check bool) "slope above pure rate" true (fitted > 1e-9);
  Alcotest.(check bool) "positive residual" true (Calibrate.fit_error fitted samples > 0.)

(* [fit] is [fit_lambda] per component over that component's samples in
   list order, bit for bit; an absent or degenerate component keeps its
   base λ *)
let prop_fit_per_component =
  let base =
    { Cost.l_reader_direct = 1.; l_reader_hash = 2.; l_network = 3.; l_writer = 4.;
      l_blkcpy = 5. }
  in
  let sample =
    QCheck.Gen.(
      map3
        (fun c bytes seconds ->
           { Calibrate.component = List.nth Calibrate.components c; bytes; seconds })
        (int_bound 4)
        (oneof [ return 0.; float_range 1. 1e7 ])
        (float_range (-1e-3) 1e-2))
  in
  let bits = Int64.bits_of_float in
  QCheck.Test.make ~name:"fit: per-component lambda, base kept, samples counted" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 40) sample))
    (fun samples ->
       let lambdas, fits = Calibrate.fit ~base samples in
       List.map (fun (f : Calibrate.fit) -> f.f_component) fits = Calibrate.components
       && List.for_all
         (fun (f : Calibrate.fit) ->
            let c = f.f_component in
            let mine = List.filter (fun (s : Calibrate.sample) -> s.component = c) samples in
            let l = Calibrate.fit_lambda mine in
            let expect =
              if mine <> [] && Float.is_finite l && l > 0. then l
              else Calibrate.lambda_of base c
            in
            bits f.f_lambda = bits expect
            && bits (Calibrate.lambda_of lambdas c) = bits expect
            && f.f_samples = List.length mine)
         fits)

let prop_cost_monotone_rows =
  QCheck.Test.make ~name:"cost monotone in rows" ~count:200
    QCheck.(pair (QCheck.make QCheck.Gen.(float_range 1. 1e6)) (QCheck.make QCheck.Gen.(float_range 1. 1e6)))
    (fun (r1, r2) ->
       let lo = Float.min r1 r2 and hi = Float.max r1 r2 in
       List.for_all
         (fun k -> cost k ~rows:lo ~width:10. <= cost k ~rows:hi ~width:10. +. 1e-15)
         [ Op.Shuffle [ 1 ]; Op.Partition_move; Op.Broadcast; Op.Trim [ 1 ];
           Op.Remote_copy ])

let suite =
  [ t "hash compatibility" test_hash_compat;
    t "local inner joins" test_join_local_inner;
    t "local semi/anti/outer joins" test_join_local_semi;
    t "local group-by" test_groupby_local;
    t "Hashed [] (distributed-unknown) corners" test_hashed_unknown_corners;
    t "movement transitions" test_op_transitions;
    t "all transitions reachable in one move" test_all_transitions_one_move;
    t "cost max-structure (Fig. 5)" test_cost_max_structure;
    t "cost linear in bytes" test_cost_linear_in_bytes;
    t "shuffle scales with N" test_shuffle_scales_with_nodes;
    t "broadcast/shuffle crossover" test_broadcast_vs_shuffle_crossover;
    t "trim has no network cost" test_trim_no_network;
    t "hash-reader premium" test_hash_reader_premium;
    t "calibration: exact linear fit" test_calibrate_exact_linear;
    t "calibration: affine data" test_calibrate_with_overhead;
    QCheck_alcotest.to_alcotest prop_cost_monotone_rows;
    QCheck_alcotest.to_alcotest prop_fit_per_component ]
