(* The appliance simulator: local executor operators, DMS runtime routing,
   loading, accounting. *)

open Catalog
open Algebra

let t name f = Alcotest.test_case name `Quick f

(* a tiny standalone registry/environment for executor unit tests *)
let reg = Registry.create ()
let col name ty = Registry.fresh reg ~name ~ty ~width:8. (Registry.Derived name)
let ca = col "a" Types.Tint
let cb = col "b" Types.Tint
let cc = col "c" Types.Tstring
let cx = col "x" Types.Tint
let cy = col "y" Types.Tint
let agg_out = col "sum_b" Types.Tint
let cnt_out = col "cnt" Types.Tint

let rset layout rows = { Engine.Local.layout; rows }
let rows_of l = List.map Array.of_list l
let no_table _ = []

let exec op children = Engine.Local.exec_op ~read_table:no_table op children

let test_filter () =
  let input = rset [ ca; cb ] (rows_of [ [ Value.Int 1; Value.Int 10 ]; [ Value.Int 2; Value.Int 20 ] ]) in
  let r = exec (Memo.Physop.Filter (Expr.Bin (Expr.Gt, Expr.Col cb, Expr.Lit (Value.Int 15)))) [ input ] in
  Alcotest.(check int) "one row" 1 (List.length r.Engine.Local.rows)

let test_filter_null_is_false () =
  let input = rset [ ca ] (rows_of [ [ Value.Null ]; [ Value.Int 5 ] ]) in
  let r = exec (Memo.Physop.Filter (Expr.Bin (Expr.Gt, Expr.Col ca, Expr.Lit (Value.Int 0)))) [ input ] in
  Alcotest.(check int) "null comparison filters out" 1 (List.length r.Engine.Local.rows)

let test_compute () =
  let input = rset [ ca ] (rows_of [ [ Value.Int 3 ] ]) in
  let out = col "a2" Types.Tint in
  let r =
    exec (Memo.Physop.Compute [ (out, Expr.Bin (Expr.Mul, Expr.Col ca, Expr.Lit (Value.Int 2))) ])
      [ input ]
  in
  Alcotest.(check bool) "doubled" true
    (Value.equal (List.hd r.Engine.Local.rows).(0) (Value.Int 6))

let test_hash_join_inner () =
  let l = rset [ ca ] (rows_of [ [ Value.Int 1 ]; [ Value.Int 2 ]; [ Value.Int 2 ] ]) in
  let r = rset [ cx; cy ] (rows_of [ [ Value.Int 2; Value.Int 20 ]; [ Value.Int 3; Value.Int 30 ] ]) in
  let j =
    exec
      (Memo.Physop.Hash_join
         { kind = Relop.Inner; pred = Expr.eq (Expr.Col ca) (Expr.Col cx) })
      [ l; r ]
  in
  Alcotest.(check int) "two matches" 2 (List.length j.Engine.Local.rows);
  Alcotest.(check int) "combined layout" 3 (List.length j.Engine.Local.layout)

let test_hash_join_null_keys_no_match () =
  let l = rset [ ca ] (rows_of [ [ Value.Null ] ]) in
  let r = rset [ cx ] (rows_of [ [ Value.Null ] ]) in
  let j =
    exec
      (Memo.Physop.Hash_join
         { kind = Relop.Inner; pred = Expr.eq (Expr.Col ca) (Expr.Col cx) })
      [ l; r ]
  in
  Alcotest.(check int) "null never equals null" 0 (List.length j.Engine.Local.rows)

let test_semi_anti () =
  let l = rset [ ca ] (rows_of [ [ Value.Int 1 ]; [ Value.Int 2 ]; [ Value.Int 3 ] ]) in
  let r = rset [ cx ] (rows_of [ [ Value.Int 2 ]; [ Value.Int 2 ] ]) in
  let pred = Expr.eq (Expr.Col ca) (Expr.Col cx) in
  let semi = exec (Memo.Physop.Hash_join { kind = Relop.Semi; pred }) [ l; r ] in
  Alcotest.(check int) "semi: one row, no duplicates" 1 (List.length semi.Engine.Local.rows);
  let anti = exec (Memo.Physop.Hash_join { kind = Relop.Anti_semi; pred }) [ l; r ] in
  Alcotest.(check int) "anti: two rows" 2 (List.length anti.Engine.Local.rows)

let test_left_outer () =
  let l = rset [ ca ] (rows_of [ [ Value.Int 1 ]; [ Value.Int 2 ] ]) in
  let r = rset [ cx; cy ] (rows_of [ [ Value.Int 1; Value.Int 10 ] ]) in
  let j =
    exec
      (Memo.Physop.Hash_join
         { kind = Relop.Left_outer; pred = Expr.eq (Expr.Col ca) (Expr.Col cx) })
      [ l; r ]
  in
  Alcotest.(check int) "both left rows survive" 2 (List.length j.Engine.Local.rows);
  let unmatched = List.find (fun row -> Value.equal row.(0) (Value.Int 2)) j.Engine.Local.rows in
  Alcotest.(check bool) "null extension" true (Value.is_null unmatched.(2))

let test_nl_join_inequality () =
  let l = rset [ ca ] (rows_of [ [ Value.Int 1 ]; [ Value.Int 5 ] ]) in
  let r = rset [ cx ] (rows_of [ [ Value.Int 3 ] ]) in
  let j =
    exec
      (Memo.Physop.Nl_join
         { kind = Relop.Inner; pred = Expr.Bin (Expr.Lt, Expr.Col ca, Expr.Col cx) })
      [ l; r ]
  in
  Alcotest.(check int) "inequality join" 1 (List.length j.Engine.Local.rows)

let test_aggregate_grouped () =
  let input =
    rset [ ca; cb ]
      (rows_of
         [ [ Value.Int 1; Value.Int 10 ]; [ Value.Int 1; Value.Int 5 ];
           [ Value.Int 2; Value.Int 7 ] ])
  in
  let aggs =
    [ { Expr.agg_out; agg_func = Expr.Sum; agg_arg = Some (Expr.Col cb); agg_distinct = false };
      { Expr.agg_out = cnt_out; agg_func = Expr.Count_star; agg_arg = None; agg_distinct = false } ]
  in
  let r = exec (Memo.Physop.Hash_agg { keys = [ ca ]; aggs }) [ input ] in
  Alcotest.(check int) "two groups" 2 (List.length r.Engine.Local.rows);
  let g1 = List.find (fun row -> Value.equal row.(0) (Value.Int 1)) r.Engine.Local.rows in
  Alcotest.(check bool) "sum" true (Value.equal g1.(1) (Value.Int 15));
  Alcotest.(check bool) "count" true (Value.equal g1.(2) (Value.Int 2))

let test_aggregate_scalar_empty () =
  let input = rset [ cb ] [] in
  let aggs =
    [ { Expr.agg_out; agg_func = Expr.Sum; agg_arg = Some (Expr.Col cb); agg_distinct = false };
      { Expr.agg_out = cnt_out; agg_func = Expr.Count_star; agg_arg = None; agg_distinct = false } ]
  in
  let r = exec (Memo.Physop.Hash_agg { keys = []; aggs }) [ input ] in
  Alcotest.(check int) "one row over empty input" 1 (List.length r.Engine.Local.rows);
  let row = List.hd r.Engine.Local.rows in
  Alcotest.(check bool) "sum is NULL" true (Value.is_null row.(0));
  Alcotest.(check bool) "count is 0" true (Value.equal row.(1) (Value.Int 0))

let test_aggregate_distinct () =
  let input = rset [ cb ] (rows_of [ [ Value.Int 5 ]; [ Value.Int 5 ]; [ Value.Int 7 ] ]) in
  let aggs =
    [ { Expr.agg_out = cnt_out; agg_func = Expr.Count; agg_arg = Some (Expr.Col cb);
        agg_distinct = true } ]
  in
  let r = exec (Memo.Physop.Hash_agg { keys = []; aggs }) [ input ] in
  Alcotest.(check bool) "count distinct" true
    (Value.equal (List.hd r.Engine.Local.rows).(0) (Value.Int 2))

let test_aggregate_nulls_skipped () =
  let input = rset [ cb ] (rows_of [ [ Value.Null ]; [ Value.Int 3 ] ]) in
  let aggs =
    [ { Expr.agg_out; agg_func = Expr.Avg; agg_arg = Some (Expr.Col cb); agg_distinct = false } ]
  in
  let r = exec (Memo.Physop.Hash_agg { keys = []; aggs }) [ input ] in
  Alcotest.(check bool) "avg skips nulls" true
    (Value.equal (List.hd r.Engine.Local.rows).(0) (Value.Float 3.))

let test_sort_limit () =
  let input = rset [ ca ] (rows_of [ [ Value.Int 3 ]; [ Value.Int 1 ]; [ Value.Int 2 ] ]) in
  let keys = [ { Relop.key = Expr.Col ca; desc = true } ] in
  let r = exec (Memo.Physop.Sort_op { keys; limit = Some 2 }) [ input ] in
  Alcotest.(check bool) "desc order with limit" true
    (List.map (fun row -> row.(0)) r.Engine.Local.rows = [ Value.Int 3; Value.Int 2 ])

(* -- DMS runtime -- *)

let mini_appliance () =
  let sh = Catalog.Shell_db.create ~node_count:4 in
  let schema =
    Schema.make "t" [ Schema.column "k" Types.Tint; Schema.column "v" Types.Tint ]
  in
  ignore (Shell_db.add_table sh schema (Distribution.Hash_partitioned [ "k" ]));
  let app = Engine.Appliance.create sh in
  let rows = List.init 100 (fun i -> [| Value.Int i; Value.Int (i * 10) |]) in
  Engine.Appliance.load_table app "t" rows;
  (app, rows)

let test_load_partitions_disjoint () =
  let app, rows = mini_appliance () in
  let per_node = List.init 4 (fun i -> Engine.Appliance.node_table app i "t") in
  Alcotest.(check int) "all rows stored" (List.length rows)
    (List.fold_left (fun a l -> a + List.length l) 0 per_node);
  (* rows route by hash of k: re-hashing each row must give its node *)
  List.iteri
    (fun node l ->
       List.iter
         (fun (row : Value.t array) ->
            Alcotest.(check int) "row on right node" node
              (Engine.Appliance.route_hash [ row.(0) ] mod 4))
         l)
    per_node

(* [payloads]: one row list per node for a hashed stream, one otherwise *)
let dstream_of app layout payloads dist =
  let rs rows = Engine.Rset.Rows { Engine.Local.layout; rows } in
  Engine.Appliance.stream app ~layout dist (Array.map rs payloads)

let shard_rows rs = (Engine.Rset.to_local rs).Engine.Local.rows

let test_shuffle_routes_consistently () =
  let app, _ = mini_appliance () in
  let input =
    dstream_of app [ ca; cb ]
      (Array.init 4 (fun n -> List.init 10 (fun i -> [| Value.Int ((n * 10) + i); Value.Int 0 |])))
      (Dms.Distprop.Hashed [ cb ])
  in
  let out = Engine.Appliance.run_move app (Dms.Op.Shuffle [ ca ]) ~cols:[ ca; cb ] input in
  Alcotest.(check int) "all 40 rows survive" 40
    (Array.fold_left (fun a rs -> a + Engine.Rset.count rs) 0 out.Engine.Appliance.parts);
  Array.iteri
    (fun node rs ->
       List.iter
         (fun (row : Value.t array) ->
            Alcotest.(check int) "routed by hash" node
              (Engine.Appliance.route_hash [ row.(0) ] mod 4))
         (shard_rows rs))
    out.Engine.Appliance.parts

let test_broadcast_replicates () =
  let app, _ = mini_appliance () in
  let input =
    dstream_of app [ ca ]
      (Array.init 4 (fun n -> [ [| Value.Int n |] ]))
      (Dms.Distprop.Hashed [ ca ])
  in
  let out = Engine.Appliance.run_move app Dms.Op.Broadcast ~cols:[ ca ] input in
  Array.iter
    (fun rs -> Alcotest.(check int) "full copy everywhere" 4 (Engine.Rset.count rs))
    out.Engine.Appliance.parts

let test_trim_keeps_own () =
  let app, _ = mini_appliance () in
  let full = List.init 20 (fun i -> [| Value.Int i |]) in
  let input =
    dstream_of app [ ca ] [| full |] Dms.Distprop.Replicated
  in
  let before_net = app.Engine.Appliance.account.Engine.Appliance.bytes_moved in
  let out = Engine.Appliance.run_move app (Dms.Op.Trim [ ca ]) ~cols:[ ca ] input in
  Alcotest.(check int) "exactly one copy survives" 20
    (Array.fold_left (fun a rs -> a + Engine.Rset.count rs) 0 out.Engine.Appliance.parts);
  Alcotest.(check (float 0.)) "no network traffic" before_net
    app.Engine.Appliance.account.Engine.Appliance.bytes_moved

let test_partition_move_gathers () =
  let app, _ = mini_appliance () in
  let input =
    dstream_of app [ ca ]
      (Array.init 4 (fun n -> [ [| Value.Int n |] ]))
      (Dms.Distprop.Hashed [ ca ])
  in
  let out = Engine.Appliance.run_move app Dms.Op.Partition_move ~cols:[ ca ] input in
  Alcotest.(check int) "one control payload" 1 (Array.length out.Engine.Appliance.parts);
  Alcotest.(check int) "all on control" 4 (Engine.Rset.count out.Engine.Appliance.parts.(0));
  Alcotest.(check bool) "single node dist" true
    (out.Engine.Appliance.dist = Dms.Distprop.Single_node)

let test_move_projects_columns () =
  let app, _ = mini_appliance () in
  let input =
    dstream_of app [ ca; cb; cc ]
      (Array.make 4 [ [| Value.Int 1; Value.Int 2; Value.String "wide" |] ])
      (Dms.Distprop.Hashed [ ca ])
  in
  let out = Engine.Appliance.run_move app (Dms.Op.Shuffle [ ca ]) ~cols:[ ca ] input in
  Alcotest.(check (list int)) "projected layout" [ ca ] out.Engine.Appliance.layout

let test_accounting_advances () =
  let app, _ = mini_appliance () in
  let input =
    dstream_of app [ ca ]
      (Array.init 4 (fun n -> List.init 50 (fun i -> [| Value.Int ((n * 100) + i) |])))
      (Dms.Distprop.Hashed [ ca ])
  in
  Engine.Appliance.reset_account app;
  ignore (Engine.Appliance.run_move app (Dms.Op.Shuffle [ ca ]) ~cols:[ ca ] input);
  let a = app.Engine.Appliance.account in
  Alcotest.(check bool) "sim time advanced" true (a.Engine.Appliance.sim_time > 0.);
  Alcotest.(check bool) "bytes accounted" true (a.Engine.Appliance.bytes_moved > 0.);
  Alcotest.(check int) "one move" 1 a.Engine.Appliance.moves;
  Alcotest.(check bool) "calibration samples recorded" true
    (List.exists
       (fun (s : Dms.Calibrate.sample) -> s.Dms.Calibrate.component = Dms.Calibrate.Reader_hash)
       a.Engine.Appliance.samples)

(* the constructor holds a stream to its distribution's shape: one
   payload per node when hashed, one otherwise (shared when replicated) *)
let test_stream_shapes () =
  let app, _ = mini_appliance () in
  let one = [| [ [| Value.Int 1 |] ] |] in
  let repl = dstream_of app [ ca ] one Dms.Distprop.Replicated in
  Alcotest.(check int) "a slot per node" 4 (Array.length repl.Engine.Appliance.parts);
  Alcotest.(check bool) "one shared payload" true
    (Array.for_all (fun p -> p == repl.Engine.Appliance.parts.(0)) repl.Engine.Appliance.parts);
  let rejects payloads dist =
    match dstream_of app [ ca ] payloads dist with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "hashed needs a payload per node" true
    (rejects one (Dms.Distprop.Hashed [ ca ]));
  Alcotest.(check bool) "single-node holds one payload" true
    (rejects (Array.make 4 []) Dms.Distprop.Single_node);
  Alcotest.(check bool) "replicated takes one payload" true
    (rejects (Array.make 4 []) Dms.Distprop.Replicated)

let suite =
  [ t "filter" test_filter;
    t "filter treats UNKNOWN as false" test_filter_null_is_false;
    t "compute" test_compute;
    t "hash join inner" test_hash_join_inner;
    t "null join keys never match" test_hash_join_null_keys_no_match;
    t "semi / anti joins" test_semi_anti;
    t "left outer join" test_left_outer;
    t "nested-loop inequality join" test_nl_join_inequality;
    t "grouped aggregation" test_aggregate_grouped;
    t "scalar aggregate over empty input" test_aggregate_scalar_empty;
    t "COUNT DISTINCT" test_aggregate_distinct;
    t "aggregates skip NULLs" test_aggregate_nulls_skipped;
    t "sort with limit" test_sort_limit;
    t "loading partitions disjointly" test_load_partitions_disjoint;
    t "shuffle routes consistently" test_shuffle_routes_consistently;
    t "broadcast replicates" test_broadcast_replicates;
    t "trim keeps own rows, no network" test_trim_keeps_own;
    t "partition move gathers" test_partition_move_gathers;
    t "moves project to carried columns" test_move_projects_columns;
    t "accounting advances" test_accounting_advances;
    t "streams hold their distribution's shape" test_stream_shapes ]
