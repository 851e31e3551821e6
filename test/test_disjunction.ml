(* Disjunctive join predicates end to end: common-conjunct factoring and
   implied per-side filters (Normalize passes 1b/2b) must return the rows
   the un-rewritten predicate defines, on both engines and at any --jobs,
   and must turn Q19's quadratic nested loop into a hash join. *)

open Catalog

let t name f = Alcotest.test_case name `Quick f

(* -- execution on both engines at jobs 1 and 4 -- *)

(* distributed and single-node reference rows, plus the simulated clock *)
let run_at (shell, (app : Engine.Appliance.t)) ~jobs sql =
  Par.with_pool ~jobs @@ fun pool ->
  Engine.Appliance.set_pool app pool;
  Fun.protect ~finally:(fun () -> Engine.Appliance.set_pool app Par.sequential)
  @@ fun () ->
  let r = Opdw.optimize ~pool shell sql in
  let cols = List.map snd (Opdw.output_columns r) in
  Engine.Appliance.reset_account app;
  let dist = Engine.Local.canonical ~cols (Opdw.run app r) in
  let sim = app.Engine.Appliance.account.Engine.Appliance.sim_time in
  let reference = Engine.Local.canonical ~cols (Option.get (Opdw.run_reference app r)) in
  (dist, reference, sim)

(* [expected] is computed outside the optimizer; every engine x jobs
   combination must return it, agree with [Opdw.run_reference], and keep
   the simulated clock jobs-independent *)
let check_everywhere ~fail targets sql expected =
  List.iter
    (fun (engine, target) ->
       let sims =
         List.map
           (fun jobs ->
              let dist, reference, sim = run_at target ~jobs sql in
              let where = Printf.sprintf "%s, jobs %d: %s" engine jobs sql in
              if dist <> reference then fail ("distributed <> reference (" ^ where ^ ")");
              if dist <> expected then fail ("rows <> oracle (" ^ where ^ ")");
              sim)
           [ 1; 4 ]
       in
       match sims with
       | [ s1; s4 ] when s1 <> s4 -> fail (Printf.sprintf "%s: sim clock differs by jobs: %s" engine sql)
       | _ -> ())
    targets

let row_key vs = String.concat "|" (List.map Value.to_string vs)

(* -- a Q19 variant with rows: widened brands and quantity ranges -- *)

let q19_variant =
  "SELECT l_orderkey, l_linenumber, p_partkey FROM lineitem, part \
   WHERE (p_partkey = l_partkey AND p_brand LIKE 'Brand#1%' \
      AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG') \
      AND l_quantity >= 1 AND l_quantity <= 30 AND p_size BETWEEN 1 AND 25 \
      AND l_shipmode IN ('AIR', 'REG AIR') AND l_shipinstruct = 'DELIVER IN PERSON') \
   OR (p_partkey = l_partkey AND p_brand LIKE 'Brand#2%' \
      AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK') \
      AND l_quantity >= 10 AND l_quantity <= 40 AND p_size BETWEEN 1 AND 50 \
      AND l_shipmode IN ('AIR', 'REG AIR') AND l_shipinstruct = 'DELIVER IN PERSON')"

(* the same predicate evaluated directly over the generated rows *)
let q19_variant_oracle (db : Tpch.Datagen.db) =
  let col schema name = Option.get (Schema.find_col schema name) in
  let lc name (l : Value.t array) = l.(col Tpch.Schema.lineitem name) in
  let pc name (p : Value.t array) = p.(col Tpch.Schema.part name) in
  let str = function Value.String s -> s | _ -> "" in
  let between v lo hi = Value.to_float v >= lo && Value.to_float v <= hi in
  let parts = Hashtbl.create 512 in
  List.iter (fun p -> Hashtbl.replace parts (pc "p_partkey" p) p) (Tpch.Datagen.rows db "part");
  let holds l p =
    let arm ~brand ~containers ~qty:(qlo, qhi) ~size =
      String.starts_with ~prefix:brand (str (pc "p_brand" p))
      && List.mem (str (pc "p_container" p)) containers
      && between (lc "l_quantity" l) qlo qhi
      && between (pc "p_size" p) 1. size
    in
    List.mem (str (lc "l_shipmode" l)) [ "AIR"; "REG AIR" ]
    && str (lc "l_shipinstruct" l) = "DELIVER IN PERSON"
    && (arm ~brand:"Brand#1" ~containers:[ "SM CASE"; "SM BOX"; "SM PACK"; "SM PKG" ]
          ~qty:(1., 30.) ~size:25.
        || arm ~brand:"Brand#2" ~containers:[ "MED BAG"; "MED BOX"; "MED PKG"; "MED PACK" ]
             ~qty:(10., 40.) ~size:50.)
  in
  List.filter_map
    (fun l ->
       match Hashtbl.find_opt parts (lc "l_partkey" l) with
       | Some p when holds l p ->
         Some (row_key [ lc "l_orderkey" l; lc "l_linenumber" l; pc "p_partkey" p ])
       | _ -> None)
    (Tpch.Datagen.rows db "lineitem")
  |> List.sort String.compare

let tpch_targets () =
  let target w = (w.Opdw.Workload.shell, w.Opdw.Workload.app) in
  [ ("row", target (Lazy.force Fixtures.tpch_workload));
    ("columnar", target (Lazy.force Fixtures.tpch_columnar)) ]

let test_q19_variant_rows () =
  let expected = q19_variant_oracle (Lazy.force Fixtures.tpch_workload).Opdw.Workload.db in
  Alcotest.(check bool) "the variant selects rows" true (expected <> []);
  check_everywhere ~fail:Alcotest.fail (tpch_targets ()) q19_variant expected

(* -- random OR-of-conjunction predicates over two tables with NULLs -- *)

let ta =
  Schema.make "ta"
    [ Schema.column ~is_pk:true "ak" Types.Tint;
      Schema.column ~nullable:true "a1" Types.Tint;
      Schema.column ~nullable:true "a2" Types.Tstring ]

let tb =
  Schema.make "tb"
    [ Schema.column ~is_pk:true "bk" Types.Tint;
      Schema.column ~nullable:true ~references:("ta", "ak") "bak" Types.Tint;
      Schema.column ~nullable:true "b1" Types.Tint;
      Schema.column ~nullable:true "b2" Types.Tstring ]

let null_if cond v = if cond then Value.Null else v

let ta_rows =
  List.init 40 (fun i ->
      [| Value.Int i;
         null_if (i mod 5 = 0) (Value.Int (i mod 7));
         null_if (i mod 6 = 0) (Value.String [| "x"; "y"; "z" |].(i mod 3)) |])

let tb_rows =
  List.init 120 (fun i ->
      [| Value.Int i;
         null_if (i mod 9 = 0) (Value.Int (i * 7 mod 45));
         null_if (i mod 4 = 0) (Value.Int (i mod 11));
         null_if (i mod 10 = 3) (Value.String [| "x"; "y"; "w" |].(i mod 3)) |])

let nullable_pair engine =
  let nodes = 4 in
  let shell = Shell_db.create ~node_count:nodes in
  ignore (Shell_db.add_table shell ta (Distribution.Hash_partitioned [ "ak" ]));
  ignore (Shell_db.add_table shell tb (Distribution.Hash_partitioned [ "bk" ]));
  let app = Engine.Appliance.create ~engine shell in
  List.iter
    (fun ((schema : Schema.t), rows) ->
       let name = schema.Schema.name in
       (match engine with
        | Engine.Rset.Row -> Engine.Appliance.load_table app name rows
        | Engine.Rset.Columnar ->
          Engine.Appliance.load_table_cols app name
            (Column.table_of_rows ~width:(Array.length schema.Schema.columns) rows));
       Shell_db.set_stats shell name
         (Tbl_stats.merge
            (List.init nodes (fun n ->
                 Tbl_stats.of_rows schema (Engine.Appliance.node_table app n name)))))
    [ (ta, ta_rows); (tb, tb_rows) ];
  (shell, app)

(* an atom: its SQL text and its three-valued truth on an (a, b) row pair *)
type atom = { sql : string; holds : Value.t array -> Value.t array -> bool option }

let cmp v k op = match v with Value.Int x -> Some (op x k) | _ -> None
let str_is v f = match v with Value.String s -> Some (f s) | _ -> None

let join_atom =
  { sql = "ak = bak";
    holds = (fun a b -> match b.(1) with Value.Null -> None | v -> Some (Value.equal a.(0) v)) }

let gen_atom rng =
  let k = Random.State.int rng 11 in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  pick
    [ { sql = Printf.sprintf "a1 > %d" k; holds = (fun a _ -> cmp a.(1) k ( > )) };
      { sql = Printf.sprintf "a1 <= %d" k; holds = (fun a _ -> cmp a.(1) k ( <= )) };
      { sql = Printf.sprintf "b1 < %d" k; holds = (fun _ b -> cmp b.(2) k ( < )) };
      { sql = Printf.sprintf "b1 >= %d" k; holds = (fun _ b -> cmp b.(2) k ( >= )) };
      { sql = Printf.sprintf "ak > %d" (k * 3); holds = (fun a _ -> cmp a.(0) (k * 3) ( > )) };
      { sql = "a1 IS NULL"; holds = (fun a _ -> Some (Value.is_null a.(1))) };
      { sql = "b1 IS NOT NULL"; holds = (fun _ b -> Some (not (Value.is_null b.(2)))) };
      { sql = "a2 = 'x'"; holds = (fun a _ -> str_is a.(2) (String.equal "x")) };
      { sql = "a2 IN ('x', 'y')"; holds = (fun a _ -> str_is a.(2) (fun s -> s = "x" || s = "y")) };
      { sql = "b2 = 'y'"; holds = (fun _ b -> str_is b.(3) (String.equal "y")) };
      { sql = "b2 <> 'x'"; holds = (fun _ b -> str_is b.(3) (fun s -> s <> "x")) };
      { sql = "a1 = b1";
        holds = (fun a b -> match b.(2) with Value.Int y -> cmp a.(1) y ( = ) | _ -> None) };
      { sql = "a1 < b1";
        holds = (fun a b -> match b.(2) with Value.Int y -> cmp a.(1) y ( < ) | _ -> None) } ]

let and3 = List.fold_left (fun acc x ->
    match acc, x with
    | Some false, _ | _, Some false -> Some false
    | None, _ | _, None -> None
    | Some true, Some true -> Some true) (Some true)

let or3 = List.fold_left (fun acc x ->
    match acc, x with
    | Some true, _ | _, Some true -> Some true
    | None, _ | _, None -> None
    | Some false, Some false -> Some false) (Some false)

let shuffle rng l =
  List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) l))

(* 2-3 disjuncts sharing the equi-join conjunct (one in five drops it from
   a disjunct, leaving a cross join); sometimes a second shared atom, and
   sometimes a disjunct that is only the shared part (absorption) *)
let gen_pred rng =
  let n = 2 + Random.State.int rng 2 in
  let extra = if Random.State.int rng 3 = 0 then [ gen_atom rng ] else [] in
  let drop_join = Random.State.int rng 5 = 0 in
  List.init n (fun i ->
      let own = List.init (Random.State.int rng 4) (fun _ -> gen_atom rng) in
      let join = if drop_join && i = n - 1 then [] else [ join_atom ] in
      shuffle rng (join @ extra @ own))
  |> List.filter (( <> ) [])

let pred_sql ds =
  String.concat " OR "
    (List.map (fun d -> "(" ^ String.concat " AND " (List.map (fun a -> a.sql) d) ^ ")") ds)

let pred_oracle ds =
  List.concat_map
    (fun a ->
       List.filter_map
         (fun b ->
            match or3 (List.map (fun d -> and3 (List.map (fun at -> at.holds a b) d)) ds) with
            | Some true -> Some (row_key [ a.(0); b.(0); a.(1); b.(2) ])
            | _ -> None)
         tb_rows)
    ta_rows
  |> List.sort String.compare

let arb_pred =
  QCheck.make ~print:pred_sql (fun rng -> gen_pred rng)

let prop_random_disjunctions =
  let targets =
    lazy [ ("row", nullable_pair Engine.Rset.Row); ("columnar", nullable_pair Engine.Rset.Columnar) ]
  in
  QCheck.Test.make ~name:"random OR-of-conjunction joins: rows == oracle == reference"
    ~count:40 arb_pred
    (fun ds ->
       QCheck.assume (ds <> []);
       let sql = "SELECT ak, bk, a1, b1 FROM ta, tb WHERE " ^ pred_sql ds in
       check_everywhere ~fail:QCheck.Test.fail_report (Lazy.force targets) sql
         (pred_oracle ds);
       true)

(* -- plan shape -- *)

let workload_8 = Hashtbl.create 2

(* 8-node columnar appliances, one per scale factor, built on first use *)
let eight_nodes sf =
  match Hashtbl.find_opt workload_8 sf with
  | Some w -> w
  | None ->
    let w = Opdw.Workload.tpch ~node_count:8 ~sf ~engine:Engine.Rset.Columnar () in
    Hashtbl.replace workload_8 sf w;
    w

let rec has_nested_loop (p : Pdwopt.Pplan.t) =
  (match p.Pdwopt.Pplan.op with
   | Pdwopt.Pplan.Serial (Memo.Physop.Nl_join _) -> true
   | _ -> false)
  || List.exists has_nested_loop p.Pdwopt.Pplan.children

let sql_of id = (Option.get (Tpch.Queries.find id)).Tpch.Queries.sql

let test_q19_hash_join () =
  List.iter
    (fun sf ->
       let r = Opdw.optimize (eight_nodes sf).Opdw.Workload.shell (sql_of "Q19") in
       Alcotest.(check bool)
         (Printf.sprintf "Q19 at SF %g: no NestedLoopJoin" sf)
         false (has_nested_loop (Opdw.plan r)))
    [ 0.002; 0.01 ]

(* Q7's residual OR is conditioned on the pushed nation filters; charging
   it twice collapsed the nation-pair estimate to one row and bought a
   shuffle-heavy plan (25918 bytes). The plan before the rewrites moved
   1711 bytes. *)
let test_q7_bytes_moved () =
  let w = eight_nodes 0.002 in
  let r = Opdw.optimize w.Opdw.Workload.shell (sql_of "Q7") in
  let app = w.Opdw.Workload.app in
  Engine.Appliance.reset_account app;
  ignore (Opdw.run app r);
  let bytes = app.Engine.Appliance.account.Engine.Appliance.bytes_moved in
  Alcotest.(check bool)
    (Printf.sprintf "Q7 moves %.0f bytes <= 1711" bytes)
    true (bytes <= 1711.)

let suite =
  [ t "Q19 variant: rows == oracle, both engines, jobs 1/4" test_q19_variant_rows;
    QCheck_alcotest.to_alcotest prop_random_disjunctions;
    t "Q19 plan has no nested loop (SF 0.002, 0.01)" test_q19_hash_join;
    t "Q7 DMS bytes no higher than before the rewrites" test_q7_bytes_moved ]
