(* Elastic topology (DESIGN.md §14): online grow / re-key as phased moves,
   the workload-driven re-distribution advisor, and the elastic driver. The
   core invariants under test: a committed move serves exactly the oracle
   rows on the new layout; an aborted move leaves the source catalog
   bit-identical (stats_version, plan-cache fingerprint, storage, epoch);
   fault draws inside move steps compose with decommission; and a random
   grow / re-key / shrink sequence under a random fault seed reproduces
   rows and the simulated accounting exactly at any [--jobs]. *)

let t name f = Alcotest.test_case name `Quick f

let join_sql =
  "SELECT c_custkey, o_orderdate FROM orders, customer WHERE o_custkey = c_custkey"

(* a fresh workload per test: moves and decommissions replace the
   appliance, which must never disturb other tests' fixtures *)
let workload ?(node_count = 2) () = Opdw.Workload.tpch ~node_count ~sf:0.001 ()

(* fault-free oracle rows per bundled query id (row semantics do not depend
   on the node count, so one 2-node pass serves every topology test) *)
let oracle =
  lazy
    (let wl = workload () in
     let table = Hashtbl.create 16 in
     List.iter
       (fun (q : Tpch.Queries.t) ->
          let r = Opdw.optimize wl.Opdw.Workload.shell q.Tpch.Queries.sql in
          Hashtbl.replace table q.Tpch.Queries.id
            (Engine.Local.canonical (Opdw.run wl.Opdw.Workload.app r)))
       Tpch.Queries.all;
     table)

let oracle_rows id = Hashtbl.find (Lazy.force oracle) id

let run_fresh (app : Engine.Appliance.t) sql =
  let r = Opdw.optimize app.Engine.Appliance.shell sql in
  Engine.Local.canonical (Opdw.run app r)

(* per-node, per-table row counts: the storage identity an aborted move
   must preserve exactly *)
let storage_snapshot (app : Engine.Appliance.t) =
  Array.to_list
    (Array.map
       (fun store ->
          Hashtbl.fold (fun k rs acc -> (k, Engine.Rset.count rs) :: acc) store []
          |> List.sort compare)
       app.Engine.Appliance.storage)

(* -- the deterministic Zipf storm source -- *)

let test_zipf () =
  let storm = Topology.Zipf.storm ~seed:7 ~length:400 8 in
  Alcotest.(check (list int)) "same seed, same storm" storm
    (Topology.Zipf.storm ~seed:7 ~length:400 8);
  Alcotest.(check bool) "different seed, different storm" false
    (storm = Topology.Zipf.storm ~seed:8 ~length:400 8);
  Alcotest.(check bool) "picks in range" true
    (List.for_all (fun k -> k >= 0 && k < 8) storm);
  let count k = List.length (List.filter (( = ) k) storm) in
  Alcotest.(check bool) "rank 0 dominates the tail" true (count 0 > count 7);
  Alcotest.(check bool) "head is not the whole storm" true (count 0 < 400)

(* -- the shared re-partition pricing helper (shrink, grow, re-key) -- *)

let test_pricing_helper () =
  let r = Engine.Appliance.move_rates Engine.Appliance.default_hw in
  let bytes = 12345.0 and rows = 678.0 in
  let expect =
    (bytes
     *. (r.Dms.Cost.r_reader_byte +. r.Dms.Cost.r_network_byte
         +. r.Dms.Cost.r_writer_byte))
    +. (rows
        *. (r.Dms.Cost.r_reader_row +. r.Dms.Cost.r_network_row
            +. r.Dms.Cost.r_writer_row))
  in
  Alcotest.(check (float 0.))
    "reader+network+writer pipeline, components summed" expect
    (Dms.Cost.repartition_seconds r ~bytes ~rows);
  Alcotest.(check (float 0.)) "empty move is free" 0.
    (Dms.Cost.repartition_seconds r ~bytes:0. ~rows:0.)

(* losing the last compute node is a structured fault-plane outcome, not a
   programming error: storm drivers tally it instead of crashing *)
let test_last_node_decommission_structured () =
  let wl = workload () in
  let app1 = Engine.Appliance.decommission wl.Opdw.Workload.app ~node:0 in
  Alcotest.(check int) "one node left" 1 app1.Engine.Appliance.nodes;
  (match Engine.Appliance.decommission app1 ~node:0 with
   | _ -> Alcotest.fail "decommissioning the last node should be Exhausted"
   | exception Fault.Exhausted { failure; attempts } ->
     Alcotest.(check bool) "names the crash site" true
       (failure.Fault.site = Fault.Node_crash);
     Alcotest.(check int) "single attempt" 1 attempts
   | exception Invalid_argument _ ->
     Alcotest.fail "bare invalid_arg leaked out of the fault plane");
  (* on a multi-node appliance a bad node id is still a caller bug *)
  match Engine.Appliance.decommission (workload ()).Opdw.Workload.app ~node:9 with
  | _ -> Alcotest.fail "no such node should still be invalid_arg"
  | exception Fault.Exhausted _ ->
    Alcotest.fail "a caller bug must not masquerade as a fault outcome"
  | exception Invalid_argument _ -> ()

let test_recommission_grows_online () =
  let wl = workload () in
  let app = wl.Opdw.Workload.app in
  let base = run_fresh app join_sql in
  let sim0 = app.Engine.Appliance.account.Engine.Appliance.sim_time in
  let app4 = Engine.Appliance.recommission app ~nodes:4 in
  Alcotest.(check int) "grown to 4 nodes" 4 app4.Engine.Appliance.nodes;
  Alcotest.(check int) "topology epoch bumped" 1 app4.Engine.Appliance.epoch;
  Alcotest.(check int) "shell rebuilt at the new width" 4
    (Catalog.Shell_db.node_count app4.Engine.Appliance.shell);
  Alcotest.(check bool) "move cost charged to the simulated clock" true
    (app4.Engine.Appliance.account.Engine.Appliance.sim_time > sim0);
  Alcotest.(check (list string)) "rows identical on the wider topology" base
    (run_fresh app4 join_sql)

(* the move counters have one home, the driver's obs: one grow reports
   each exactly once (counted as sink events, not summed values) *)
let test_grow_reports_move_counters_once () =
  let wl = workload () in
  let events = Hashtbl.create 8 in
  let sink = function
    | Obs.Metric (_, name, _) ->
      Hashtbl.replace events name
        (1 + Option.value (Hashtbl.find_opt events name) ~default:0)
    | _ -> ()
  in
  let obs = Obs.create ~sink () in
  let el =
    Topology.Elastic.create ~fault:Fault.none wl.Opdw.Workload.shell wl.Opdw.Workload.app
  in
  Topology.Elastic.grow ~obs el ~nodes:4;
  let count name = Option.value (Hashtbl.find_opt events name) ~default:0 in
  Alcotest.(check int) "topology.applied_moves once" 1 (count "topology.applied_moves");
  Alcotest.(check int) "topology.move_seconds once" 1 (count "topology.move_seconds");
  Alcotest.(check bool) "move seconds are the accrued copy cost" true
    (Obs.counter obs "topology.move_seconds" > 0.);
  Alcotest.(check int) "grown to 4 nodes" 4 (Opdw.Driver.nodes el)

let test_redistribute_rekeys_online () =
  let wl = workload ~node_count:4 () in
  let app = wl.Opdw.Workload.app in
  let base = run_fresh app join_sql in
  let cost shell =
    (Opdw.plan (Opdw.optimize shell join_sql)).Pdwopt.Pplan.dms_cost
  in
  let before = cost wl.Opdw.Workload.shell in
  let app' = Engine.Appliance.redistribute app ~table:"orders" ~cols:[ "o_custkey" ] in
  (match (Catalog.Shell_db.find_exn app'.Engine.Appliance.shell "orders").Catalog.Shell_db.dist with
   | Catalog.Distribution.Hash_partitioned [ "o_custkey" ] -> ()
   | _ -> Alcotest.fail "orders not re-keyed to o_custkey");
  Alcotest.(check int) "same node count" 4 app'.Engine.Appliance.nodes;
  Alcotest.(check (list string)) "rows identical under the new key" base
    (run_fresh app' join_sql);
  Alcotest.(check bool)
    "collocating the join strictly lowers the modelled DMS cost" true
    (cost app'.Engine.Appliance.shell < before)

(* an aborted move must leave the source appliance bit-identical: catalog
   version, plan-cache fingerprint, storage, and epoch all unchanged *)
let test_abort_bit_identical () =
  let wl = workload () in
  let app = wl.Opdw.Workload.app and shell = wl.Opdw.Workload.shell in
  let cache = Opdw.cache () in
  let fp () = (Opdw.optimize ~cache shell join_sql).Opdw.fingerprint in
  let base = run_fresh app join_sql in
  let sv0 = Catalog.Shell_db.stats_version shell in
  let fp0 = fp () and snap0 = storage_snapshot app in
  let m =
    Engine.Appliance.begin_move app ~node_count:3
      ~dist_of:(fun tbl -> tbl.Catalog.Shell_db.dist)
  in
  Alcotest.(check bool) "hash tables pend as priced copy steps" true
    (m.Engine.Appliance.m_pending <> []);
  Engine.Appliance.copy_step m;
  Engine.Appliance.abort_move m;
  Alcotest.(check int) "stats_version untouched" sv0
    (Catalog.Shell_db.stats_version shell);
  Alcotest.(check bool) "fingerprint bit-identical" true (fp0 = fp ());
  Alcotest.(check bool) "storage bit-identical" true
    (snap0 = storage_snapshot app);
  Alcotest.(check int) "epoch untouched" 0 app.Engine.Appliance.epoch;
  Alcotest.(check bool) "shadow partitions dropped" true
    (Array.for_all
       (fun store -> Hashtbl.length store = 0)
       m.Engine.Appliance.m_target.Engine.Appliance.storage);
  Alcotest.(check (list string)) "source still serves oracle rows" base
    (run_fresh app join_sql)

(* a move whose copy steps exhaust the retry budget aborts clean: the
   failure is structured and the pre-move layout keeps serving *)
let test_exhausted_move_aborts_clean () =
  let wl = workload () in
  let app = wl.Opdw.Workload.app and shell = wl.Opdw.Workload.shell in
  let base = run_fresh app join_sql in
  let sv0 = Catalog.Shell_db.stats_version shell in
  let snap0 = storage_snapshot app in
  (* the same temp-write fault at every step and attempt: no copy step can
     ever succeed, so the move must exhaust and roll back *)
  let persistent =
    Fault.schedule
      (List.concat_map
         (fun step ->
            List.map
              (fun attempt -> Fault.event ~attempt Fault.Temp_write step)
              (List.init 10 Fun.id))
         (List.init 24 Fun.id))
  in
  Engine.Appliance.set_fault app persistent;
  (match Engine.Appliance.recommission app ~nodes:4 with
   | _ -> Alcotest.fail "persistent copy fault should exhaust the budget"
   | exception Fault.Exhausted { failure; _ } ->
     Alcotest.(check bool) "failure names the site" true
       (failure.Fault.site = Fault.Temp_write));
  Engine.Appliance.set_fault app Fault.none;
  Alcotest.(check int) "stats_version untouched" sv0
    (Catalog.Shell_db.stats_version shell);
  Alcotest.(check bool) "storage untouched" true (snap0 = storage_snapshot app);
  Alcotest.(check int) "still 2 nodes" 2 app.Engine.Appliance.nodes;
  Alcotest.(check (list string)) "old layout keeps serving" base
    (run_fresh app join_sql)

(* -- the shell-derivation helper -- *)

let orders_on_custkey (tbl : Catalog.Shell_db.table) =
  if tbl.Catalog.Shell_db.schema.Catalog.Schema.name = "orders" then
    Catalog.Distribution.Hash_partitioned [ "o_custkey" ]
  else tbl.Catalog.Shell_db.dist

(* deriving a shell leaves the source bit-identical and gives the derived
   one a higher version, the override and the node count *)
let test_derive_shell () =
  let src = (workload ()).Opdw.Workload.shell in
  let snapshot sh =
    Marshal.to_string
      ( Catalog.Shell_db.stats_version sh,
        Catalog.Shell_db.node_count sh,
        List.map
          (fun (t : Catalog.Shell_db.table) ->
             (t.Catalog.Shell_db.schema, t.Catalog.Shell_db.dist, t.Catalog.Shell_db.stats))
          (Catalog.Shell_db.sorted_tables sh) )
      []
  in
  let before = snapshot src in
  let d = Catalog.Shell_db.derive src ~node_count:5 ~dist_of:orders_on_custkey in
  Alcotest.(check bool) "source bit-identical" true (before = snapshot src);
  Alcotest.(check bool) "version above the source's" true
    (Catalog.Shell_db.stats_version d > Catalog.Shell_db.stats_version src);
  Alcotest.(check int) "node count applied" 5 (Catalog.Shell_db.node_count d);
  let dist sh name = (Catalog.Shell_db.find_exn sh name).Catalog.Shell_db.dist in
  Alcotest.(check bool) "override applied" true
    (dist d "orders" = Catalog.Distribution.Hash_partitioned [ "o_custkey" ]);
  Alcotest.(check bool) "other tables keep their distribution" true
    (dist d "lineitem" = dist src "lineitem");
  let names sh =
    List.map
      (fun (t : Catalog.Shell_db.table) -> t.Catalog.Shell_db.schema.Catalog.Schema.name)
      (Catalog.Shell_db.sorted_tables sh)
  in
  Alcotest.(check (list string)) "same tables" (names src) (names d);
  List.iter
    (fun name ->
       Alcotest.(check (float 0.)) (name ^ " statistics carried")
         (Catalog.Shell_db.row_count (Catalog.Shell_db.find_exn src name))
         (Catalog.Shell_db.row_count (Catalog.Shell_db.find_exn d name)))
    (names src);
  let same = Catalog.Shell_db.derive src in
  Alcotest.(check int) "node count defaults to the source's"
    (Catalog.Shell_db.node_count src) (Catalog.Shell_db.node_count same);
  Alcotest.(check bool) "distribution defaults to the source's" true
    (dist same "orders" = dist src "orders")

(* a move aborted mid-copy and restarted — on the same source, or on the
   survivors after a decommission — commits a shell that never serves a
   plan compiled on the source *)
let test_restarted_move_never_serves_source_plans () =
  let wl = workload ~node_count:3 () in
  let cache = Opdw.cache () in
  let fp (app : Engine.Appliance.t) =
    Option.get (Opdw.optimize ~cache app.Engine.Appliance.shell join_sql).Opdw.fingerprint
  in
  let misses () = (Opdw.Plancache.stats cache).Opdw.Plancache.misses in
  let rekey (app : Engine.Appliance.t) =
    Engine.Appliance.begin_move app ~node_count:app.Engine.Appliance.nodes
      ~dist_of:orders_on_custkey
  in
  let abort_after_one_step app =
    let m = rekey app in
    Engine.Appliance.copy_step m;
    Engine.Appliance.abort_move m
  in
  let complete app =
    let m = rekey app in
    while m.Engine.Appliance.m_pending <> [] do Engine.Appliance.copy_step m done;
    Engine.Appliance.flip_move m
  in
  let src = wl.Opdw.Workload.app in
  let source_fp = fp src in
  abort_after_one_step src;
  Alcotest.(check string) "the aborted move leaves the source's key" source_fp (fp src);
  let m0 = misses () in
  let restarted = complete src in
  Alcotest.(check bool) "restarted on the source: new key" true (fp restarted <> source_fp);
  Alcotest.(check int) "restarted on the source: compiled afresh" (m0 + 1) (misses ());
  abort_after_one_step src;
  let survivors = Engine.Appliance.decommission src ~node:2 in
  let survivors_fp = fp survivors in
  let m1 = misses () in
  let restarted = complete survivors in
  Alcotest.(check bool) "restarted on the survivors: new key" true
    (not (List.mem (fp restarted) [ source_fp; survivors_fp ]));
  Alcotest.(check int) "restarted on the survivors: compiled afresh" (m1 + 1) (misses ())

(* -- the advisor + elastic driver end to end -- *)

(* serve a skewed storm through the elastic driver, grow 2 -> 4 mid-storm,
   apply the advisor's proposals as online re-keys, keep serving between
   copy steps: availability must stay 1.0 (every answer oracle-equal) and
   the accepted proposals must be strict modelled-cost wins *)
let test_elastic_storm_grow_and_rekey () =
  let wl = workload () in
  let app = wl.Opdw.Workload.app in
  let el =
    Topology.Elastic.create ~cache:(Opdw.cache ()) ~fault:Fault.none
      wl.Opdw.Workload.shell app
  in
  let bundle = Array.of_list Tpch.Queries.all in
  let storm =
    Topology.Zipf.storm ~seed:3 ~length:16 (Array.length bundle)
    |> List.map (fun k -> bundle.(k))
  in
  let queue = ref storm and mismatches = ref 0 and served = ref 0 in
  let serve_one () =
    match !queue with
    | [] -> ()
    | q :: rest ->
      queue := rest;
      let _, rows = Topology.Elastic.run el q.Tpch.Queries.sql in
      incr served;
      if Engine.Local.canonical rows <> oracle_rows q.Tpch.Queries.id then
        incr mismatches
  in
  for _ = 1 to 8 do serve_one () done;
  Topology.Elastic.grow ~between:serve_one el ~nodes:4;
  Alcotest.(check int) "grown mid-storm" 4 (Opdw.Driver.nodes el);
  let advice = Topology.Elastic.advise el in
  Alcotest.(check bool) "head join mis-key found" true
    (List.exists
       (fun (p : Topology.Advisor.proposal) -> p.Topology.Advisor.p_table = "orders")
       advice.Topology.Advisor.a_proposals);
  Alcotest.(check bool) "strict modelled-cost win" true
    (advice.Topology.Advisor.a_proposed < advice.Topology.Advisor.a_baseline);
  List.iter
    (fun (p : Topology.Advisor.proposal) ->
       Alcotest.(check bool)
         (Printf.sprintf "proposal %s is a strict win" p.Topology.Advisor.p_table)
         true
         (p.Topology.Advisor.p_after < p.Topology.Advisor.p_before))
    advice.Topology.Advisor.a_proposals;
  Topology.Elastic.apply ~between:serve_one el advice;
  while !queue <> [] do serve_one () done;
  Alcotest.(check int) "whole storm served" 16 !served;
  Alcotest.(check int) "availability 1.0: zero non-oracle answers" 0 !mismatches;
  Alcotest.(check bool) "epoch advanced by the moves" true
    (Opdw.Driver.epoch el >= 2)

(* -- the advisor against a reference replay -- *)

(* the advisor's greedy search written out with a full [Opdw.optimize] per
   statement per candidate: what [advise] computed before it explored each
   statement once and re-placed it per candidate *)
let reference_advise ?(max_tables = 2) (options : Opdw.options) shell log =
  let options =
    { options with Opdw.via_xml = false; governor = Governor.no_limits }
  in
  let stmts = Topology.Advisor.statements log in
  let cost_with overrides =
    let shell' = Topology.Advisor.hypothetical shell overrides in
    List.fold_left
      (fun acc (sql, count) ->
         acc
         +. (float_of_int count
             *. (Opdw.plan (Opdw.optimize ~options shell' sql)).Pdwopt.Pplan.dms_cost))
      0. stmts
  in
  let baseline = cost_with [] in
  let accepted = ref [] and proposals = ref [] and current = ref baseline in
  List.iter
    (fun (tab, _, cols) ->
       if List.length !accepted < max_tables then begin
         let cur_key =
           match Catalog.Shell_db.find shell tab with
           | Some { Catalog.Shell_db.dist = Catalog.Distribution.Hash_partitioned k; _ } -> k
           | _ -> []
         in
         let best =
           List.fold_left
             (fun best col ->
                if [ col ] = cur_key then best
                else
                  let cost = cost_with (!accepted @ [ (tab, [ col ]) ]) in
                  match best with
                  | Some (_, c) when c <= cost -> best
                  | _ -> Some (col, cost))
             None cols
         in
         match best with
         | Some (col, cost) when cost < !current ->
           accepted := !accepted @ [ (tab, [ col ]) ];
           proposals :=
             { Topology.Advisor.p_table = tab; p_from = cur_key; p_cols = [ col ];
               p_before = !current; p_after = cost }
             :: !proposals;
           current := cost
         | _ -> ()
       end)
    (Topology.Advisor.candidates shell log);
  { Topology.Advisor.a_statements = stmts; a_baseline = baseline;
    a_proposed = !current; a_proposals = List.rev !proposals }

(* every float in hex, so equal strings mean bit-equal advice *)
let advice_to_string (a : Topology.Advisor.advice) =
  Printf.sprintf "%d statements, %h -> %h: %s"
    (List.length a.Topology.Advisor.a_statements)
    a.Topology.Advisor.a_baseline a.Topology.Advisor.a_proposed
    (String.concat "; "
       (List.map
          (fun (p : Topology.Advisor.proposal) ->
             Printf.sprintf "%s [%s] -> [%s] %h -> %h" p.Topology.Advisor.p_table
               (String.concat "," p.Topology.Advisor.p_from)
               (String.concat "," p.Topology.Advisor.p_cols)
               p.Topology.Advisor.p_before p.Topology.Advisor.p_after)
          a.Topology.Advisor.a_proposals))

(* an elastic instance that has served a 24-statement Zipf storm on 4
   nodes *)
let served_storm =
  lazy
    (let wl = workload ~node_count:4 () in
     let el =
       Topology.Elastic.create ~cache:(Opdw.cache ()) ~fault:Fault.none
         wl.Opdw.Workload.shell wl.Opdw.Workload.app
     in
     let bundle = Array.of_list Tpch.Queries.all in
     List.iter
       (fun k -> ignore (Topology.Elastic.run el bundle.(k).Tpch.Queries.sql))
       (Topology.Zipf.storm ~seed:3 ~length:24 (Array.length bundle));
     el)

let test_advise_matches_reference () =
  let el = Lazy.force served_storm in
  let shell = Opdw.Driver.shell el and log = Topology.Elastic.log el in
  let options = Opdw.Driver.options el in
  let advice = Topology.Elastic.advise el in
  Alcotest.(check bool) "the storm's advice proposes a re-key" true
    (advice.Topology.Advisor.a_proposals <> []);
  Alcotest.(check string) "advise = full-optimize greedy replay"
    (advice_to_string (reference_advise options shell log))
    (advice_to_string advice);
  let seeded = { options with Opdw.seed_collocated = true } in
  Alcotest.(check string) "with collocated seeding too"
    (advice_to_string (reference_advise seeded shell log))
    (advice_to_string (Topology.Advisor.advise ~options:seeded shell log))

(* the serving options' governor limits must not reach the replay: a
   wall deadline would make the advice depend on host speed, a memo budget
   would price degraded plans *)
let test_advise_ignores_governor_limits () =
  let el = Lazy.force served_storm in
  let shell = Opdw.Driver.shell el and log = Topology.Elastic.log el in
  let options = Opdw.Driver.options el in
  let unlimited = advice_to_string (Topology.Advisor.advise ~options shell log) in
  List.iter
    (fun (what, governor) ->
       Alcotest.(check string) what unlimited
         (advice_to_string
            (Topology.Advisor.advise ~options:{ options with Opdw.governor } shell log)))
    [ ("wall deadline 1e-6 s", { Governor.no_limits with Governor.deadline = Some 1e-6 });
      ("memo budget 4 groups",
       { Governor.no_limits with Governor.max_memo_groups = Some 4 }) ]

(* -- property: a random grow / re-key / shrink sequence under a random
      fault seed reproduces rows and accounting at any --jobs -- *)

type op = Grow | Rekey of string * string | Shrink

let op_to_string = function
  | Grow -> "grow"
  | Rekey (t, c) -> Printf.sprintf "rekey(%s,%s)" t c
  | Shrink -> "shrink"

let apply_op (el : Topology.Elastic.t) = function
  | Grow -> Topology.Elastic.grow el ~nodes:(Opdw.Driver.nodes el + 1)
  | Rekey (table, col) -> Topology.Elastic.redistribute el ~table ~cols:[ col ]
  | Shrink ->
    if Opdw.Driver.nodes el > 1 then begin
      let app = Topology.Elastic.app el in
      let node = app.Engine.Appliance.nodes - 1 in
      Opdw.Driver.install el (Engine.Appliance.decommission app ~node)
    end

let arb_sequence =
  let open QCheck in
  let op =
    Gen.oneofl
      [ Grow; Shrink; Rekey ("orders", "o_custkey");
        Rekey ("customer", "c_nationkey"); Rekey ("orders", "o_orderkey") ]
  in
  let gen =
    Gen.(
      let* ops = list_size (int_range 1 3) op in
      let* seed = int_range 1 1000 in
      return (ops, seed))
  in
  let print (ops, seed) =
    Printf.sprintf "seed=%d ops=[%s]" seed
      (String.concat "; " (List.map op_to_string ops))
  in
  QCheck.make ~print gen

(* one full run: apply the topology sequence, then serve every bundled
   query; returns either the rows + deterministic accounting, or the
   structured exhaustion — whichever it is must reproduce exactly *)
let run_sequence ~jobs (ops, seed) =
  Par.with_pool ~jobs @@ fun pool ->
  let wl = workload () in
  let app = wl.Opdw.Workload.app in
  Engine.Appliance.set_pool app pool;
  let el =
    Topology.Elastic.create ~cache:(Opdw.cache ())
      ~fault:(Fault.seeded ~seed ~rate:0.05 ())
      wl.Opdw.Workload.shell app
  in
  match
    List.iter (apply_op el) ops;
    List.map
      (fun (q : Tpch.Queries.t) ->
         let _, rows = Topology.Elastic.run el q.Tpch.Queries.sql in
         (q.Tpch.Queries.id, Engine.Local.canonical rows))
      Tpch.Queries.all
  with
  | served ->
    let a = (Topology.Elastic.app el).Engine.Appliance.account in
    Ok
      (served, a.Engine.Appliance.sim_time, a.Engine.Appliance.dms_time,
       a.Engine.Appliance.bytes_moved, a.Engine.Appliance.rows_moved,
       a.Engine.Appliance.injected, a.Engine.Appliance.retries,
       a.Engine.Appliance.replans, Opdw.Driver.nodes el,
       Opdw.Driver.epoch el)
  | exception Fault.Exhausted { failure; attempts } ->
    Error (Fault.failure_to_string failure, attempts)

let prop_topology_determinism =
  QCheck.Test.make
    ~name:"random grow/re-key/shrink under faults: oracle rows, jobs-1 == jobs-4"
    ~count:4 arb_sequence
    (fun seq ->
       let seq_run = run_sequence ~jobs:1 seq in
       let par_run = run_sequence ~jobs:4 seq in
       if seq_run <> par_run then
         QCheck.Test.fail_report "jobs=1 and jobs=4 runs diverged";
       (match seq_run with
        | Ok (served, _, _, _, _, _, _, _, _, _) ->
          List.iter
            (fun (id, rows) ->
               if rows <> oracle_rows id then
                 QCheck.Test.fail_reportf "%s returned non-oracle rows" id)
            served
        | Error _ -> ());
       true)

(* a high-fault storm through grow + re-key: a statement that spends its
   retry budget is tallied as a refusal and the storm goes on, so every
   statement reaches a typed outcome and none returns wrong rows *)
let test_elastic_storm_tallies_refusals () =
  let wl = workload ~node_count:4 () in
  let bundle = Array.of_list Tpch.Queries.all in
  let stmts =
    Topology.Zipf.storm ~seed:3 ~length:24 (Array.length bundle)
    |> List.map (fun k -> (bundle.(k).Tpch.Queries.id, bundle.(k).Tpch.Queries.sql))
  in
  let oracle = Opdw.Workload.oracle (workload ~node_count:4 ()) stmts in
  let el =
    Topology.Elastic.create ~cache:(Opdw.cache ())
      ~fault:(Fault.seeded ~seed:3 ~rate:0.3 ()) wl.Opdw.Workload.shell
      wl.Opdw.Workload.app
  in
  let t, _ = Topology.Elastic.storm ~grow_to:8 ~oracle el stmts in
  let open Opdw.Driver in
  Alcotest.(check int) "every statement tallied" 24 t.statements;
  Alcotest.(check int) "outcomes sum to the storm" 24
    (t.returned + t.rejected + t.shed + t.timed_out + t.exhausted + t.invalid);
  Alcotest.(check bool) "some statement exhausted its budget" true (t.exhausted >= 1);
  Alcotest.(check int) "no wrong rows" 0 t.wrong

let suite =
  [ t "zipf storm is pure and skewed" test_zipf;
    t "repartition pricing helper algebra" test_pricing_helper;
    t "last-node decommission is a structured fault"
      test_last_node_decommission_structured;
    t "recommission grows online to oracle rows" test_recommission_grows_online;
    t "one grow reports the move counters once" test_grow_reports_move_counters_once;
    t "redistribute re-keys online, lower modelled cost"
      test_redistribute_rekeys_online;
    t "aborted move leaves the catalog bit-identical" test_abort_bit_identical;
    t "exhausted move aborts clean and keeps serving"
      test_exhausted_move_aborts_clean;
    t "derived shell: source untouched, version above, overrides applied"
      test_derive_shell;
    t "restarted move never serves a plan compiled on the source"
      test_restarted_move_never_serves_source_plans;
    t "elastic storm: grow + advisor re-key, availability 1.0"
      test_elastic_storm_grow_and_rekey;
    t "advise = full-optimize greedy replay" test_advise_matches_reference;
    t "advise ignores the serving governor limits"
      test_advise_ignores_governor_limits;
    QCheck_alcotest.to_alcotest prop_topology_determinism;
    t "elastic storm tallies refusals and finishes" test_elastic_storm_tallies_refusals ]
