(* Shared test fixtures: a small TPC-H workload (shell db + loaded appliance)
   and a tiny custom schema. Built once, reused across suites. *)

let tpch_workload : Opdw.Workload.t Lazy.t =
  lazy (Opdw.Workload.tpch ~node_count:4 ~sf:0.002 ())

(* the same data on the columnar engine (shards and stats are identical) *)
let tpch_columnar : Opdw.Workload.t Lazy.t =
  lazy (Opdw.Workload.tpch ~node_count:4 ~sf:0.002 ~engine:Engine.Rset.Columnar ())

let shell () = (Lazy.force tpch_workload).Opdw.Workload.shell

(* the shell the pinned per-statement counters and digests are taken at:
   8 nodes, SF 0.01 *)
let pinned_shell : Catalog.Shell_db.t Lazy.t =
  lazy (Opdw.Workload.tpch ~node_count:8 ~sf:0.01 ()).Opdw.Workload.shell

let app () = (Lazy.force tpch_workload).Opdw.Workload.app

(* a small 2-table schema with explicit stats, no data *)
let mini_shell () =
  let open Catalog in
  let sh = Shell_db.create ~node_count:8 in
  let tcust =
    Schema.make "cust"
      [ Schema.column ~is_pk:true "ck" Types.Tint;
        Schema.column ~width:20 "cname" Types.Tstring ]
  in
  let tord =
    Schema.make "ord"
      [ Schema.column ~is_pk:true "ok" Types.Tint;
        Schema.column ~references:("cust", "ck") "ock" Types.Tint;
        Schema.column "price" Types.Tfloat ]
  in
  let stats rows ndvs =
    let s = Tbl_stats.make ~row_count:rows () in
    List.iter (fun (c, ndv) -> Tbl_stats.set_col s c (Col_stats.make ~ndv ())) ndvs;
    s
  in
  ignore
    (Shell_db.add_table sh ~stats:(stats 10_000. [ ("ck", 10_000.); ("cname", 9_000.) ])
       tcust (Distribution.Hash_partitioned [ "ck" ]));
  ignore
    (Shell_db.add_table sh
       ~stats:(stats 100_000. [ ("ok", 100_000.); ("ock", 10_000.); ("price", 5_000.) ])
       tord (Distribution.Hash_partitioned [ "ok" ]));
  sh

(* run the full pipeline on a SQL string against the TPC-H shell *)
let optimize ?options sql = Opdw.optimize ?options (shell ()) sql

let algebrize_normalize sql =
  let sh = shell () in
  let r = Algebra.Algebrizer.of_sql sh sql in
  let t = Algebra.Normalize.normalize r.Algebra.Algebrizer.reg sh r.Algebra.Algebrizer.tree in
  (r, t)

(* Serial and Move operators of a plan: one [run_pplan ~observe] call each *)
let rec executed_ops (p : Pdwopt.Pplan.t) =
  List.fold_left (fun a c -> a + executed_ops c)
    (match p.Pdwopt.Pplan.op with Pdwopt.Pplan.Return _ -> 0 | _ -> 1)
    p.Pdwopt.Pplan.children
