(** The shell database (paper §2.2): metadata and global statistics for every
    table in the appliance, with no user data. It is the "single system
    image" the compilation stack works against. *)

type table = {
  schema : Schema.t;
  dist : Distribution.t;
  mutable stats : Tbl_stats.t;
}

type t = {
  tables : (string, table) Hashtbl.t;
  node_count : int;  (** number of compute nodes in the appliance topology *)
  mutable stats_version : int;
      (** bumped on every catalog/statistics change and strictly above the
          source's in a {!derive}d shell; cached compilation artifacts
          (e.g. the plan cache) key on it for invalidation *)
}

let create ~node_count = { tables = Hashtbl.create 16; node_count; stats_version = 0 }

let node_count t = t.node_count

let stats_version t = t.stats_version

let add_table t ?(stats = Tbl_stats.make ()) schema dist =
  let tbl = { schema; dist; stats } in
  Hashtbl.replace t.tables (String.lowercase_ascii schema.Schema.name) tbl;
  t.stats_version <- t.stats_version + 1;
  tbl

let find t name = Hashtbl.find_opt t.tables (String.lowercase_ascii name)

let find_exn t name =
  match find t name with
  | Some tbl -> tbl
  | None -> invalid_arg (Printf.sprintf "Shell_db.find_exn: unknown table %s" name)

let set_stats t name stats =
  match find t name with
  | Some tbl ->
    tbl.stats <- stats;
    t.stats_version <- t.stats_version + 1
  | None -> invalid_arg (Printf.sprintf "Shell_db.set_stats: unknown table %s" name)

(** Replace one column's statistics in place (feedback-driven refinement),
    bumping [stats_version] so cached compilation artifacts keyed on it
    (e.g. the plan cache) evict naturally. *)
let update_col_stats t name col stats =
  match find t name with
  | Some tbl ->
    Tbl_stats.set_col tbl.stats col stats;
    t.stats_version <- t.stats_version + 1
  | None -> invalid_arg (Printf.sprintf "Shell_db.update_col_stats: unknown table %s" name)

(** Bump [stats_version] with no content change — marks a catalog-wide
    change the tables do not show (e.g. a feedback calibration re-fitting
    the cost model) so version-keyed consumers (plan cache, plan store)
    re-key every statement. *)
let touch t = t.stats_version <- t.stats_version + 1

let tables t = Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.tables []

(** The tables in name order, for deterministic iteration. *)
let sorted_tables t =
  List.sort (fun a b -> compare a.schema.Schema.name b.schema.Schema.name) (tables t)

(** [derive ?node_count ?dist_of src] is a new shell sharing [src]'s
    schema and statistics objects, on [node_count] (default [src]'s)
    compute nodes, each table distributed by [dist_of] (default
    unchanged). Tables are added in name order, and the version is one
    above [src]'s, so versions rise strictly along a lineage of derived
    shells and stay deterministic (there is no global counter). [src] is
    not mutated. *)
let derive ?node_count ?(dist_of = fun tbl -> tbl.dist) src =
  let t =
    create ~node_count:(Option.value node_count ~default:src.node_count)
  in
  List.iter
    (fun tbl -> ignore (add_table t ~stats:tbl.stats tbl.schema (dist_of tbl)))
    (sorted_tables src);
  t.stats_version <- src.stats_version + 1;
  t

let row_count tbl = Tbl_stats.row_count tbl.stats

let col_stats tbl name = Tbl_stats.col tbl.stats name

let pp ppf t =
  Format.fprintf ppf "@[<v>shell database (%d compute nodes)@," t.node_count;
  Hashtbl.iter
    (fun _ tbl ->
       Format.fprintf ppf "%a %a rows=%g@," Schema.pp tbl.schema Distribution.pp tbl.dist
         (row_count tbl))
    t.tables;
  Format.fprintf ppf "@]"
