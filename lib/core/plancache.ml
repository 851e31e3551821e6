(** A bounded, mutex-guarded LRU cache for compiled plans, keyed by a
    canonical fingerprint of the normalized logical tree plus every
    optimizer-relevant knob.

    The paper's appliance re-optimizes every statement from scratch; under
    a repeated-query stream (the north-star workload) that wastes the
    dominant share of compile time on exact repeats. The cache lets
    {!Opdw.optimize} skip the serial MEMO exploration, XML interchange,
    PDW enumeration, DSQL generation and baseline parallelization
    entirely when an identical (tree, knobs, statistics) triple was
    compiled before.

    {b Fingerprint / invalidation rules} (also DESIGN.md):
    - the canonical render of the normalized algebra tree with explicit
      registry column ids — equal renders mean the downstream optimizers
      receive structurally identical input;
    - the appliance topology (node count) and the serial/PDW/baseline
      option records, including λ constants and §3.1 hints — any knob
      that steers plan choice re-keys the entry;
    - the shell database's [stats_version], bumped on every catalog
      change and raised in every derived shell (decommission, topology
      move) — catalog changes invalidate by missing, not by flushing.

    Keys are the full canonical payload (no hashing), so false hits are
    impossible by construction. All operations take an internal mutex, so
    one cache may serve concurrent domains. *)

type 'a entry = { mutable last_use : int; value : 'a }

type 'a t = {
  capacity : int;
  table : (string, 'a entry) Hashtbl.t;
  mutex : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable evictions_invalid : int;
  mutable evictions_degraded : int;
}

type stats = {
  size : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
  evictions_invalid : int;
      (** entries evicted because their plan was rejected downstream
          (by {!Check} or the appliance), not for capacity *)
  evictions_degraded : int;
      (** compilations refused admission (and any same-key entry dropped)
          because governor pressure degraded their plan — an
          anytime/fallback plan must never be served from the cache *)
}

let create ?(capacity = 128) () =
  { capacity = max 1 capacity; table = Hashtbl.create 64; mutex = Mutex.create ();
    tick = 0; hits = 0; misses = 0; evictions = 0; evictions_invalid = 0;
    evictions_degraded = 0 }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(** [find t key] returns the cached value and marks it most recently
    used; counts a hit or a miss. *)
let find t key =
  with_lock t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some e ->
    t.tick <- t.tick + 1;
    e.last_use <- t.tick;
    t.hits <- t.hits + 1;
    Some e.value
  | None ->
    t.misses <- t.misses + 1;
    None

(* capacity is small (default 128): a linear scan for the LRU victim keeps
   the structure a plain hashtable instead of an intrusive list *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
       match !victim with
       | Some (_, lu) when lu <= e.last_use -> ()
       | _ -> victim := Some (k, e.last_use))
    t.table;
  match !victim with
  | Some (k, _) ->
    Hashtbl.remove t.table k;
    t.evictions <- t.evictions + 1;
    true
  | None -> false

(** [add t key v] inserts (or refreshes) [key]; returns [true] when an
    older entry was evicted to make room. *)
let add t key v =
  with_lock t @@ fun () ->
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.table key with
  | Some e ->
    e.last_use <- t.tick;
    Hashtbl.replace t.table key { last_use = t.tick; value = v };
    false
  | None ->
    let evicted = if Hashtbl.length t.table >= t.capacity then evict_lru t else false in
    Hashtbl.replace t.table key { last_use = t.tick; value = v };
    evicted

(** [remove_invalid t key] drops a poisoned entry — one whose cached plan
    was later rejected by the {!Check} analyzer or refused by the
    appliance — so the next lookup recompiles instead of re-serving it.
    Returns [true] when the key was present. *)
let remove_invalid t key =
  with_lock t @@ fun () ->
  if Hashtbl.mem t.table key then begin
    Hashtbl.remove t.table key;
    t.evictions_invalid <- t.evictions_invalid + 1;
    true
  end
  else false

(** [note_degraded t key] records that the compilation filed under [key]
    came back degraded (anytime/fallback): the result is not admitted, and
    any entry already under the key is dropped (it may predate the
    pressure but the safe move is to recompile). Returns [true] when an
    entry was actually removed. *)
let note_degraded t key =
  with_lock t @@ fun () ->
  t.evictions_degraded <- t.evictions_degraded + 1;
  if Hashtbl.mem t.table key then begin
    Hashtbl.remove t.table key;
    true
  end
  else false

let stats t =
  with_lock t @@ fun () ->
  { size = Hashtbl.length t.table; capacity = t.capacity; hits = t.hits;
    misses = t.misses; evictions = t.evictions;
    evictions_invalid = t.evictions_invalid;
    evictions_degraded = t.evictions_degraded }

(** One-line render of a {!stats} snapshot (for [run --profile]). *)
let stats_to_string s =
  Printf.sprintf
    "size=%d/%d hits=%d misses=%d evictions=%d (lru=%d invalid=%d degraded=%d)"
    s.size s.capacity s.hits s.misses
    (s.evictions + s.evictions_invalid + s.evictions_degraded)
    s.evictions s.evictions_invalid s.evictions_degraded

let clear t =
  with_lock t @@ fun () ->
  Hashtbl.reset t.table;
  t.tick <- 0

(* -- canonical fingerprints -- *)

let col c = "#" ^ string_of_int c

let expr e = Algebra.Expr.to_string_with col e

(* a canonical, collision-free render of the normalized tree: operator
   constructor + every payload with explicit column ids, prefix form *)
let rec tree (t : Algebra.Relop.t) : string =
  let open Algebra in
  let head =
    match t.Relop.op with
    | Relop.Get { table; alias; cols } ->
      Printf.sprintf "Get(%s;%s;%s)" (String.lowercase_ascii table)
        (String.lowercase_ascii alias)
        (String.concat "," (List.map col (Array.to_list cols)))
    | Relop.Select pred -> Printf.sprintf "Select(%s)" (expr pred)
    | Relop.Project defs ->
      Printf.sprintf "Project(%s)"
        (String.concat ","
           (List.map (fun (c, e) -> col c ^ ":=" ^ expr e) defs))
    | Relop.Join { kind = _; pred } ->
      (* op_name spells the join kind (Join/SemiJoin/CrossJoin/...) *)
      Printf.sprintf "%s(%s)" (Relop.op_name t.Relop.op) (expr pred)
    | Relop.Group_by { keys; aggs } ->
      Printf.sprintf "GroupBy(%s;%s)"
        (String.concat "," (List.map col keys))
        (String.concat ","
           (List.map
              (fun (a : Expr.agg_def) ->
                 col a.Expr.agg_out ^ ":=" ^ Expr.agg_to_string_with col a)
              aggs))
    | Relop.Sort { keys; limit } ->
      Printf.sprintf "Sort(%s;%s)"
        (String.concat ","
           (List.map
              (fun (k : Relop.sort_key) ->
                 expr k.Relop.key ^ (if k.Relop.desc then "-" else "+"))
              keys))
        (match limit with Some n -> string_of_int n | None -> "")
    | Relop.Union_all -> "UnionAll"
    | Relop.Empty cols ->
      Printf.sprintf "Empty(%s)" (String.concat "," (List.map col cols))
  in
  match t.Relop.children with
  | [] -> head
  | cs -> Printf.sprintf "%s[%s]" head (String.concat ";" (List.map tree cs))

let lambdas (l : Dms.Cost.lambdas) =
  Printf.sprintf "%h,%h,%h,%h,%h" l.Dms.Cost.l_reader_direct
    l.Dms.Cost.l_reader_hash l.Dms.Cost.l_network l.Dms.Cost.l_writer
    l.Dms.Cost.l_blkcpy

let hint (t, h) =
  Printf.sprintf "%s=%s" (String.lowercase_ascii t)
    (match h with `Broadcast -> "B" | `Shuffle -> "S")

(** The cache key for one optimization request: the canonical tree
    render, every option the pipeline's plan choice depends on (serial,
    PDW including hints and λs, baseline, XML interchange, seeding, and
    the [governor] budgets — a tight-budget plan explores a different
    space, so it must never alias a full-budget one), and the shell the
    plan was compiled against, as its node count and [stats_version]. A
    plan is a pure function of these three (paper §2.2: the shell is all
    the compiler sees of the appliance). Every catalog change raises the
    version: statistics updates, a feedback calibration
    ({!Catalog.Shell_db.touch}), and the new shell that a decommission or
    a topology move {!Catalog.Shell_db.derive}s, whose version starts
    above its source's — so along one appliance's lineage no two layouts
    share a version. *)
let fingerprint ?(governor = Governor.no_limits)
    ~(shell : Catalog.Shell_db.t)
    ~(serial : Serialopt.Optimizer.options) ~(pdw : Pdwopt.Enumerate.opts)
    ~(baseline : Baseline.opts) ~(via_xml : bool) ~(seed_collocated : bool)
    (normalized : Algebra.Relop.t) : string =
  let fopt = function None -> "-" | Some f -> Printf.sprintf "%h" f in
  let iopt = function None -> "-" | Some i -> string_of_int i in
  String.concat "|"
    [ Printf.sprintf "v7;nodes=%d;stats=%d"
        (Catalog.Shell_db.node_count shell)
        (Catalog.Shell_db.stats_version shell);
      Printf.sprintf "serial=%d,%b,%b" serial.Serialopt.Optimizer.task_budget
        serial.Serialopt.Optimizer.enable_merge_join
        serial.Serialopt.Optimizer.enable_stream_agg;
      Printf.sprintf "pdw=%d,%b,%b,%d,%b,[%s],%s" pdw.Pdwopt.Enumerate.nodes
        pdw.Pdwopt.Enumerate.serial_tiebreak pdw.Pdwopt.Enumerate.prune
        pdw.Pdwopt.Enumerate.max_options_per_group
        pdw.Pdwopt.Enumerate.fold_empty
        (String.concat ";" (List.map hint pdw.Pdwopt.Enumerate.hints))
        (lambdas pdw.Pdwopt.Enumerate.lambdas);
      Printf.sprintf "base=%d,%s" baseline.Baseline.nodes
        (lambdas baseline.Baseline.lambdas);
      Printf.sprintf "xml=%b;seed=%b" via_xml seed_collocated;
      Printf.sprintf "gov=%s,%s,%s"
        (fopt governor.Governor.deadline)
        (fopt governor.Governor.sim_deadline)
        (iopt governor.Governor.max_memo_groups);
      tree normalized ]
