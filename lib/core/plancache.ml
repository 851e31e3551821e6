(** A bounded, mutex-guarded LRU cache for compiled plans, keyed by the
    normalized logical tree, the optimizer options and the shell's
    identity.

    The paper's appliance re-optimizes every statement from scratch; under
    a repeated-query stream (the north-star workload) that wastes the
    dominant share of compile time on exact repeats. The cache lets
    {!Opdw.optimize} skip the serial MEMO exploration, XML interchange,
    PDW enumeration, DSQL generation and baseline parallelization
    entirely when an identical (tree, knobs, statistics) triple was
    compiled before.

    {b Key / invalidation rules} (also DESIGN.md §2): the key is derived
    from the values, not rendered by hand ({!fingerprint}):
    - the options record and the normalized algebra tree, marshalled
      without sharing — every field is encoded, so a knob added to the
      options later is part of the key with no one remembering to add it,
      and literals that print alike ([2] and [2.0], [0.04999999] and
      [0.05]) key apart. The options are plain data: [Marshal] raises on a
      closure, so a knob that held a function would fail loudly;
    - the shell's node count and [stats_version], bumped on every catalog
      change and raised in every derived shell (decommission, topology
      move) — catalog changes invalidate by missing, not by flushing.

    Keys are the full payload (no hashing), so false hits are impossible
    by construction. All operations take an internal mutex, so one cache
    may serve concurrent domains. *)

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

(* -- the key -- *)

(** The cache key for one optimization request: [shell]'s node count and
    [stats_version], then [options] and the [normalized] tree as [Marshal]
    bytes. A plan is a pure function of these (paper §2.2: the shell is
    all the compiler sees of the appliance). Every catalog change raises
    the version: statistics updates, a feedback calibration
    ({!Catalog.Shell_db.touch}), and the new shell that a decommission or
    a topology move {!Catalog.Shell_db.derive}s, whose version starts
    above its source's, so along one appliance's lineage no two layouts
    share a version. [No_sharing] makes the bytes a function of the
    values alone, not of how they happen to share memory. *)
let fingerprint ~(shell : Catalog.Shell_db.t) (options : 'options)
    (normalized : Algebra.Relop.t) : string =
  Printf.sprintf "%d;%d;" (Catalog.Shell_db.node_count shell)
    (Catalog.Shell_db.stats_version shell)
  ^ Marshal.to_string (options, normalized) [ Marshal.No_sharing ]
