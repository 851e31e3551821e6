(** A bounded, mutex-guarded LRU cache for compiled plans, keyed by the
    normalized logical tree, the optimizer options and the shell's
    identity, with a second kind of entry keyed by the statement text.

    The paper's appliance re-optimizes every statement from scratch; under
    a repeated-query stream (the north-star workload) that wastes the
    dominant share of compile time on exact repeats. The cache lets
    {!Opdw.optimize} skip the serial MEMO exploration, XML interchange,
    PDW enumeration, DSQL generation and baseline parallelization
    entirely when an identical (tree, knobs, statistics) triple was
    compiled before. A {e statement entry} goes one step further back:
    it maps a statement's text (with the same knobs and statistics) to
    its front-end outputs and its tree fingerprint, so a repeated text
    also skips parse, algebrize, normalize and the fingerprint itself.

    {b Key / invalidation rules} (also DESIGN.md §2): the keys are derived
    from the values, not rendered by hand ({!fingerprint}, {!statement}):
    - the options record and the normalized algebra tree (for a statement
      entry: the options the caller passed and the {!statement_key} of the
      text), marshalled without sharing — every field is encoded, so a
      knob added to the options later is part of the key with no one
      remembering to add it, and literals that print alike ([2] and
      [2.0], [0.04999999] and [0.05]) key apart. The options are plain
      data: [Marshal] raises on a closure, so a knob that held a function
      would fail loudly;
    - the shell's node count and [stats_version], bumped on every catalog
      change and raised in every derived shell (decommission, topology
      move) — catalog changes invalidate by missing, not by flushing.

    A statement entry is trusted only while the tail its fingerprint
    names is in the same cache ({!find_statement}): a tail removed by
    {!remove_invalid}, {!note_degraded} or LRU eviction takes its
    statement entries with it, lazily. Both kinds share the capacity and
    the LRU order, in which a statement entry stays older than its tail.

    Keys are the full payload (no hashing), so false hits are impossible
    by construction. All operations take an internal mutex, so one cache
    may serve concurrent domains. *)

type 'a entry = { mutable last_use : int; value : 'a }

(* a statement entry: the front-end outputs and the key of their tail *)
type 's statement = { fingerprint : string; front : 's }

type ('a, 's) t = {
  capacity : int;
  table : (string, 'a entry) Hashtbl.t;
  statements : (string, 's statement entry) Hashtbl.t;
  mutex : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable evictions_invalid : int;
  mutable evictions_degraded : int;
}

type stats = {
  size : int;   (** entries of both kinds *)
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
  { capacity = max 1 capacity; table = Hashtbl.create 64;
    statements = Hashtbl.create 64; mutex = Mutex.create ();
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

(* capacity is small (default 128): a linear scan over both kinds for
   the LRU victim keeps the structure two plain hashtables instead of an
   intrusive list. The tail under [keep] is never the victim. *)
let evict_lru ?keep t =
  let victim = ref None in
  let consider table k last_use =
    match !victim with
    | Some (_, _, lu) when lu <= last_use -> ()
    | _ -> victim := Some (table, k, last_use)
  in
  Hashtbl.iter
    (fun k e ->
       match keep with
       | Some kept when String.equal k kept -> ()
       | _ -> consider `Tail k e.last_use)
    t.table;
  Hashtbl.iter (fun k e -> consider `Statement k e.last_use) t.statements;
  match !victim with
  | Some (table, k, _) ->
    (match table with
     | `Tail -> Hashtbl.remove t.table k
     | `Statement -> Hashtbl.remove t.statements k);
    t.evictions <- t.evictions + 1;
    true
  | None -> false

let full t = Hashtbl.length t.table + Hashtbl.length t.statements >= t.capacity

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
    let evicted = if full t then evict_lru t else false in
    Hashtbl.replace t.table key { last_use = t.tick; value = v };
    evicted

(** [find_statement t key] returns the front filed under the statement
    [key], its fingerprint and the tail under that fingerprint, marks
    both entries most recently used and counts a hit. A statement entry
    whose tail is gone is dropped. Neither that nor an absent key counts
    a miss: the caller goes on to the front end and {!find}. *)
let find_statement t key =
  with_lock t @@ fun () ->
  match Hashtbl.find_opt t.statements key with
  | None -> None
  | Some s ->
    (match Hashtbl.find_opt t.table s.value.fingerprint with
     | None ->
       Hashtbl.remove t.statements key;
       None
     | Some e ->
       (* the tail stays the more recent of the two (see [add_statement]) *)
       t.tick <- t.tick + 2;
       s.last_use <- t.tick - 1;
       e.last_use <- t.tick;
       t.hits <- t.hits + 1;
       Some (s.value.front, s.value.fingerprint, e.value))

(** [add_statement t key ~fingerprint front] files [front] under the
    statement [key], to be served with the tail under [fingerprint],
    which the caller has just admitted or hit. Makes room like {!add},
    but never by evicting that tail: when nothing else can go (capacity
    1) the entry is not added. Returns [true] when an entry was
    evicted. *)
let add_statement t key ~fingerprint front =
  with_lock t @@ fun () ->
  let room = Hashtbl.mem t.statements key || not (full t) in
  let evicted = (not room) && evict_lru ~keep:fingerprint t in
  if room || evicted then begin
    t.tick <- t.tick + 2;
    Hashtbl.replace t.statements key { last_use = t.tick - 1; value = { fingerprint; front } };
    (* the tail stays the more recent of the two, so under pressure the
       statement entry, cheap to rebuild, goes before the tail it names *)
    Option.iter (fun e -> e.last_use <- t.tick) (Hashtbl.find_opt t.table fingerprint)
  end;
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
  { size = Hashtbl.length t.table + Hashtbl.length t.statements;
    capacity = t.capacity; hits = t.hits; misses = t.misses; evictions = t.evictions;
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
  Hashtbl.reset t.statements;
  t.tick <- 0

(* -- the keys -- *)

(** A statement's identity, shared by the statement entries here, the
    circuit breaker, the plan store and the workload log: the text
    trimmed and otherwise unchanged, so replaying it runs exactly the
    statement that ran. It is not case-folded: a literal's case is part
    of the statement, and only the lexer knows where literals are. *)
let statement_key sql = String.trim sql

let shell_prefix shell =
  Printf.sprintf "%d;%d;" (Catalog.Shell_db.node_count shell)
    (Catalog.Shell_db.stats_version shell)

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
  shell_prefix shell ^ Marshal.to_string (options, normalized) [ Marshal.No_sharing ]

(** The statement-entry key, derived like {!fingerprint} from [shell]'s
    node count and [stats_version], then [options] as the caller passed
    them (before the statement's hints are merged) and the
    {!statement_key} of [sql]. The front end is a pure function of the
    text and the catalog, so the same lineage assumption covers it. *)
let statement ~(shell : Catalog.Shell_db.t) (options : 'options) (sql : string) : string =
  shell_prefix shell
  ^ Marshal.to_string (options, statement_key sql) [ Marshal.No_sharing ]
