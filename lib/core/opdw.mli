(** opdw — an OCaml reproduction of the Microsoft SQL Server PDW query
    optimizer (SIGMOD 2012): the public, one-call API over the full
    pipeline of the paper's Fig. 2.

    {v
    SQL text --(PDW parser)--> AST --(algebrizer + simplification)--> logical tree
      --(serial Cascades optimizer)--> MEMO --(XML export/import)-->
      --(PDW bottom-up optimizer + DMS cost model)--> parallel plan
      --(DSQL generation)--> DSQL steps --(appliance)--> results
    v}

    See the library modules for the pieces: {!Sqlfront} (parser),
    {!Algebra} (algebrizer/normalizer/cardinality), {!Memo} (the MEMO and
    its XML interchange), {!Serialopt} (serial optimizer), {!Dms}
    (distribution properties, the 7 movements, the λ cost model),
    {!Pdwopt} (the paper's contribution), {!Dsql} (DSQL generation),
    {!Engine} (the simulated appliance), {!Tpch} and {!Baseline}. *)

(** The typed pipeline stage abstraction; see {!Stage}. *)
module Stage = Stage

(** The bounded LRU plan cache and its fingerprinting; see {!Plancache}. *)
module Plancache = Plancache

(** The feedback library (observation log, miss analysis, λ re-fit, LKG
    plan store) — re-exported under {!Driver} and {!Feedback} below. *)
module Fbk = Feedback

(** Pipeline configuration. *)
type options = {
  serial : Serialopt.Optimizer.options;
      (** serial exploration (task budget = the paper's timeout, §3.1) *)
  pdw : Pdwopt.Enumerate.opts;
      (** node count, λ constants, pruning, hints (Fig. 4 / §3.3) *)
  baseline : Baseline.opts;
  via_xml : bool;
      (** ship the MEMO through its XML encoding, as the real system does *)
  seed_collocated : bool;
      (** §3.1: seed the MEMO with distribution-aware join orders, useful
          under a small exploration budget *)
  governor : Governor.limits;
      (** statement deadline (wall seconds), execution deadline (simulated
          seconds, interpreted by {!Driver}), and memo-size budget;
          {!Governor.no_limits} by default. Part of the plan-cache
          fingerprint. *)
}

(** Defaults for an appliance with [node_count] compute nodes: full
    exploration budget, XML interchange on, pruning on, no seeding, no
    governor limits. *)
val default_options : node_count:int -> options

(** [resolve_options shell o]: [o], or {!default_options} for [shell]'s
    node count — the one place an omitted [?options] is resolved. *)
val resolve_options : Catalog.Shell_db.t -> options option -> options

(** How a returned plan was degraded by governor pressure. The ladder is
    cached → full → [Anytime] → [Fallback] → rejected: [Anytime] plans are
    the best found in a truncated serial search; [Fallback] plans are the
    §3.2 baseline (best serial plan, greedily parallelized) produced when
    the PDW enumeration itself was interrupted. Either way the plan passed
    the {!Check} analyzer (unconditionally — even when [check:false]) and
    executes to correct rows; it is just potentially slower than the
    full-search plan, and is never admitted to the plan cache. *)
type degradation = Anytime | Fallback

val degradation_to_string : degradation -> string

(** Everything the pipeline produced, from AST to DSQL plan. *)
type result = {
  query : Sqlfront.Ast.query;
  algebrized : Algebra.Algebrizer.result;
  normalized : Algebra.Relop.t;
  serial : Serialopt.Optimizer.result;
  memo_xml : string option;        (** the interchange XML (when [via_xml]) *)
  memo : Memo.t;                   (** the MEMO the PDW side optimized *)
  pdw : Pdwopt.Optimizer.result;
  dsql : Dsql.Generate.plan;
  baseline_plan : Pdwopt.Pplan.t option;
      (** the §3.2 strawman: the best serial plan, parallelized greedily *)
  fingerprint : string option;
      (** the plan-cache key this result was filed under (when [optimize]
          was given a cache) — {!run} evicts it if the appliance rejects
          the plan *)
  degraded : degradation option;
      (** [Some _] when governor pressure truncated optimization; degraded
          plans still pass the {!Check} analyzer and are never cached *)
}

(** The compiled pipeline tail a plan-cache entry memoizes: everything
    downstream of normalization (serial MEMO, interchange XML, PDW result,
    DSQL plan, baseline plan). *)
type compiled_tail = {
  c_serial : Serialopt.Optimizer.result;
  c_memo_xml : string option;
  c_memo : Memo.t;
  c_pdw : Pdwopt.Optimizer.result;
  c_dsql : Dsql.Generate.plan;
  c_baseline : Pdwopt.Pplan.t option;
}

(** A plan cache usable across queries (and across domains — operations
    are mutex-guarded). Keyed by {!Plancache.fingerprint}: the canonical
    normalized tree plus node count, option knobs, hints, λ constants and
    the shell's statistics version. *)
type cache = compiled_tail Plancache.t

(** [cache ()] builds an empty plan cache (default capacity 128 entries,
    LRU eviction). *)
val cache : ?capacity:int -> unit -> cache

(** A statement after the explore half of the pipeline: everything the
    paper's SQL Server process does before the MEMO crosses to PDW (§3,
    Fig. 2). None of it reads a distribution key, except the §3.1
    collocated seeding when [seed_collocated] is on, so one explored
    statement can be {!place}d on any shell that differs from the one it
    was explored on only in distribution keys. *)
type explored = {
  e_options : options;
      (** the [options] it was explored with, the statement's hints
          applied (FORCE ORDER in [serial], BROADCAST / SHUFFLE in [pdw]) *)
  e_query : Sqlfront.Ast.query;
  e_algebrized : Algebra.Algebrizer.result;
  e_normalized : Algebra.Relop.t;
  e_serial : Serialopt.Optimizer.result;
  e_memo_xml : string option;      (** the interchange XML (when [via_xml]) *)
  e_memo : Memo.t;                 (** the MEMO the place half enumerates *)
  e_empty : (int -> bool) option;
      (** groups the analyzer proved empty (when [fold_empty] is on) *)
}

(** The explore half: parse, hint handling, algebrize, normalize, serial
    exploration, the optional XML round trip and the analyzer's
    empty-group pass, sequentially and without instrumentation.
    [options.governor.max_memo_groups] cuts the exploration as in
    {!optimize}; a wall deadline in [options.governor] is armed only by
    {!optimize}. *)
val explore : options:options -> Catalog.Shell_db.t -> string -> explored

(** The place half: the §3.2 baseline, the PDW enumeration, DSQL
    generation and the static check, all on [shell], sequentially and
    without instrumentation. The enumeration runs on the explored MEMO rebound to [shell]
    with a forked registry, so placing never changes the explored
    statement: it may be placed any number of times, on shells with
    different distribution keys, and each placement equals
    [optimize ~options:e.e_options shell sql] bit for bit (cost, plan and
    DSQL text). Degradation and the fallback behave as in {!optimize};
    [fingerprint] is [None]. *)
val place : Catalog.Shell_db.t -> explored -> result

(** Run the full optimization pipeline on a SQL string against a shell
    database: {!place} on [shell] after {!explore} on [shell], one code
    path. Raises {!Sqlfront.Parser.Parse_error},
    {!Algebra.Algebrizer.Unsupported} / [Resolve_error], or
    {!Pdwopt.Optimizer.No_plan} on invalid input.

    Pass an enabled [obs] context ({!Obs.create}) to collect a per-stage
    span tree (parse, algebrize, normalize, serial_optimize, memo_xml,
    analyze, baseline_parallelize, pdw_optimize, dsql_generate, check)
    with each stage's counters; the default {!Obs.null} makes
    instrumentation free.

    Pass a [cache] to memoize the compiled tail: a fingerprint hit skips
    serial exploration, the XML interchange, PDW enumeration, DSQL
    generation and baseline parallelization, returning the previously
    compiled plans. The fingerprint is the normalized tree, [options] and
    [shell]'s node count and [stats_version]; every catalog change
    (statistics, a calibration, a derived shell after a decommission or a
    topology move) raises the version, so stale plans miss. Reports
    [plancache.hit] / [plancache.miss] / [plancache.evict] counters into
    [obs].

    [check] (default [true]) runs the {!Check} static analyzer over the
    chosen plan and its DSQL steps (a [check] stage after [dsql_generate])
    and raises {!Check.Invalid} if any invariant is violated — an
    optimizer bug surfaces as an error instead of silently wrong rows.
    Cached tails were validated when first compiled, so a cache hit does
    not re-run the analyzer (an invalid plan raises before admission, so
    a poisoned tail is never cached here; {!run} evicts entries the
    appliance rejects at execution time).

    [token] threads cooperative cancellation through serial exploration
    and the PDW enumeration. With [options.governor.deadline] set, a
    wall-clock deadline is armed on it here (on a fresh token when the
    caller passed none). A cut during serial search degrades the result
    to [Anytime]; a cut during PDW enumeration degrades to the [Fallback]
    baseline plan; if no fallback exists, {!Governor.Cancelled}
    propagates. Degraded results are tagged in [degraded], validated by
    {!Check} unconditionally, and never cached.

    [pool] parallelizes compilation itself: serial exploration's rule
    matching and the PDW enumeration's leveled wavefront both fan out on
    it. The chosen plan — fingerprint, costs, DSQL text — is bit-identical
    at any pool size (default: the shared sequential pool). *)
val optimize :
  ?obs:Obs.t -> ?options:options -> ?cache:cache -> ?check:bool ->
  ?token:Governor.token -> ?pool:Par.t ->
  Catalog.Shell_db.t -> string -> result

(** The chosen distributed plan (rooted at the final Return operation). *)
val plan : result -> Pdwopt.Pplan.t

(** Human-readable explanation: the parallel plan tree plus the DSQL steps
    (paper Fig. 7 style). *)
val explain : result -> string

(** Execute the chosen plan on an appliance as one statement; returns the
    client result. Byte/time accounting accumulates in the appliance's
    account. The statement's state is passed as values and forwarded to
    {!Engine.Appliance.run_pplan}: with [obs], per-DMS-op and per-node
    executor counters are recorded under an [execute] span; [token] is
    polled once per injectable step; [observe] sees every executed
    Serial/Move operator with its observed global rows, in plan order.
    Nothing is left armed on the appliance afterwards, whether the
    statement returns or raises. With [cache], a plan the appliance's
    {!Check} gate refuses is evicted from the cache (counter
    [plancache.evictions_invalid]) before {!Check.Invalid} propagates. *)
val run :
  ?obs:Obs.t -> ?cache:cache -> ?token:Governor.token ->
  ?observe:(Pdwopt.Pplan.t -> float -> unit) ->
  Engine.Appliance.t -> result -> Engine.Local.rset

(** Execute the parallelized-best-serial baseline plan, if one exists. *)
val run_baseline : Engine.Appliance.t -> result -> Engine.Local.rset option

(** Single-node reference execution of the best serial plan (the
    correctness oracle). *)
val run_reference : Engine.Appliance.t -> result -> Engine.Local.rset option

(** The query's output columns: (display name, registry column id). *)
val output_columns : result -> (string * int) list

(** The [--assert-bounds] oracle over [r]'s plan: an observer for {!run}'s
    [observe] hook that checks every executed operator's observed rows
    against the static [lo, hi] bounds the abstract interpreter derives
    for it on the shell the plan was placed on ({!Check.bounds_observer}),
    and the number of violations seen so far. *)
val bounds_oracle :
  ?obs:Obs.t -> result -> (Pdwopt.Pplan.t -> float -> unit) * (unit -> int)

(** Whether a served answer [(r, rows)] for statement [id] equals the
    statement's oracle rows ({!Workload.oracle}). *)
type oracle = string -> result -> Engine.Local.rset -> bool

(** The one statement driver (DESIGN.md §9): the control node's path for
    every served statement. {!Driver.run} applies the driver's policies
    in this order: the admission gate and the circuit breaker; a fresh
    token (wall deadline armed by {!optimize}, simulated deadline before
    the first execution); {!optimize} through the plan cache; LKG
    resolution when a plan store is attached; execution under the exec
    mutex through the feedback harvest; on a node crash, decommission and
    compile again on the survivors, up to [max_replans]; the log record
    and the store observation.

    The appliance account is cumulative and belongs to the caller: a
    statement's [observed_sim], [observed_dms], log [r_sim] and [r_dms]
    are the deltas across it, so a caller that wants them measured from
    zero calls {!Driver.reset} first. *)
module Driver : sig
  type t

  (** [create shell app] serves on [app], whose catalog is [shell]; every
      policy is an argument. [cache], [options] (default for [shell]'s
      node count) and [check] (default [true]) go to {!optimize}. At most
      [max_concurrent] (default 4) statements are in flight, [queue_limit]
      (default 16) more queued FIFO. [breaker_threshold] (default 3, [<= 0]
      disables) consecutive hard failures of one statement open its
      breaker for [breaker_cooldown] (default 1.0) {e simulated} seconds.
      Passing [regress_factor] or [streak_limit] attaches the LKG plan
      store with those hysteresis thresholds (defaults 1.2 and 2), and a
      plan cache if [cache] is absent (fingerprints key the store).
      [miss_threshold] (default 2.0) and [refine_buckets] (default 64) are
      {!Feedback.calibrate}'s. [log] (default fresh) receives the harvest.
      [fault] is armed on the serving appliance at every attempt (default:
      the appliance's own plan stays); [max_replans] (default 8) bounds
      node-crash recoveries per statement. *)
  val create :
    ?cache:cache -> ?options:options -> ?check:bool ->
    ?max_concurrent:int -> ?queue_limit:int ->
    ?breaker_threshold:int -> ?breaker_cooldown:float ->
    ?regress_factor:float -> ?streak_limit:int ->
    ?miss_threshold:float -> ?refine_buckets:int -> ?log:Fbk.Log.t ->
    ?fault:Fault.plan -> ?max_replans:int ->
    Catalog.Shell_db.t -> Engine.Appliance.t -> t

  (** The serving appliance (a decommission or a committed move replaces
      it), its catalog, and the options statements compile under (node
      count following {!app}; {!Feedback.calibrate} installs λs). *)
  val app : t -> Engine.Appliance.t
  val shell : t -> Catalog.Shell_db.t
  val options : t -> options
  val nodes : t -> int

  (** The serving appliance's replan epoch: decommissions and committed
      moves so far. *)
  val epoch : t -> int

  val cache : t -> cache option
  val gate : t -> Governor.Gate.t
  val breaker : t -> Governor.Breaker.t
  val store : t -> result Fbk.Store.t option
  val log : t -> Fbk.Log.t
  val max_replans : t -> int

  (** Switch to a replacement appliance (a decommission's result or a
      committed move's target), with its catalog and node count. *)
  val install : t -> Engine.Appliance.t -> unit

  (** Arm the driver's fault plan, if it has one, on {!app}. *)
  val arm : t -> unit

  (** [replan t ~replans failure] recovers from the node crash
      [failure]: decommission the dead node (under a [fault.replan] span)
      and {!install} the survivors. Raises {!Fault.Exhausted} when no node
      would survive or [replans] reached [max_replans]. *)
  val replan : ?obs:Obs.t -> t -> replans:int -> Fault.failure -> unit

  (** The per-statement key of the plan store, the circuit breaker and
      the workload log: the SQL text trimmed, and otherwise unchanged,
      so replaying it runs exactly the statement that ran. *)
  val statement_key : string -> string

  (** A statement that returned rows. *)
  type served = {
    res : result;             (** the result executed (the LKG on fallback) *)
    rows : Engine.Local.rset;
    observed_sim : float;     (** simulated seconds of this statement *)
    observed_dms : float;     (** DMS portion of [observed_sim] *)
    fellback : bool;          (** the compiled plan was quarantined; the LKG ran *)
    store_outcome : Fbk.Store.outcome option;  (** [None] without a plan store *)
  }

  (** Every way a statement can come back; only [Returned] carries rows. *)
  type outcome =
    | Returned of served
    | Rejected of Governor.Gate.rejection   (** admission queue overflow *)
    | Shed of { retry_after : float }       (** circuit breaker open *)
    | Timed_out of Governor.reason          (** deadline/cancel *)
    | Exhausted of { failure : Fault.failure; attempts : int }
        (** a retry or replan budget was spent ({!Fault.Exhausted}) *)
    | Invalid of Check.violation list       (** plan refused by {!Check} *)

  (** The one rendering of an outcome, e.g. [timed_out(deadline)]. *)
  val outcome_to_string : outcome -> string

  (** The served statement, or the refusal raised as the exception the
      pipeline signals it with: {!Fault.Exhausted}, {!Check.Invalid},
      {!Governor.Cancelled}, {!Governor.Gate.Rejected}; a breaker shed
      raises [Failure]. *)
  val returned : outcome -> served

  (** Serve one statement through every policy, in the order above. Safe
      to call from several domains: compilation overlaps up to the gate
      width, execution on the shared appliance is serialized. Hard
      failures ([Exhausted]/[Invalid]) count against the statement's
      breaker; deadline trips do not. [observe] sees the first attempt's
      executed operators (a replanned attempt runs a different plan).
      Counters: [feedback.fallbacks] / [feedback.regressions] /
      [feedback.quarantines], [fault.replan_statements]. *)
  val run :
    ?obs:Obs.t -> ?observe:(Pdwopt.Pplan.t -> float -> unit) -> t -> string ->
    outcome

  (** The one shared per-iteration metric reset: the appliance account
      (sim clock, DMS samples, [fault.*] tallies) plus the gate and
      breaker counters. Breaker open/closed states survive. *)
  val reset : t -> unit

  (** The outcome accounting of a served storm: of [statements]
      outcomes, [returned] answered with rows ([degraded] of them from a
      plan governor pressure degraded, [wrong] of them differing from the
      oracle's rows) and the rest were refusals, counted by kind. *)
  type tally = {
    statements : int; returned : int; degraded : int; wrong : int;
    rejected : int; shed : int; timed_out : int; exhausted : int; invalid : int;
    misses : (string * outcome) list;
        (** [(id, outcome)] of every statement that did not return oracle
            rows (the refusals and the wrong-row answers), in storm order *)
  }

  (** Tally [(id, outcome)] pairs, every returned answer checked against
      [oracle]. *)
  val tally : oracle:oracle -> (string * outcome) list -> tally

  (** Serve the [(id, sql)] statements concurrently on [pool], each
      through {!run}, after a {!reset}; never raises for a refusal. *)
  val storm : pool:Par.t -> oracle:oracle -> t -> (string * string) list -> tally
end

(** The calibration side of the feedback loop (DESIGN.md §9): a
    {!Driver} harvests observed per-operator cardinalities and
    per-DMS-component (bytes, seconds) samples into its log, and
    {!Feedback.calibrate} folds that log back into the catalog (histogram
    refinement for columns missed by more than the threshold; λ re-fit
    from observed DMS volumes) and touches the shell, which re-keys every
    fingerprint. All of it is deterministic: the same feedback log and
    seed yield bit-identical refined statistics and plans at any
    [--jobs]. *)
module Feedback : sig
  (** Observation records and their bit-exact text persistence. *)
  module Log = Fbk.Log

  (** Which columns the optimizer's estimates missed on. *)
  module Misses = Fbk.Misses

  (** λ re-fitting from logged DMS volumes. *)
  module Lambda = Fbk.Lambda

  (** The generic LKG plan store (hysteresis / quarantine / fallback). *)
  module Store = Fbk.Store

  (** Symmetric model-vs-sim cost error of one executed plan, always
      >= 1: predicted DMS cost vs the DMS seconds the appliance charged. *)
  val model_error : result -> dms_time:float -> float

  (** The feedback harvest of one executed result: an observer for
      {!Opdw.run}'s [observe] hook that records every executed Serial
      operator's estimated vs observed global rows (with the columns its
      predicates/keys constrain, mapped to catalog names via the result's
      registry), and a function returning the observations recorded so
      far, in plan order. The observer forwards every call to [observe].
      {!Driver.run} harvests through it. *)
  val harvest :
    ?observe:(Pdwopt.Pplan.t -> float -> unit) -> result ->
    (Pdwopt.Pplan.t -> float -> unit) * (unit -> Fbk.Log.op_obs list)

  (** One statement's {!model_error}, served through the driver from a
      zeroed account ({!Driver.reset}), a refusal raised
      ({!Driver.returned}). With [bounds] (default [false]) the statement
      is first compiled through the driver's cache to derive the
      analyzer's static cardinality bounds ({!bounds_oracle}) and every
      executed operator is checked against them; the second component
      counts the violations (0 without [bounds]). *)
  val measure : ?bounds:bool -> Driver.t -> string -> float * int

  type calibration = {
    refined : Fbk.Misses.miss list;  (** columns whose statistics were rebuilt *)
    lambdas : Dms.Cost.lambdas;      (** the re-fitted λ table now in force *)
    fits : Fbk.Lambda.fit list;      (** per-component fit quality *)
    new_epoch : int;                 (** calibrations of this driver so far *)
  }

  (** Fold the driver's log back into the catalog: refine statistics of
      every column whose estimates missed by more than the driver's
      [miss_threshold] (full-resolution rebuild from the true shards —
      widening-only, so R11 analysis bounds stay sound), re-fit λs from
      observed DMS volumes, install them in the driver's options, and
      {!Catalog.Shell_db.touch} the shell (so every statement recompiles
      on its next run, even when nothing was refined). A pure function of
      the log: the same log yields bit-identical refined stats and λs at
      any [--jobs]. *)
  val calibrate : ?obs:Obs.t -> Driver.t -> calibration
end

(** Batteries-included workload setup. *)
module Workload : sig
  type t = {
    shell : Catalog.Shell_db.t;
    app : Engine.Appliance.t;
    db : Tpch.Datagen.db;
  }

  (** A TPC-H appliance: deterministic generated data at scale factor [sf]
      loaded onto [node_count] simulated nodes, with global statistics
      computed the PDW way — per-node local statistics merged into the
      shell database (paper §2.2). [engine] selects the per-node executor
      (default [Row]); shard contents, statistics, and the simulated clock
      are identical either way. *)
  val tpch :
    ?node_count:int -> ?sf:float -> ?engine:Engine.Rset.engine -> unit -> t

  (** The fault-free, ungoverned oracle of the distinct ids among
      [(id, sql)] statements: each compiled under {!default_options} for
      [w]'s node count and executed on [w]'s appliance, sequentially, from
      a zeroed account. Answers compare on {!Engine.Local.canonical} over
      the output columns. Build it before arming a fault plan on [w]. *)
  val oracle : t -> (string * string) list -> oracle
end
