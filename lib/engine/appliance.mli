(** The simulated PDW appliance: a control node plus N compute nodes, each
    holding hash-partitioned or replicated table shards and running the
    {!Local} (row) or {!Batch} (columnar) executor; a DMS runtime routes
    rows between nodes with byte accounting and a simulated clock (paper
    §2.1-§2.4).

    Time is simulated from "true" per-component hardware characteristics
    that are deliberately richer than the optimizer's linear cost model
    (per-byte rate + per-row overhead + fixed setup): calibration (paper
    §3.3.3) fits the model's lambdas against measurements produced here.

    The simulated clock and all DMS accounting are computed from (bytes,
    rows) volumes and operator cardinalities only, so they are
    bit-identical across engines and at any domain-pool width. *)

type rows = Catalog.Value.t array list

(** "True" hardware characteristics of the simulated appliance. *)
type hw = {
  reader_byte : float; reader_row : float;
  hash_extra_byte : float;               (** extra reader cost when hashing *)
  network_byte : float; network_row : float;
  writer_byte : float; writer_row : float;
  blkcpy_byte : float; blkcpy_row : float; blkcpy_fixed : float;
  serial_unit : float;  (** seconds per unit of {!Serialopt.Cost} work *)
}

val default_hw : hw

(** Per-statement accounting: simulated time, data movement, calibration
    samples, and the fault plane's counters. *)
type account = {
  mutable sim_time : float;         (** simulated response time, seconds *)
  mutable dms_time : float;         (** portion spent in DMS steps *)
  mutable bytes_moved : float;      (** bytes that crossed the network *)
  mutable rows_moved : float;
  mutable moves : int;
  mutable samples : Dms.Calibrate.sample list;
      (** calibration samples, newest first: each DMS move pushes one per
          node and cost component that processed bytes, its seconds the
          same per-node time the clock's maxima take. A statement's
          samples are the prefix above the list it started from. *)
  mutable injected : int;           (** faults that fired (stragglers included) *)
  mutable retries : int;            (** step re-executions after a failure *)
  mutable recovered : int;          (** steps that eventually succeeded *)
  mutable replans : int;            (** node losses escalated to re-optimization *)
  mutable backoff_time : float;     (** simulated seconds spent backing off *)
}

type t = {
  shell : Catalog.Shell_db.t;
  nodes : int;
  hw : hw;
  storage : (string, Rset.t) Hashtbl.t array;
  engine : Rset.engine;
  account : account;
  mutable pool : Par.t;
  mutable check : bool;
  mutable epoch : int;
  mutable step_no : int;
}

val create :
  ?hw:hw -> ?pool:Par.t -> ?check:bool -> ?engine:Rset.engine ->
  Catalog.Shell_db.t -> t

(** Attach a domain pool for multicore shard execution (typically one pool
    per process, shared across appliances). *)
val set_pool : t -> Par.t -> unit

(** Enable/disable the {!Check} execution gate (on by default). *)
val set_check : t -> bool -> unit

val reset_account : t -> unit

(** Start a new statement: step numbering restarts at 0 so explicit fault
    schedules address steps of each statement independently. A move's
    copy and flip steps are not a statement: they continue the source
    appliance's count. *)
val begin_statement : t -> unit

(** Routing hash shared by initial loading and shuffles (and by both
    engines — see {!Rset.route_hash}). *)
val route_hash : Catalog.Value.t list -> int

(** Load a table from rows (row-major storage), partitioning or
    replicating per the shell layout. *)
val load_table : t -> string -> rows -> unit

(** Load a table from a column-major payload (columnar storage). *)
val load_table_cols : t -> string -> Catalog.Column.table -> unit

(** One node's shard as stored (row- or column-major, as it was loaded).
    Raises {!Local.Exec_error} for a table never loaded. *)
val node_rset : t -> int -> string -> Rset.t

(** One node's shard as rows (converting if stored columnar). *)
val node_table : t -> int -> string -> rows

(** The whole logical contents of a table as one payload: node 0's copy of
    a replicated table, a hash-distributed table's shards concatenated in
    node order, [None] for a table never loaded. The one reader of a
    whole table: topology copy steps, the single-node oracle and the
    feedback re-sampler all use it. *)
val table_contents : t -> string -> Rset.t option

(** A distributed intermediate result (paper §2.1, §2.4): its payloads
    sit where its distribution property says.
    - [Hashed _]: [parts] holds one payload per compute node;
    - [Replicated]: every compute node's slot holds the same payload;
    - [Single_node]: [parts] holds the one payload on the control node.

    Every DMS move reads only the slots its input distribution fills
    ({!Dms.Op.output_dist}), so no slot is ever a placeholder. *)
type dstream = {
  layout : int list;
  dist : Dms.Distprop.t;
  parts : Rset.t array;
}

(** [stream t ~layout dist payloads] is the stream of [dist] over
    [payloads]: one per compute node for a hashed stream, otherwise one
    (shared by every node when replicated). Raises [Invalid_argument] for
    any other count. *)
val stream : t -> layout:int list -> Dms.Distprop.t -> Rset.t array -> dstream

(** [shard_exec t ~read_table op inputs] runs one operator of one shard
    on the appliance's engine (the one place the engine choice is read
    on the execution path): [read_table] supplies the shard's base
    tables, [inputs] the operator's children, converted to the engine's
    representation as needed. [stats] collects executor counters; [need]
    names the columns the consumer reads (the columnar engine skips the
    rest). *)
val shard_exec :
  t -> ?stats:Local.exec_stats -> ?need:Algebra.Registry.Col_set.t ->
  read_table:(string -> Rset.t) -> Memo.Physop.t -> Rset.t list -> Rset.t

(** Where a fault draw lands: the plan, the appliance's replan epoch, and
    the injectable step and attempt being executed. {!with_recovery} hands
    one to each attempt of its body. *)
type draw = { plan : Fault.plan; epoch : int; step : int; attempt : int }

(** Draw [d]'s plan at a node-less injection site; raises a step failure
    when the draw fires. An injected fault is counted in the account and
    in [obs]. *)
val inject_point : ?obs:Obs.t -> t -> draw -> Fault.site -> unit

(** Run [f] as the appliance's next injectable step, with step-level
    recovery: [f] receives the step's {!draw} under [fault] (default
    {!Fault.none}); transient step failures re-execute [f] at the next
    attempt (with simulated backoff accounting) up to {!Fault.retries}
    times; node crashes escalate. [on_retry] runs before each retry.
    [token] (default {!Governor.none}) is polled before the step, in the
    caller domain; [obs] receives the [fault.*] counters. *)
val with_recovery :
  ?on_retry:(unit -> unit) -> ?obs:Obs.t -> ?token:Governor.token ->
  ?fault:Fault.plan -> t -> (draw -> 'a) -> 'a

(** Execute one DMS data-movement operation on a stream, accounting reader,
    network, and writer time against the simulated clock (per-DMS-op
    volumes go to [obs]); with [draw], then draw the transfer and
    temp-write injection sites there. *)
val run_move :
  ?obs:Obs.t -> ?draw:draw -> t -> Dms.Op.kind -> cols:int list -> dstream -> dstream

(** Execute a PDW plan on the appliance as one self-contained statement.
    Returns the final client result (rows + layout); accounting
    accumulates in [account]. The statement's state is passed as values,
    so nothing needs resetting afterwards:
    - [obs] receives the per-DMS-op, per-node executor and [fault.*]
      counters;
    - [token] (default {!Governor.none}) is polled once per injectable
      step in the caller domain, so a simulated-clock deadline trips at
      the same step at any [--jobs];
    - [fault] (default {!Fault.none}) is the plan every injectable step
      draws from; steps number from 0, so a schedule addresses the
      statement's own steps;
    - [observe] is called after each (recovered) Serial/Move operator with
      the operator and its observed global rows (summed over nodes for a
      hashed stream, one copy for a replicated one), in the caller domain
      in bottom-up plan order — the call sequence is identical at any
      [--jobs]. Rows are only counted when an observer is given. The
      feedback harvest ({!Opdw.Feedback.harvest}) and the [--assert-bounds]
      oracle ({!Check.bounds_observer}) are both such observers.

    Unless {!set_check} disabled it, the plan is first passed through the
    static analyzer's execution-soundness rules; an invalid plan raises
    {!Check.Invalid} instead of executing (no operator is observed). *)
val run_pplan :
  ?obs:Obs.t -> ?token:Governor.token -> ?fault:Fault.plan ->
  ?observe:(Pdwopt.Pplan.t -> float -> unit) -> t -> Pdwopt.Pplan.t -> Local.rset

(** The reader+network+writer pipeline rates of an appliance's hardware,
    in the shape {!Dms.Cost.repartition_seconds} prices each table copy of
    a topology move with (node loss, grow and re-key share it). *)
val move_rates : hw -> Dms.Cost.move_rates

(** An in-flight phased topology move (DESIGN.md §14): the new layout is
    copy-built into a shadow appliance one table per priced, injectable
    step while [m_source] keeps serving statements against the old layout;
    {!flip_move} commits atomically, {!abort_move} leaves the source
    bit-identical to its pre-move state. *)
type move = {
  m_source : t;
  m_target : t;
  m_fault : Fault.plan;   (** what the copy and flip steps draw from *)
  m_obs : Obs.t;          (** where the copy and flip steps report faults *)
  mutable m_pending : string list;
      (** tables still to copy, in deterministic (sorted-name) order *)
  mutable m_bytes : float;    (** bytes re-partitioned so far *)
  mutable m_rows : float;
  mutable m_seconds : float;
      (** simulated copy cost accrued, charged to the clock at the flip *)
}

(** Open a phased move to a [node_count]-node topology with distribution
    layout [dist_of] (given each current table, return its target
    distribution). The target shell is {!Catalog.Shell_db.derive}d from
    the source's. Unchanged-layout tables transfer for free immediately;
    every other table becomes a pending priced copy step. The move's copy
    and flip steps draw from [fault] (default {!Fault.none}), report their
    [fault.*] counters to [obs] (default {!Obs.null}) and continue the
    source appliance's step count. The source appliance is not mutated. *)
val begin_move :
  ?obs:Obs.t -> ?fault:Fault.plan -> t -> node_count:int ->
  dist_of:(Catalog.Shell_db.table -> Catalog.Distribution.t) -> move

(** Copy-build the next pending table into the shadow appliance as one
    injectable step of the source appliance, drawn from [m_fault]: node crashes
    escalate ({!Fault.Injected} — compose with {!decommission} and restart
    the move), transfer/temp-write failures drop the half-built partitions
    and retry, stragglers inflate the step's copy time, an exhausted
    budget raises {!Fault.Exhausted}. Priced via
    {!Dms.Cost.repartition_seconds}; a failed attempt never
    double-charges. *)
val copy_step : move -> unit

(** Atomically commit a fully copied move: one injectable control-node
    step, the source account carried over plus the move's accrued copy
    cost. Returns the new appliance, whose derived shell re-keys
    plan-cache fingerprints. Raises [Invalid_argument] if pending copies
    remain. *)
val flip_move : move -> t

(** Abandon an in-flight move: half-built partitions are dropped; the
    source catalog, storage and epoch are untouched. *)
val abort_move : move -> unit

(** A topology change: grow to a node count, re-key one table to
    hash-partitioning on [cols], or lose the compute node at an index. *)
type change =
  | Grow of int
  | Rekey of { table : string; cols : string list }
  | Lose of int

(** ["grow to 8 nodes"], ["re-key orders [o_custkey]"], ["lose node 2"]. *)
val change_to_string : change -> string

(** [begin_change t change] validates [change] against [t] and opens its
    phased move ({!begin_move}): a grow keeps every table's distribution
    on more nodes; a re-key changes one table's key at the same node
    count; a loss keeps every table's distribution on one node fewer
    (every shard is mirrored in the simulated substrate, so the survivors
    re-partition the full logical contents). The one place topology moves
    are built. Losing the last compute node raises {!Fault.Exhausted}
    (the appliance cannot serve: a fault-plane outcome, not a caller bug).
    Raises [Invalid_argument] for a grow that does not grow, a lost node
    out of range, an unknown table, an empty key or a column the table
    lacks. [obs] and [fault] are the move's context and plan, as in
    {!begin_move}. *)
val begin_change : ?obs:Obs.t -> ?fault:Fault.plan -> t -> change -> move

(** [complete t change] runs [change] as one complete phased move: every
    copy step, then the flip. The steps draw from [fault] (default
    {!Fault.none}) and report to [obs]; a failed step (an exhausted
    budget, an escalated node crash) aborts the move and re-raises. *)
val complete : ?obs:Obs.t -> ?fault:Fault.plan -> t -> change -> t

(** [decommission t ~node] replans onto the survivors after compute node
    [node] (current index) died: the fault-free move [Lose node] run to
    its flip, plus one replan on the account. Every hash-distributed table
    is re-partitioned mod the surviving count at
    {!Dms.Cost.repartition_seconds} rates; the new shell is
    {!Catalog.Shell_db.derive}d, so plans compiled for the old topology
    miss the plan cache, and the replan epoch is bumped so fault draws
    restart. Raises as {!begin_change} does for [Lose node]. The
    [fault.replans] and [fault.recovery_seconds] (the move's copy cost)
    counters go to [obs]. *)
val decommission : ?obs:Obs.t -> t -> node:int -> t

(** Single-node oracle: run a serial plan over the full (unpartitioned)
    tables. *)
val run_reference : t -> Serialopt.Plan.t -> Local.rset
