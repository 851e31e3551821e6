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
  mutable reader_samples : Dms.Calibrate.sample list;
  mutable reader_hash_samples : Dms.Calibrate.sample list;
  mutable network_samples : Dms.Calibrate.sample list;
  mutable writer_samples : Dms.Calibrate.sample list;
  mutable blkcpy_samples : Dms.Calibrate.sample list;
  mutable injected : int;           (** faults that fired (stragglers included) *)
  mutable retries : int;            (** step re-executions after a failure *)
  mutable recovered : int;          (** steps that eventually succeeded *)
  mutable replans : int;            (** node losses escalated to re-optimization *)
  mutable backoff_time : float;     (** simulated seconds spent backing off *)
}

(** Calibration samples recorded for one DMS component. *)
val samples_of : account -> Dms.Calibrate.component -> Dms.Calibrate.sample list

type t = {
  shell : Catalog.Shell_db.t;
  nodes : int;
  hw : hw;
  storage : (string, Rset.t) Hashtbl.t array;
  mutable engine : Rset.engine;
  account : account;
  mutable pool : Par.t;
  mutable check : bool;
  mutable fault : Fault.plan;
  mutable epoch : int;
  mutable step_no : int;
  mutable cur_step : int;
  mutable cur_attempt : int;
}

val create :
  ?hw:hw -> ?pool:Par.t -> ?check:bool -> ?engine:Rset.engine ->
  Catalog.Shell_db.t -> t

(** Attach a domain pool for multicore shard execution (typically one pool
    per process, shared across appliances). *)
val set_pool : t -> Par.t -> unit

(** Select the local-executor implementation for serial steps. *)
val set_engine : t -> Rset.engine -> unit

val engine : t -> Rset.engine

(** Enable/disable the {!Check} execution gate (on by default). *)
val set_check : t -> bool -> unit

(** Attach a fault-injection plan ({!Fault.none} disables injection). *)
val set_fault : t -> Fault.plan -> unit

val reset_account : t -> unit

(** Start a new statement: step numbering restarts at 0 so explicit fault
    schedules address steps of each statement independently. *)
val begin_statement : t -> unit

(** Routing hash shared by initial loading and shuffles (and by both
    engines — see {!Rset.route_hash}). *)
val route_hash : Catalog.Value.t list -> int

(** Load a table from rows (row-major storage), partitioning or
    replicating per the shell layout. *)
val load_table : t -> string -> rows -> unit

(** Load a table from a column-major payload (columnar storage). *)
val load_table_cols : t -> string -> Catalog.Column.table -> unit

(** One node's shard of a table, in the representation it was loaded in. *)
val node_rset : t -> int -> string -> Rset.t

(** One node's shard as rows (converting if stored columnar). *)
val node_table : t -> int -> string -> rows

(** One node's shard as a columnar batch (converting if stored row-major). *)
val node_batch : t -> int -> string -> Batch.t

(** A distributed intermediate result: one payload per compute node, or a
    single payload on the control node, per its distribution property. *)
type dstream = {
  layout : int list;
  per_node : Rset.t array;   (** length = [nodes]; unused when on control *)
  control : Rset.t;          (** payload resident on the control node *)
  dist : Dms.Distprop.t;
}

(** The full logical contents of a stream as one payload. *)
val stream_rset : dstream -> Rset.t

val stream_rows : dstream -> rows

(** Draw the fault plan at an injection site; raises a step failure when
    the draw fires. An injected fault is counted in [obs]. *)
val inject_point : ?obs:Obs.t -> t -> Fault.site -> unit

(** Run [f] with step-level recovery: transient step failures re-execute
    [f] (with simulated backoff accounting) up to the fault plan's retry
    budget; node crashes escalate. [on_retry] runs before each retry.
    [token] (default {!Governor.none}) is polled before the step, in the
    caller domain; [obs] receives the [fault.*] counters. *)
val with_recovery :
  ?on_retry:(unit -> unit) -> ?obs:Obs.t -> ?token:Governor.token -> t ->
  (unit -> 'a) -> 'a

(** Execute one DMS data-movement operation on a stream, accounting reader,
    network, and writer time against the simulated clock (per-DMS-op
    volumes go to [obs]). *)
val run_move : ?obs:Obs.t -> t -> Dms.Op.kind -> cols:int list -> dstream -> dstream

(** Execute one serial operator on every node holding data. *)
val run_serial : ?obs:Obs.t -> t -> Memo.Physop.t -> dstream list -> dstream

(** Execute a PDW plan on the appliance as one self-contained statement.
    Returns the final client result (rows + layout); accounting
    accumulates in [account]. The statement's state is passed as values,
    so nothing needs resetting afterwards:
    - [obs] receives the per-DMS-op, per-node executor and [fault.*]
      counters;
    - [token] (default {!Governor.none}) is polled once per injectable
      step in the caller domain, so a simulated-clock deadline trips at
      the same step at any [--jobs];
    - [observe] is called after each (recovered) Serial/Move operator with
      the operator and its observed global rows (summed over nodes for a
      hashed stream, one copy for a replicated one), in the caller domain
      in bottom-up plan order — the call sequence is identical at any
      [--jobs]. Rows are only counted when an observer is given. The
      feedback harvest ({!Opdw.Feedback.harvest}) and the [--assert-bounds]
      oracle ({!Analysis.bounds_observer}) are both such observers.

    Unless {!set_check} disabled it, the plan is first passed through the
    static analyzer's execution-soundness rules; an invalid plan raises
    {!Check.Invalid} instead of executing (no operator is observed). *)
val run_pplan :
  ?obs:Obs.t -> ?token:Governor.token -> ?observe:(Pdwopt.Pplan.t -> float -> unit) ->
  t -> Pdwopt.Pplan.t -> Local.rset

(** The reader+network+writer pipeline rates of an appliance's hardware,
    in the shape {!Dms.Cost.repartition_seconds} prices topology moves
    with (shrink, grow and re-key all share it). *)
val move_rates : hw -> Dms.Cost.move_rates

(** [decommission t ~node] builds a fresh [(nodes - 1)]-node appliance
    after compute node [node] (current index) died: same schemas and
    statistics, every table re-partitioned mod the surviving count, the
    account carried over plus a recovery charge of re-partitioning every
    hash-distributed table at DMS rates. The new shell is
    {!Catalog.Shell_db.derive}d, so plans compiled for the old topology
    miss the plan cache; the replan epoch is bumped so fault draws restart.
    Decommissioning the last compute node raises {!Fault.Exhausted} (the
    appliance cannot serve — a fault-plane outcome, not a caller bug);
    an out-of-range [node] raises [Invalid_argument]. The [fault.replans]
    and [fault.recovery_seconds] counters go to [obs]. *)
val decommission : ?obs:Obs.t -> t -> node:int -> t

(** An in-flight phased topology move (DESIGN.md §14): the new layout is
    copy-built into a shadow appliance one table per priced, injectable
    step while [m_source] keeps serving statements against the old layout;
    {!flip_move} commits atomically, {!abort_move} leaves the source
    bit-identical to its pre-move state. *)
type move = {
  m_source : t;
  m_target : t;
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
    every other table becomes a pending priced copy step. The source
    appliance is not mutated. *)
val begin_move :
  t -> node_count:int ->
  dist_of:(Catalog.Shell_db.table -> Catalog.Distribution.t) -> move

(** Copy-build the next pending table into the shadow appliance as one
    injectable step under the source's recovery budget: node crashes
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

(** [recommission t ~nodes] grows the appliance to [nodes] compute nodes
    (the inverse of {!decommission}) as one complete phased move. *)
val recommission : t -> nodes:int -> t

(** [redistribute t ~table ~cols] changes [table]'s distribution key to
    hash-partitioning on [cols] as one complete phased move (only that
    table is re-partitioned). *)
val redistribute : t -> table:string -> cols:string list -> t

(** Single-node oracle: run a serial plan over the full (unpartitioned)
    tables. *)
val run_reference : t -> Serialopt.Plan.t -> Local.rset
