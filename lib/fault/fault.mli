(** Deterministic fault injection for the simulated appliance.

    A {!plan} decides, at named injection {e sites} inside the engine,
    whether a simulated failure fires. Decisions are pure functions of
    [(seed, site, epoch, step, node, attempt)] — no shared mutable PRNG —
    so a given plan produces the identical fault pattern at any [--jobs]
    setting and regardless of domain scheduling. The engine owns recovery
    (retries, backoff, node decommissioning); this module only answers
    "does a fault fire here?", fixes the retry budget and backoff, and
    carries the failure/exhaustion types. A plan is a value the engine is
    passed with each statement and each topology move.

    Two ways to drive it:
    - {!seeded}: one fire probability per draw from a seeded hash
      (chaos-mode sweeps);
    - {!schedule}: an explicit list of {!event}s naming exactly which
      (site, step, node, attempt, epoch) fail (reproducing one scenario). *)

(** Where a fault can fire inside the engine. *)
type site =
  | Dms_transfer       (** a DMS movement fails mid-transfer *)
  | Node_crash         (** a compute node dies during a distributed step *)
  | Straggler          (** a node runs slow: its step time is inflated *)
  | Temp_write         (** writing a step's temp table fails *)
  | Control_transient  (** transient error on the control node *)

val all_sites : site list

(** Stable wire names: [dms_transfer], [node_crash], [straggler],
    [temp_write], [control_transient] (used by counters and schedules). *)
val site_name : site -> string

val site_of_name : string -> site option

(** One entry of an explicit schedule. [e_node = None] matches any node
    (and site-less-node sites like {!Dms_transfer}). [e_factor] is the
    slowdown multiplier for {!Straggler} events (ignored elsewhere). *)
type event = {
  e_site : site;
  e_step : int;
      (** injectable-step index: a statement numbers its steps from 0; a
          topology move's copy and flip steps continue the count of the
          last statement served on the source appliance *)
  e_node : int option;
  e_attempt : int;       (** which execution attempt of the step (0 = first) *)
  e_epoch : int;         (** replan epoch: 0 before any node loss *)
  e_factor : float;
}

(** [event ?node ?attempt ?epoch ?factor site step] — defaults: any node,
    attempt 0, epoch 0, factor 4.0 (the slowdown a probabilistic
    {!Straggler} fault applies). *)
val event : ?node:int -> ?attempt:int -> ?epoch:int -> ?factor:float -> site -> int -> event

(** Re-executions of a step after its first failure before the statement
    fails with {!Exhausted}. *)
val retries : int

(** Simulated seconds of backoff before retry [attempt] (1-based):
    [0.05 *. 2 ^ (attempt - 1)]. *)
val backoff : int -> float

type plan =
  | Off
  | Probabilistic of { seed : int; rate : float }
      (** every site fires with probability [rate] per draw, except
          {!Node_crash}, which fires at [rate /. 8.] (losing a node is
          rarer than a transient); a {!Straggler} slows its node ×4.0 *)
  | Schedule of event list

(** No faults ever fire. *)
val none : plan

(** [seeded ~seed ?rate ()] — probabilistic plan, [rate] default 0.05. *)
val seeded : ?rate:float -> seed:int -> unit -> plan

(** An explicit schedule. *)
val schedule : event list -> plan

exception Schedule_error of string

(** Parse a schedule from text: one event per line of [key=value] fields
    ([site] and [step] required; [node], [attempt], [epoch], [factor]
    optional), [#] comments and blank lines ignored. Example:
    {v site=dms_transfer step=2 attempt=0
       site=node_crash step=0 node=1 v}
    Raises {!Schedule_error} on malformed input; the message names the
    offending line number and quotes its raw text. *)
val parse_schedule : string -> event list

(** [load_schedule file] reads and parses a schedule file. Parse errors are
    re-raised with [file] prefixed to the message. *)
val load_schedule : string -> plan

(** [uniform ~seed coords] — a uniform float in [\[0, 1)]: a splitmix64
    hash of [seed] folded with [coords]. Pure, so a draw cannot depend on
    domain scheduling or [--jobs]. Every probabilistic decision of the
    fault plane is one such draw, and so is each pick of a storm driver. *)
val uniform : seed:int -> int list -> float

(** [fires plan ~site ~epoch ~step ~node ~attempt] — does a fault fire at
    this point? Pure: same arguments, same answer. Pass [node = -1] for
    sites not tied to a compute node. *)
val fires : plan -> site:site -> epoch:int -> step:int -> node:int -> attempt:int -> bool

(** Straggler slowdown factor for this node at this step, if one fires. *)
val straggle : plan -> epoch:int -> step:int -> node:int -> attempt:int -> float option

(** A fault that fired. [node = -1] when the site has no node. *)
type failure = { site : site; epoch : int; step : int; node : int }

val failure_to_string : failure -> string

(** Raised by the engine at an injection point. Recoverable sites are
    caught and retried by the engine's recovery wrapper; {!Node_crash}
    escalates to re-optimization on the surviving nodes. *)
exception Injected of failure

(** The statement failed for good: the per-step retry budget (or the
    replan budget, for node losses) was exhausted. [attempts] counts
    executions of the failing step, the first included. *)
exception Exhausted of { failure : failure; attempts : int }
