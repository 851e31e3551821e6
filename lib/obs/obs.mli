(** Lightweight, dependency-free observability for the optimization
    pipeline: monotonic wall-clock timers, named counters, hierarchical
    spans, and a pluggable event sink.

    Every pipeline layer receives an [Obs.t] context (default {!null}) and
    reports stage-specific metrics into it; the CLI's [explain --profile]
    and the benchmark harness render or query the same context, so there is
    one source of truth for "where does optimization time go".

    The disabled context {!null} makes every operation a constant-time
    no-op, so instrumentation can stay unconditionally in hot paths. *)

(** A node of the span tree. A span accumulates over re-entries: running
    the same stage name twice under the same parent adds to [elapsed] and
    [calls] rather than creating a sibling. *)
type span = {
  name : string;
  mutable elapsed : float;             (** total wall-clock seconds inside *)
  mutable calls : int;                 (** completed entries *)
  mutable metrics : (string * float) list;  (** insertion order *)
  mutable children : span list;        (** insertion order *)
}

(** Events delivered to a sink as they happen (spans are also retained in
    the context for post-hoc reporting). Paths are outermost-first. *)
type event =
  | Span_open of string list
  | Span_close of string list * float  (** path, elapsed seconds of this entry *)
  | Metric of string list * string * float  (** enclosing span path, name, new value *)

type sink = event -> unit

type t

(** The disabled context: every operation is a no-op, [enabled] is false. *)
val null : t

(** A live context. [clock] defaults to a monotonic wall-clock;
    [sink] defaults to dropping events (the span tree is still built). *)
val create : ?clock:(unit -> float) -> ?sink:sink -> unit -> t

(** The default wall clock (seconds since the epoch) used by {!create};
    exported so other layers (e.g. governor deadlines) measure time the
    same way spans do. *)
val default_clock : unit -> float

val enabled : t -> bool

(** [with_span t name f] runs [f] inside a child span [name] of the current
    span, timing it. Exceptions propagate; time is still recorded. On
    {!null} this is exactly [f ()]. *)
val with_span : t -> string -> (unit -> 'a) -> 'a

(** [add t name n] adds [n] to counter [name] on the current span. *)
val add : t -> string -> int -> unit

(** [addf t name v] adds float [v] to counter [name] on the current span. *)
val addf : t -> string -> float -> unit

(** [set t name v] sets gauge [name] on the current span (last write wins). *)
val set : t -> string -> float -> unit

(** Top-level spans (children of the implicit root), in creation order. *)
val roots : t -> span list

(** [find t path] looks a span up by its outermost-first name path. *)
val find : t -> string list -> span option

(** [counter t name] sums metric [name] over the whole tree (including
    root-level metrics). Returns [0.] when absent or on {!null}. *)
val counter : t -> string -> float

(** [counters_prefixed t prefix] — every counter whose name starts with
    [prefix], summed over the whole tree, sorted by name. Useful for
    reporting a metric family (e.g. [fault.]) without enumerating it. *)
val counters_prefixed : t -> string -> (string * float) list

(** Sum of a metric over one span's subtree. *)
val span_counter : span -> string -> float

val span_metric : span -> string -> float option

(** Render the span tree: one line per span with wall-clock time, entry
    count, and its metrics; indented by depth. *)
val report : t -> string
