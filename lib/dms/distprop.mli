(** Distribution properties of intermediate results in the appliance. *)

type t =
  | Hashed of int list
      (** hash-partitioned across the compute nodes on these registry
          columns, in hash order; [Hashed []] means "distributed, no known
          partitioning" (e.g. partial-aggregate streams) *)
  | Replicated   (** a full copy on every compute node *)
  | Single_node  (** resident on the control node *)

val equal : t -> t -> bool

(** Human-readable form using registry labels. *)
val to_string : Algebra.Registry.t -> t -> string

(** Compact form, e.g. ["H(3,7)"], ["R"], ["S"]. *)
val short_string : t -> string

(** [hash_compatible ~equi lcols rcols] holds when two hash-partitioned
    inputs are partition-compatible for an equi join: non-empty column
    lists of equal length whose corresponding positions are equated by the
    join predicate ([equi] is oriented (left, right) pairs). *)
val hash_compatible : equi:(int * int) list -> int list -> int list -> bool

(** Output distribution of a join executed locally (no data movement), or
    [None] when the child distributions would make local execution
    incorrect. Replicated left inputs are rejected for semi/anti/outer
    joins (they would duplicate preserved rows per node). *)
val join_local :
  kind:Algebra.Relop.join_kind -> equi:(int * int) list -> t -> t -> t option

(** Can a group-by with [keys] run to completion locally on each node?
    True when the input partitioning columns are a (non-empty) subset of
    the keys, or the input is not partitioned at all. *)
val groupby_local : keys:int list -> t -> t option
