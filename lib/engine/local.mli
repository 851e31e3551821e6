(** Single-node relational executor: runs serial physical operators over
    in-memory row lists. This is the "SQL Server instance" of each compute
    node in the simulated appliance, and the semantic oracle the columnar
    engine ({!Batch}) is checked against row-for-row. *)

open Algebra
open Memo

type rows = Catalog.Value.t array list

(** A result set: rows plus the column layout (registry ids, in order). *)
type rset = {
  layout : int list;
  rows : rows;
}

exception Exec_error of string

(** [make_env layout row] maps a column id to its value in [row].
    Raises {!Exec_error} for columns absent from [layout]. *)
val make_env : int list -> Catalog.Value.t array -> int -> Catalog.Value.t

(** First [n] elements of a list, without walking the tail. *)
val take : int -> 'a list -> 'a list

(** Positions of [cols] in [layout] (first occurrence), for hot-path key
    extraction without per-row environment lookups. *)
val positions_of : int list -> int list -> int array

(** Hash table keyed by value tuples, using {!Catalog.Value.equal} /
    {!Catalog.Value.hash} — grouping and join keys hash through this. *)
module KeyTbl : Hashtbl.S with type key = Catalog.Value.t array

(** Per-shard executor statistics, accumulated while a node executes its
    operators. Pool-safe by construction: each worker writes its own
    record; the caller merges them into {!Obs} counters after the
    fan-out. *)
type exec_stats = {
  mutable rows_scanned : int;   (** base-table rows produced by scans *)
  mutable batches : int;        (** operator outputs (one batch per op) *)
  mutable probe_rows : int;     (** hash-join probe-side input rows *)
}

val fresh_stats : unit -> exec_stats
val merge_stats : into:exec_stats -> exec_stats -> unit

(** Streaming aggregate accumulator; shared verbatim by the columnar
    engine's fallback paths so both engines produce identical results. *)
type agg_state

val new_agg_state : bool -> agg_state

(** [agg_feed def st v] folds one input into the accumulator. [v] is
    [None] for COUNT-star (the row counts regardless of nulls). *)
val agg_feed : Expr.agg_def -> agg_state -> Catalog.Value.t option -> unit

val agg_result : Expr.agg_def -> agg_state -> Catalog.Value.t

(** Sort (and optionally limit) rows; stable, so ties keep input order. *)
val sort_rows : keys:Relop.sort_key list -> ?limit:int -> rset -> rset

(** Execute one serial physical operator over its children's results. *)
val exec_op :
  ?stats:exec_stats ->
  read_table:(string -> rows) ->
  Physop.t -> rset list -> rset

(** Execute a whole serial plan tree (the single-node oracle). *)
val exec_plan : read_table:(string -> rows) -> Serialopt.Plan.t -> rset

(** Canonical multiset representation of a result: rows rendered with
    {!Catalog.Value.to_string}, sorted. Projects [cols] out of the layout. *)
val canonical : ?cols:int list -> rset -> string list
