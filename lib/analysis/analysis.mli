(** Abstract-interpretation plan analyzer (DESIGN.md §12).

    Three cooperating bottom-up passes over plans — a typed-expression
    checker, a per-column range/null abstract domain, and a contradiction
    detector — sharing one walk. The analyzer is a second, independent
    opinion on every plan: it derives sound per-node cardinality bounds
    [lo, hi] from the shell catalog and flags type-unsound expressions and
    provably-empty (contradictory) subtrees.

    Soundness contract: every bound is an over-approximation of the exact
    query semantics on any database consistent with the shell catalog's
    statistics (min/max/null_frac taken as exact, as the simulator computes
    them from the loaded data). The optimizer's estimates are {e not}
    trusted anywhere in the derivation. *)

open Catalog
open Algebra

(* -- typed expressions -- *)

(** Inferred static type of an expression. [base = None] means the type is
    unconstrained (the NULL literal). *)
type ty = { base : Types.t option; nullable : bool }

type type_error = { expr : string; reason : string }

(* -- interval domain -- *)

(** Abstract value of one column: a closed interval over {!Value.t} plus a
    null-set bit. [None] endpoints are infinities. [valued = false] means
    the column cannot hold a non-null value; a column with [valued = false]
    and [nullable = false] can hold nothing at all, so the relation is
    empty. Strict predicate bounds are widened to closed ones (sound). *)
type iv = {
  lo : Value.t option;
  hi : Value.t option;
  nullable : bool;
  valued : bool;
}

val top_iv : iv
val pp_iv : Format.formatter -> iv -> unit
val iv_to_string : iv -> string

(** Abstract state of a relation: per-column intervals plus global
    cardinality bounds. [hi <= 0.] means provably empty. *)
type env = { ivs : iv Registry.Col_map.t; lo : float; hi : float }

val is_empty : env -> bool

(* -- analysis context -- *)

type ctx

val context : shell:Shell_db.t -> reg:Registry.t -> nodes:int -> ctx

(* -- typed-expression checker -- *)

(** Infer the static type of an expression (errors are not collected;
    ill-typed subterms yield an unconstrained type). *)
val infer_ty : Registry.t -> Expr.t -> ty

(** All type errors in an expression: arithmetic over strings/booleans,
    incompatible comparison operands (including join keys), non-boolean
    logical operands, malformed function applications. *)
val check_expr : Registry.t -> Expr.t -> type_error list

(** Type errors of one serial physical operator: its predicates must be
    boolean, computed/aggregate outputs must match their declared registry
    types, SUM/AVG arguments must be numeric. *)
val check_physop : Registry.t -> Memo.Physop.t -> type_error list

(** Type errors of a DSQL temp-table schema [(col id, emitted name)]: every
    id must resolve in the registry, and duplicate emitted names must agree
    on their base type. *)
val check_temp_cols : Registry.t -> (int * string) list -> type_error list

(* -- MEMO-level analysis (drives contradiction folding) -- *)

(** Abstract environment of a MEMO group: the meet over all the group's
    expressions (each a sound over-approximation of the same relation),
    evaluated once per distinct (shape, canonical children) pair.
    Recursion back-edges yield top. [memo_env ctx m] analyzes the whole
    MEMO once; the returned function looks a group up by any of its ids. *)
val memo_env : ctx -> Memo.t -> int -> env

(** Transfer evaluations one MEMO-level pass makes: the number of distinct
    (shape, canonical children) pairs over all groups. *)
val memo_evals : ctx -> Memo.t -> int

(** [empty_groups ctx m] returns a predicate over group ids that is [true]
    exactly for groups proven empty (cardinality upper bound 0). The table
    is computed eagerly — the returned closure is read-only and safe to
    share across domains. *)
val empty_groups : ctx -> Memo.t -> (int -> bool)

(* -- plan-level analysis -- *)

(** Per-node verdict of the analyzer. *)
type node_info = {
  card_lo : float;        (** sound lower bound on global output rows *)
  card_hi : float;        (** sound upper bound (may be [infinity]) *)
  out_env : env;          (** abstract output state *)
  contradiction : string option;
      (** a predicate whose abstract evaluation is bottom while its inputs
          are not provably empty — the subtree should have been folded *)
  type_errors : type_error list;
}

(** Annotate every node of a distributed plan, preorder (node first, then
    children left to right). Aggregation nodes are analyzed partial- or
    final-aware from their input distribution, matching the executor. *)
val annotate : ctx -> Pdwopt.Pplan.t -> (Pdwopt.Pplan.t * node_info) list

(** Fold the annotations into a per-MEMO-group bounds table
    [group -> (lo, hi)] (meet over plan nodes sharing a group; synthetic
    nodes, [group < 0], are skipped). Feeds the engine's [--assert-bounds]
    runtime oracle. *)
val group_bounds : ctx -> Pdwopt.Pplan.t -> (int, float * float) Hashtbl.t

(** The [--assert-bounds] runtime oracle over a {!group_bounds} table:
    returns an observer for the engine's [run_pplan ~observe] hook and the
    number of executed operators it has seen so far whose observed global
    rows fell outside their group's [lo, hi] (with ±0.5 slack). Operators
    whose group is not in the table are skipped. Each violation also bumps
    the [analysis.bound_violations] counter in [obs]. The count belongs to
    the caller, not to the appliance, so it survives a node-loss replan. *)
val bounds_observer :
  ?obs:Obs.t -> (int, float * float) Hashtbl.t ->
  (Pdwopt.Pplan.t -> float -> unit) * (unit -> int)

(* -- rendering -- *)

(** Human-readable annotated plan (the [analyze] subcommand). *)
val render : ctx -> Pdwopt.Pplan.t -> string

(** JSON rendering of the annotated plan: a list of node objects with op,
    group, estimated rows, derived bounds, column ranges, and any type
    errors or contradictions. *)
val render_json : ctx -> Pdwopt.Pplan.t -> string
