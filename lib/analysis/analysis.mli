(** Abstract-interpretation domain (DESIGN.md §12): a typed-expression
    checker, a per-column range/null abstract domain with per-relation
    cardinality bounds [lo, hi], and contradiction detection, plus the
    MEMO-level pass that proves groups empty. The plan-level interpreter
    that runs this domain over a distributed plan, together with the
    distribution and cost audits, is {!Check}.

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
val iv_to_string : iv -> string

(** Abstract state of a relation: per-column intervals plus global
    cardinality bounds. [hi <= 0.] means provably empty. *)
type env = { ivs : iv Registry.Col_map.t; lo : float; hi : float }

(** No constraint: unknown columns, [0, +inf) rows. *)
val top_env : env

val is_empty : env -> bool

(* -- analysis context -- *)

(** The inputs every transfer reads: the shell catalog seeds scans, the
    registry types expressions, and [nodes] bounds per-node operators. *)
type ctx = { shell : Shell_db.t; reg : Registry.t; nodes : int }

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

(* -- plan operators -- *)

(** [physop_transfer ctx op child_envs ~dist ~partial_agg]: the abstract
    output of serial operator [op] run per node under the declared output
    distribution [dist], as the partial half of an aggregation split when
    [partial_agg]; plus the predicate of a filter or join the domain
    refutes over non-empty inputs (a contradiction left unfolded). *)
val physop_transfer :
  ctx -> Memo.Physop.t -> env list -> dist:Dms.Distprop.t -> partial_agg:bool ->
  env * string option
