(** Static plan-validity analyzer.

    Re-derives and verifies the invariants every distributed plan must
    satisfy — the distribution-compatibility rules of paper §3, movement
    applicability and layout consistency, cost-model accounting, and DSQL
    step well-formedness — without trusting any annotation the optimizer
    wrote. Violations carry the rule id, a human-readable message, and a
    pretty-printed rendering of the offending subtree (or DSQL step).

    The rule catalog (see DESIGN.md §7 for the paper mapping):

    - [R0.plan-shape]: operator arities, Return only at the plan root.
    - [R1.dist-rederive]: every node's declared [dist] equals the
      distribution re-derived from its children's declared distributions
      (scans anchored at the shell database's partitioning).
    - [R2.dist-local-op]: a serial operator whose child distributions make
      local execution incorrect — a missing enforcer movement (co-located
      joins, replicated-left restrictions for semi/anti/outer joins, local
      group-bys, aligned unions).
    - [R3.move-applicability]: a DMS operation applies to its input
      distribution and produces exactly the declared output distribution.
    - [R4.move-layout]: the moved column set is produced by the child, is
      non-empty, and carries the Shuffle/Trim hash columns.
    - [R5.cost-monotone]: [rows], [dms_cost] and [serial_cost] are finite
      and non-negative, and the cumulative costs are non-decreasing
      bottom-up.
    - [R6.cost-reconstruct] (needs a {!cost_model}): each Move's cost delta
      and the root's total DMS cost equal the movement costs recomputed
      from {!Dms.Cost}.
    - [R7.dsql-steps]: step ids are [0..n-1] in execution order, temp-table
      names are unique, and there is exactly one Return step, last.
    - [R8.dsql-temp-defined]: every temp table referenced by a step's SQL
      is filled by an earlier DMS step.
    - [R9.dsql-schema]: the DSQL DMS steps correspond 1:1 (same order,
      kinds, and column schemas) with the plan's Move nodes.
    - [R10.types] (needs a {!cost_model} for the registry): every
      expression in the plan type-checks — join keys compare compatible
      types, SUM/AVG arguments are numeric, computed and aggregate outputs
      match their declared registry types; with [dsql], temp-table schemas
      resolve and duplicate emitted names agree on type.
    - [R11.bounds] (needs a {!cost_model}): each node's optimizer row
      estimate lies within the cardinality bounds the abstract interpreter
      derives from the shell catalog (see {!Analysis}).
    - [R12.contradiction] (needs a {!cost_model}): no predicate whose
      abstract evaluation is bottom survives in the plan — such subtrees
      must have been folded to a constant-empty operator.

    R0–R6 and R10–R12 come from one bottom-up pass over the plan, which
    the plan-level views below ({!annotate}, {!render}, ...) also read. *)

type violation = {
  rule : string;      (** rule id, e.g. ["R1.dist-rederive"] *)
  message : string;   (** what is wrong, with the concrete values *)
  subtree : string;   (** offending plan subtree (or DSQL step), rendered *)
}

exception Invalid of violation list

type rule_info = {
  id : string;
  title : string;
  paper : string;  (** the paper section the rule encodes *)
}

(** The full catalog, in rule-id order. *)
val rules : rule_info list

(** Inputs needed to recompute movement costs (rule R6). *)
type cost_model = {
  nodes : int;
  lambdas : Dms.Cost.lambdas;
  reg : Algebra.Registry.t;
}

(** [validate ?obs ?cost ?dsql ~shell plan] runs the whole catalog:
    R0–R5 always, R6 and R10–R12 when [cost] is given (the cost model
    carries the registry the analyzer needs), R7–R9 when [dsql] is given.
    Returns all violations (empty = valid). Reports [check.rules_run] and
    [check.violations] into [obs]. *)
val validate :
  ?obs:Obs.t ->
  ?cost:cost_model ->
  ?dsql:Dsql.Generate.plan ->
  shell:Catalog.Shell_db.t ->
  Pdwopt.Pplan.t ->
  violation list

(** Execution-soundness subset (R0–R4): the rules whose violation means the
    appliance would silently compute wrong rows. Cost and DSQL bookkeeping
    are not needed to execute, so they are skipped — this is the gate
    {!Engine.Appliance} applies to every plan it is handed. *)
val validate_exec :
  ?obs:Obs.t -> shell:Catalog.Shell_db.t -> Pdwopt.Pplan.t -> violation list

(** All violations, one block per violation, for error messages. *)
val to_string : violation list -> string

(** {1 Plan-level views of the abstract interpretation} *)

(** Per-node verdict of the analyzer. *)
type node_info = {
  card_lo : float;        (** sound lower bound on global output rows *)
  card_hi : float;        (** sound upper bound (may be [infinity]) *)
  out_env : Analysis.env; (** abstract output state *)
  contradiction : string option;
      (** a predicate whose abstract evaluation is bottom while its inputs
          are not provably empty — the subtree should have been folded *)
  type_errors : Analysis.type_error list;
}

(** Annotate every node of a distributed plan, preorder (node first, then
    children left to right). An aggregation node is analyzed as the
    partial half of a split exactly when the distribution audit finds its
    grouping non-local on its input, matching the executor. *)
val annotate : Analysis.ctx -> Pdwopt.Pplan.t -> (Pdwopt.Pplan.t * node_info) list

(** Fold the annotations into a per-MEMO-group bounds table
    [group -> (lo, hi)] (meet over plan nodes sharing a group; synthetic
    nodes, [group < 0], are skipped). Feeds the engine's [--assert-bounds]
    runtime oracle. *)
val group_bounds : Analysis.ctx -> Pdwopt.Pplan.t -> (int, float * float) Hashtbl.t

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

(** Human-readable annotated plan (the [analyze] subcommand). *)
val render : Analysis.ctx -> Pdwopt.Pplan.t -> string

(** JSON rendering of the annotated plan: a list of node objects with op,
    group, estimated rows, derived bounds, column ranges, and any type
    errors or contradictions. *)
val render_json : Analysis.ctx -> Pdwopt.Pplan.t -> string

(** Minimal JSON string escaping (quotes, backslashes, control
    characters), for the [--json] output modes. *)
val json_escape : string -> string
