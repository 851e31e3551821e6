(** Cost calibration (paper §3.3.3): fit each λ from instrumented
    measurements — "the constant λ is calculated via targeted performance
    tests after a meticulous instrumentation of the source code". *)

type component = Reader_direct | Reader_hash | Network | Writer | Blkcpy

(** Every component, in the λ table's field order. *)
val components : component list

val component_name : component -> string
val component_of_name : string -> component option

(** The λ a table holds for a component. *)
val lambda_of : Cost.lambdas -> component -> float

(** One instrumented DMS measurement: the bytes one node's [component]
    processed in one move, and the simulated seconds it took. *)
type sample = { component : component; bytes : float; seconds : float }

(** Least-squares slope through the origin: λ = Σxy / Σx² (the samples'
    components are not looked at). *)
val fit_lambda : sample list -> float

(** Relative RMS residual of the fitted linear model against the samples
    (non-zero residuals quantify what the constant-λ simplification gives
    up to per-row and fixed overheads). *)
val fit_error : float -> sample list -> float

type fit = {
  f_component : component;
  f_lambda : float;
  f_error : float;    (** relative RMS residual of the fit *)
  f_samples : int;
}

(** Fit the full λ table: each component's λ by {!fit_lambda} over its
    samples in list order, so the same samples yield bit-identical λs.
    A component with no samples, or whose fit is not finite and positive,
    keeps its λ from [base] (default {!Cost.default_lambdas}). Returns the
    table and one fit record per component, in {!components} order. *)
val fit : ?base:Cost.lambdas -> sample list -> Cost.lambdas * fit list
