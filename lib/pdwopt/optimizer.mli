(** The PDW query optimizer pipeline (paper Fig. 4, steps 01-12; DSQL
    generation, steps 10-11, lives in the {!Dsql} library). *)

type result = {
  plan : Pplan.t;                 (** the chosen distributed plan (with Return) *)
  options_at_root : (Dms.Distprop.t * Pplan.t) list;
  options : (int, (Dms.Distprop.t * Pplan.t) list) Hashtbl.t;
      (** kept options per group (the augmented MEMO of Fig. 3c) *)
  stats : Enumerate.stats;
}

exception No_plan of string

(** Run steps 01-09 over an (imported) MEMO and return the chosen plan.
    With [obs], reports the [pdw.*] counters: groups processed, PDW exprs
    enumerated vs. pruned, enforcer moves added, interesting-property map
    sizes, and the chosen plan's per-DMS-op modelled movement volumes.
    [token] is polled per dependency level; a trip raises
    {!Governor.Cancelled} (the bottom-up enumeration has no partial answer
    worth keeping — the anytime fallback lives one layer up, in [Opdw]).
    [pool] parallelizes the enumeration across memo dependency levels; the
    chosen plan is bit-identical at any pool size. [upper_bound] seeds the
    fixed DMS-cost pruning bound (see {!Enumerate.create_ctx}). [empty]
    marks groups the static analyzer proved empty; with
    [opts.fold_empty] they are folded to constant-empty operators before
    costing (the retry-unbounded path folds identically). *)
val optimize :
  ?obs:Obs.t -> ?opts:Enumerate.opts -> ?token:Governor.token ->
  ?pool:Par.t -> ?upper_bound:float -> ?empty:(int -> bool) -> Memo.t -> result
