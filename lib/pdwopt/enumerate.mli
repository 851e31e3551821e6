(** Bottom-up enumeration of distributed plans over the imported MEMO
    (paper Fig. 4, steps 05-07):

    - step 06.i: for each group, enumerate PDW options by considering all
      combinations of the child groups' kept options; a serial operator is
      usable only when the child distributions make local execution correct
      (collocated/directed/broadcast joins, local group-bys, and the
      local-global aggregation split);
    - step 06.ii: cost-based pruning — keep the best option per output
      distribution (best overall plus best per interesting property);
    - step 07: enforcer step — add data movement expressions producing each
      interesting distribution, costed with the DMS cost model.

    The pass runs as a leveled wavefront over a {!Par} domain pool: groups
    are partitioned by memo dependency level, groups within a level run in
    parallel, and a level's kept options are published only once the whole
    level completes. A sequential pre-pass fixes registry allocation order
    and dependency levels, so the result is bit-identical at any pool size
    (see DESIGN.md §11 for the determinism argument). *)

type opts = {
  nodes : int;
  lambdas : Dms.Cost.lambdas;
  serial_tiebreak : bool;
      (** break DMS-cost ties with estimated per-node relational work *)
  prune : bool;
      (** interesting-property pruning (step 06.ii); off = keep every
          enumerated option, up to 512 per group (ablation) *)
  hints : (string * [ `Broadcast | `Shuffle ]) list;
      (** paper §3.1 query hints: restrict a base table's kept options to
          replicated ([`Broadcast]) or hash-partitioned ([`Shuffle]) *)
  fold_empty : bool;
      (** fold groups proven empty (the [empty] predicate of {!create_ctx})
          to a constant-empty operator before costing, skipping their
          subtrees' enumeration; default on. Plans are unchanged whenever
          no group is proven empty. *)
}

val default_opts : opts

(** Enumeration counters, also surfaced as [pdw.*] {!Obs} counters by
    {!Optimizer.optimize}. *)
type stats = {
  mutable pdw_exprs_enumerated : int;  (** options considered (pre-pruning) *)
  mutable options_kept : int;
  mutable groups_processed : int;
  mutable enforcer_moves : int;
      (** Move expressions added by the enforcer step (Fig. 4, step 07) *)
  mutable par_levels : int;  (** dependency levels in the wavefront *)
  mutable par_groups : int;  (** groups dispatched through the pool *)
}

(** Enumeration state: the per-group kept-option table (the augmented MEMO
    of Fig. 3c) plus counters. Opaque outside {!Optimizer}. *)
type ctx

(** [token] is polled (raising {!Governor.Cancelled}) in the caller before
    each dependency level; an interrupted ctx must be discarded, not
    resumed. [pool] runs the groups within each level (default: the shared
    sequential pool — the same code path, one domain). [upper_bound] is a
    fixed DMS-cost bound (typically the serial baseline plan's cost, with
    margin): options strictly above it are dropped; since DMS cost only
    accumulates upward, no winning plan is lost, and because the bound
    never moves during a pass the kept tables are schedule-independent.
    [empty] marks groups proven empty by the static analyzer (see
    {!Analysis.empty_groups}); when [fold_empty] is set they are folded to
    constant-empty operators. The predicate must be a pure read (it is
    shared across worker domains) — precompute it sequentially. *)
val create_ctx :
  ?token:Governor.token -> ?pool:Par.t -> ?upper_bound:float ->
  ?empty:(int -> bool) ->
  Memo.t -> Derive.t -> opts -> ctx

(** Distribution of a scan of [table] projecting [cols] (registry ids in
    schema order); an unknown table or an unprojected partition column
    degrades to [Hashed []]. Shared by the enumeration and the baseline. *)
val scan_dist : Catalog.Shell_db.t -> string -> int array -> Dms.Distprop.t

(** The per-group kept options (augmented MEMO), for inspection. *)
val options_table : ctx -> (int, (Dms.Distprop.t * Pplan.t) list) Hashtbl.t

val stats_of : ctx -> stats

(** The pruning objective: DMS cost, with the per-node relational work as
    an epsilon tie-break when [serial_tiebreak] is set. *)
val total_cost : opts -> Pplan.t -> float

(** Steps 05-07 for the memo subgraph rooted at the given group: computes
    dependency levels, then runs the leveled wavefront bottom-up over the
    ctx's pool. Returns the root group's kept options (memoized: a second
    call with the same ctx returns the published table entry). *)
val optimize_group : ctx -> int -> (Dms.Distprop.t * Pplan.t) list
