(** opdw — an OCaml reproduction of the Microsoft SQL Server PDW query
    optimizer (SIGMOD 2012).

    This façade wires the full pipeline of the paper's Fig. 2:

    {v
    SQL text --(PDW parser)--> AST --(algebrizer + simplification)--> logical tree
      --(serial Cascades optimizer)--> MEMO --(XML export/import)-->
      --(PDW bottom-up optimizer + DMS cost model)--> parallel plan
      --(DSQL generation)--> DSQL steps --(appliance)--> results
    v}

    {b Quickstart}:
    {[
      let shell = Catalog.Shell_db.create ~node_count:8 in
      Tpch.Schema.install shell;
      (* ... load stats, see Opdw.Workload ... *)
      let r = Opdw.optimize shell "SELECT ... " in
      print_endline (Opdw.explain r)
    ]} *)

module Plancache = Plancache

(* the feedback library (log / misses / lambda-fit / plan store), aliased
   so the [Driver] and [Feedback] modules below can re-export it under
   their own names *)
module Fbk = Feedback

type options = {
  serial : Serialopt.Optimizer.options;
  pdw : Pdwopt.Enumerate.opts;
  via_xml : bool;
      (** ship the MEMO through its XML encoding, as the real system does *)
  seed_collocated : bool;
      (** §3.1: seed the MEMO with distribution-aware join orders, useful
          under a small exploration budget *)
  governor : Governor.limits;
      (** statement deadline / memo-size budget; {!Governor.no_limits} by
          default *)
}

let default_options ~node_count = {
  serial = Serialopt.Optimizer.default_options;
  pdw = { Pdwopt.Enumerate.default_opts with Pdwopt.Enumerate.nodes = node_count };
  via_xml = true;
  seed_collocated = false;
  governor = Governor.no_limits;
}

(** How a returned plan was degraded by governor pressure (the ladder:
    cached → full → [Anytime] → [Fallback] → rejected). *)
type degradation =
  | Anytime
      (** serial exploration was cut short (deadline/cancel/memo budget);
          the plan is the best found in the truncated search space *)
  | Fallback
      (** the PDW enumeration itself was interrupted; the plan is the
          greedily parallelized best serial plan ({!Baseline}) *)

let degradation_to_string = function
  | Anytime -> "anytime"
  | Fallback -> "fallback"

type result = {
  query : Sqlfront.Ast.query;
  algebrized : Algebra.Algebrizer.result;
  normalized : Algebra.Relop.t;
  serial : Serialopt.Optimizer.result;
  memo_xml : string option;
  memo : Memo.t;                       (** the memo the PDW side optimized *)
  pdw : Pdwopt.Optimizer.result;
  dsql : Dsql.Generate.plan;
  baseline_plan : Pdwopt.Pplan.t option;  (** parallelized best serial plan *)
  fingerprint : string option;
      (** the plan-cache key this result was filed under (when a cache was
          given) — {!run} uses it to evict the entry if the appliance
          rejects the plan *)
  degraded : degradation option;
      (** [Some _] when governor pressure truncated optimization; degraded
          plans still pass the {!Check} analyzer and are never cached *)
}

(** Everything downstream of normalization — the unit the plan cache
    memoizes. Registry column ids are deterministic for a given SQL text
    and shell, so a fingerprint hit may splice a previously compiled tail
    under a freshly parsed front half. *)
type compiled_tail = {
  c_serial : Serialopt.Optimizer.result;
  c_memo_xml : string option;
  c_memo : Memo.t;
  c_pdw : Pdwopt.Optimizer.result;
  c_dsql : Dsql.Generate.plan;
  c_baseline : Pdwopt.Pplan.t option;
}

(* what a statement entry keeps of a statement's front end *)
type front = Sqlfront.Ast.query * Algebra.Algebrizer.result * Algebra.Relop.t

type cache = (compiled_tail, front) Plancache.t

let cache ?capacity () : cache = Plancache.create ?capacity ()

(* §3.1 seeding: produce an alternative join tree that prefers collocated
   joins first (tables hash-partitioned compatibly joined before others).
   Implemented as a greedy re-bracketing of the normalized inner-join region
   rooted at the top of the tree. *)
let collocated_seed (shell : Catalog.Shell_db.t) (t : Algebra.Relop.t) :
    Algebra.Relop.t option =
  (* decompose the top inner-join region into leaves + conjuncts *)
  let open Algebra in
  let rec leaves (n : Relop.t) =
    match n.Relop.op, n.Relop.children with
    | Relop.Join { kind = Relop.Inner | Relop.Cross; pred }, [ l; r ] ->
      let ll, lc = leaves l and rl, rc = leaves r in
      (ll @ rl, Expr.conjuncts pred @ lc @ rc)
    | _ -> ([ n ], [])
  in
  let rec rewrap (n : Relop.t) f =
    (* rebuild the unary chain above the join region *)
    match n.Relop.op, n.Relop.children with
    | Relop.Join { kind = Relop.Inner | Relop.Cross; _ }, _ -> f n
    | _, [ c ] -> { n with Relop.children = [ rewrap c f ] }
    | _, _ -> n
  in
  let changed = ref false in
  let rebuilt =
    rewrap t (fun join_root ->
        let ls, conjs = leaves join_root in
        if List.length ls < 3 then join_root
        else begin
          (* greedy: start from the largest leaf set ordering where leaves
             sharing distribution columns in an equality are adjacent *)
          let dist_cols (n : Relop.t) =
            let rec base n =
              match n.Relop.op, n.Relop.children with
              | Relop.Get { table; cols; _ }, _ ->
                (match Catalog.Shell_db.find shell table with
                 | Some tbl ->
                   (match tbl.Catalog.Shell_db.dist with
                    | Catalog.Distribution.Hash_partitioned names ->
                      List.filter_map
                        (fun nm ->
                           match Catalog.Schema.find_col tbl.Catalog.Shell_db.schema nm with
                           | Some i -> Some cols.(i)
                           | None -> None)
                        names
                    | Catalog.Distribution.Replicated -> [])
                 | None -> [])
              | _, [ c ] -> base c
              | _, _ -> []
            in
            base n
          in
          let equi = List.filter_map Expr.as_col_eq conjs in
          let collocatable a b =
            let da = dist_cols a and db = dist_cols b in
            List.exists
              (fun ca ->
                 List.exists
                   (fun cb ->
                      List.exists (fun (x, y) -> (x = ca && y = cb) || (x = cb && y = ca)) equi)
                   db)
              da
          in
          (* pick a collocatable pair to join first, then fold the rest in *)
          let rec pick_pair = function
            | [] -> None
            | a :: rest ->
              (match List.find_opt (collocatable a) rest with
               | Some b -> Some (a, b, List.filter (fun x -> x != b) rest)
               | None -> pick_pair rest |> Option.map (fun (x, y, r) -> (x, y, a :: r)))
          in
          match pick_pair ls with
          | None -> join_root
          | Some (a, b, rest) ->
            changed := true;
            let placed = ref [] in
            let join_with acc leaf =
              let cols =
                Algebra.Registry.Col_set.union (Relop.output_col_set acc)
                  (Relop.output_col_set leaf)
              in
              let usable, remaining =
                List.partition
                  (fun c ->
                     Algebra.Registry.Col_set.subset (Expr.cols c) cols
                     && not (List.memq c !placed))
                  conjs
              in
              ignore remaining;
              placed := usable @ !placed;
              let pred =
                match usable with
                | [] -> Expr.Lit (Catalog.Value.Bool true)
                | _ -> Expr.conjoin usable
              in
              Relop.join
                (if usable = [] then Relop.Cross else Relop.Inner)
                pred acc leaf
            in
            let first = join_with a b in
            let tree = List.fold_left join_with first rest in
            (* any leftover conjuncts become a residual filter *)
            let leftovers = List.filter (fun c -> not (List.memq c !placed)) conjs in
            (match Expr.conjoin_opt leftovers with
             | Some p -> Relop.select p tree
             | None -> tree)
        end)
  in
  if !changed then Some rebuilt else None

(* -- the pipeline stages (Fig. 2) --

   Each stage runs under an [Obs] span named after it (parse, algebrize,
   normalize, serial_optimize, memo_xml, analyze, baseline_parallelize,
   pdw_optimize, dsql_generate, check), so [explain --profile] (and the
   bench harness) see a uniform per-stage span tree with the
   layer-specific counters reported inside. *)

(** [analyze]: imported MEMO -> empty-group predicate. The abstract
    interpreter (DESIGN.md §12) runs over every memo group and marks the
    ones whose derived cardinality upper bound is 0 (a contradictory
    predicate somewhere below). Computed sequentially, before the
    enumeration fans out, so the predicate handed to the wavefront is a
    pure read. *)
let analyze obs shell (pdw_opts : Pdwopt.Enumerate.opts) m =
  Obs.with_span obs "analyze" @@ fun () ->
  if not pdw_opts.Pdwopt.Enumerate.fold_empty then None
  else begin
    let actx =
      Analysis.context ~shell ~reg:m.Memo.reg ~nodes:pdw_opts.Pdwopt.Enumerate.nodes
    in
    let empty = Analysis.empty_groups actx m in
    let n = ref 0 in
    Memo.iter_groups m (fun g -> if empty g.Memo.gid then incr n);
    Obs.add obs "analysis.empty_groups" !n;
    Some empty
  end

(** [dsql]: distributed plan -> DSQL steps (Fig. 4, steps 10-11). *)
let dsql_generate obs reg plan =
  Obs.with_span obs "dsql_generate" @@ fun () -> Dsql.Generate.generate ~obs reg plan

(** [check]: distributed plan + DSQL steps -> () or {!Check.Invalid}. The
    static analyzer re-derives every invariant the optimizer is supposed
    to have established (distribution soundness, movement applicability,
    cost accounting, DSQL well-formedness) and refuses the plan on any
    violation. *)
let check_plan obs shell (pdw_opts : Pdwopt.Enumerate.opts) reg plan dsql =
  Obs.with_span obs "check" @@ fun () ->
  let cost =
    { Check.nodes = pdw_opts.Pdwopt.Enumerate.nodes;
      lambdas = pdw_opts.Pdwopt.Enumerate.lambdas;
      reg }
  in
  match Check.validate ~obs ~cost ~dsql ~shell plan with
  | [] -> ()
  | vs -> raise (Check.Invalid vs)

(** A statement after the distribution-independent half of the pipeline:
    the SQL Server side of Fig. 2, which never reads a distribution key
    (unless [seed_collocated] is on). {!place} finishes it on a shell. *)
type explored = {
  e_options : options;   (** [options] with the statement's hints applied *)
  e_query : Sqlfront.Ast.query;
  e_algebrized : Algebra.Algebrizer.result;
  e_normalized : Algebra.Relop.t;
  e_serial : Serialopt.Optimizer.result;
  e_memo_xml : string option;
  e_memo : Memo.t;
  e_empty : (int -> bool) option;   (** analyzer-proven empty groups *)
}

let resolve_options shell = function
  | Some o -> o
  | None -> default_options ~node_count:(Catalog.Shell_db.node_count shell)

(* parse, §3.1 hint handling, algebrize, normalize: the part of the
   explore half the plan-cache fingerprint is computed from *)
let front obs (opts : options) shell sql =
  let query = Obs.with_span obs "parse" (fun () -> Sqlfront.Parser.parse ~obs sql) in
  (* §3.1 query hints adjust the optimization strategy *)
  let opts =
    let force_order =
      List.mem Sqlfront.Ast.Hint_force_order query.Sqlfront.Ast.hints
    in
    let dist_hints =
      List.filter_map
        (fun h ->
           match h with
           | Sqlfront.Ast.Hint_broadcast t -> Some (t, `Broadcast)
           | Sqlfront.Ast.Hint_shuffle t -> Some (t, `Shuffle)
           | Sqlfront.Ast.Hint_force_order -> None)
        query.Sqlfront.Ast.hints
    in
    { opts with
      serial =
        (if force_order then
           { Serialopt.Optimizer.task_budget = 0 }
         else opts.serial);
      pdw = { opts.pdw with Pdwopt.Enumerate.hints = dist_hints } }
  in
  let algebrized =
    Obs.with_span obs "algebrize" (fun () -> Algebra.Algebrizer.algebrize shell query)
  in
  let normalized =
    Obs.with_span obs "normalize" @@ fun () ->
    Algebra.Normalize.normalize ~obs algebrized.Algebra.Algebrizer.reg shell
      algebrized.Algebra.Algebrizer.tree
  in
  (opts, query, algebrized, normalized)

(* the rest of the explore half: seeding, serial exploration, the XML
   round trip and the empty-group analysis *)
let explore_front obs token shell
    ((opts : options), query, (algebrized : Algebra.Algebrizer.result), normalized) =
  let reg = algebrized.Algebra.Algebrizer.reg in
  let seeds =
    if opts.seed_collocated then
      match collocated_seed shell normalized with
      | Some s -> [ s ]
      | None -> []
    else []
  in
  (* the token and memo budget cut exploration anytime-style (a plan
     still comes back, flagged [interrupted]) *)
  let serial =
    Obs.with_span obs "serial_optimize" @@ fun () ->
    Serialopt.Optimizer.optimize ~obs ~opts:opts.serial ~seeds ~token
      ?max_memo_groups:opts.governor.Governor.max_memo_groups reg shell normalized
  in
  (* the paper's interchange between the SQL Server process and the PDW
     optimizer *)
  let memo_xml, memo =
    if opts.via_xml then
      Obs.with_span obs "memo_xml" @@ fun () ->
      let xml = Memo.Memo_xml.export_string ~obs serial.Serialopt.Optimizer.memo in
      (Some xml, Memo.Memo_xml.import_string ~obs shell xml)
    else (None, serial.Serialopt.Optimizer.memo)
  in
  let empty = analyze obs shell opts.pdw memo in
  { e_options = opts; e_query = query; e_algebrized = algebrized;
    e_normalized = normalized; e_serial = serial; e_memo_xml = memo_xml;
    e_memo = memo; e_empty = empty }

(* the place half: baseline, PDW enumeration, DSQL and check on [shell],
   returning the unit the plan cache memoizes *)
let place_tail obs check token pool shell (e : explored) =
  let opts = e.e_options and serial = e.e_serial in
  let reg = e.e_algebrized.Algebra.Algebrizer.reg in
  (* The enumeration reads distribution keys through the memo's shell and
     allocates aggregation-split columns in its registry, so it runs on a
     memo rebound to [shell] with a forked registry: placing never touches
     [e]'s registry, and every placement allocates the ids a fresh compile
     would. The groups stay shared; the enumeration's only write to them
     (step 03's merge) is idempotent. *)
  let memo =
    { e.e_memo with Memo.shell; reg = Algebra.Registry.copy e.e_memo.Memo.reg }
  in
  (* The baseline runs before the PDW enumeration so its plan can seed
     the enumeration's fixed cost upper bound (and so a fallback after a
     mid-enumeration cancellation reuses it instead of recomputing). It
     allocates no registry columns. *)
  let baseline_plan =
    Obs.with_span obs "baseline_parallelize" @@ fun () ->
    match serial.Serialopt.Optimizer.best with
    | Some best ->
      (try Some (Baseline.parallelize ~opts:opts.pdw reg shell best)
       with Baseline.Cannot_parallelize _ -> None)
    | None -> None
  in
  let upper_bound =
    Option.map
      (fun (b : Pdwopt.Pplan.t) ->
         (* margin: strictly above the baseline's cost, so the enumerated
            plan that matches or beats the baseline is never pruned even
            under float rounding *)
         (b.Pdwopt.Pplan.dms_cost *. (1. +. 1e-9)) +. 1e-9)
      baseline_plan
  in
  match
    (* Fig. 4, steps 01-09; a token trip raises {!Governor.Cancelled} *)
    let pdw =
      Obs.with_span obs "pdw_optimize" @@ fun () ->
      Pdwopt.Optimizer.optimize ~obs ~opts:opts.pdw ~token ~pool ?upper_bound
        ?empty:e.e_empty memo
    in
    let dsql = dsql_generate obs memo.Memo.reg pdw.Pdwopt.Optimizer.plan in
    if check then check_plan obs shell opts.pdw memo.Memo.reg pdw.Pdwopt.Optimizer.plan dsql;
    (pdw, dsql)
  with
  | pdw, dsql ->
    let degraded =
      if serial.Serialopt.Optimizer.interrupted <> None then Some Anytime
      else None
    in
    ( { c_serial = serial; c_memo_xml = e.e_memo_xml; c_memo = memo; c_pdw = pdw;
        c_dsql = dsql; c_baseline = baseline_plan },
      degraded )
  | exception (Governor.Cancelled _ as cancelled) ->
    (* The PDW enumeration was interrupted: degrade to the §3.2 baseline
       — the best serial plan parallelized greedily (already computed
       above). The fallback runs to completion even on an expired token
       (none of its stages poll), so the degradation overhead is a
       bounded constant. *)
    Obs.with_span obs "governor.fallback" @@ fun () ->
    (match baseline_plan with
     | None ->
       (* nothing to degrade to: surface the cancellation itself *)
       raise cancelled
     | Some plan ->
       let dsql = dsql_generate obs reg plan in
       (* a degraded plan must still prove itself: the check stage runs
          unconditionally here, even when the caller disabled [check] *)
       check_plan obs shell opts.pdw reg plan dsql;
       let body =
         match plan.Pdwopt.Pplan.children with
         | [ body ] -> body
         | _ -> plan
       in
       let pdw =
         { Pdwopt.Optimizer.plan;
           options_at_root = [ (body.Pdwopt.Pplan.dist, body) ];
           options = Hashtbl.create 1;
           stats =
             { Pdwopt.Enumerate.pdw_exprs_enumerated = 0; options_kept = 0;
               groups_processed = 0; enforcer_moves = 0; par_levels = 0;
               par_groups = 0 } }
       in
       ( { c_serial = serial; c_memo_xml = e.e_memo_xml; c_memo = memo;
           c_pdw = pdw; c_dsql = dsql; c_baseline = baseline_plan },
         Some Fallback ))

let assemble obs ~query ~algebrized ~normalized tail degraded fingerprint =
  if degraded <> None then Obs.add obs "governor.degraded" 1;
  { query; algebrized; normalized; serial = tail.c_serial;
    memo_xml = tail.c_memo_xml; memo = tail.c_memo; pdw = tail.c_pdw;
    dsql = tail.c_dsql; baseline_plan = tail.c_baseline; fingerprint; degraded }

(** The explore half on its own: parse, hints, algebrize, normalize,
    serial exploration, the optional XML round trip and the empty-group
    analysis. *)
let explore ~options shell sql : explored =
  let obs = Obs.null in
  explore_front obs Governor.none shell (front obs options shell sql)

(** The place half on its own: finish an explored statement on [shell]. *)
let place shell (e : explored) : result =
  let obs = Obs.null in
  let tail, degraded = place_tail obs true Governor.none Par.sequential shell e in
  assemble obs ~query:e.e_query ~algebrized:e.e_algebrized
    ~normalized:e.e_normalized tail degraded None

(** Run the full optimization pipeline on a SQL string: {!place} after
    {!explore}. Pass an enabled [obs] context to collect the per-stage
    span tree and counters; pass a [cache] to skip everything after
    normalization on a repeated tree, and the front end as well on a
    repeated text. *)
let optimize ?(obs = Obs.null) ?(options : options option) ?(cache : cache option)
    ?(check = true) ?(token = Governor.none) ?(pool = Par.sequential)
    (shell : Catalog.Shell_db.t) (sql : string) : result =
  let opts = resolve_options shell options in
  (* Arm the per-statement compile deadline here (the single arming site:
     [Driver] passes the knob through rather than arming the token
     itself). A dead [Governor.none] token gets a live replacement so the
     knob works for direct [optimize] callers too. *)
  let token =
    match opts.governor.Governor.deadline with
    | None -> token
    | Some d ->
      let token =
        if token == Governor.none then Governor.create () else token
      in
      Governor.add_deadline token ~clock:Governor.wall_clock
        ~deadline:(Governor.wall_clock () +. d);
      token
  in
  Obs.with_span obs "pipeline" @@ fun () ->
  (* everything below normalization is a pure function of (normalized tree,
     knobs, statistics) — exactly what the plan-cache fingerprint keys on *)
  let compile_tail fr = place_tail obs check token pool shell (explore_front obs token shell fr) in
  match cache with
  | None ->
    let ((_, query, algebrized, normalized) as fr) = front obs opts shell sql in
    let tail, degraded = compile_tail fr in
    assemble obs ~query ~algebrized ~normalized tail degraded None
  | Some c ->
    let statement = Plancache.statement ~shell opts sql in
    (match Plancache.find_statement c statement with
     | Some ((query, algebrized, normalized), fp, tail) ->
       (* this text was served with these knobs and statistics, and its
          tail is still cached: no front end and no fingerprint *)
       Obs.add obs "plancache.hit" 1;
       assemble obs ~query ~algebrized ~normalized tail None (Some fp)
     | None ->
       (* a cached front is never compiled again (the enumeration may
          allocate into its registry), so without a usable statement
          entry the front end runs fresh *)
       let ((opts, query, algebrized, normalized) as fr) = front obs opts shell sql in
       let fp =
         Obs.with_span obs "plancache" @@ fun () ->
         Plancache.fingerprint ~shell opts normalized
       in
       (* filed only beside a non-degraded tail just admitted or hit *)
       let file_statement () =
         if Plancache.add_statement c statement ~fingerprint:fp (query, algebrized, normalized)
         then Obs.add obs "plancache.evict" 1
       in
       (match Plancache.find c fp with
        | Some tail ->
          Obs.add obs "plancache.hit" 1;
          file_statement ();
          assemble obs ~query ~algebrized ~normalized tail None (Some fp)
        | None ->
          Obs.add obs "plancache.miss" 1;
          (* [compile_tail] runs the check stage before this point, so an
             invalid plan raises and is never admitted to the cache *)
          let tail, degraded = compile_tail fr in
          (match degraded with
           | None ->
             if Plancache.add c fp tail then Obs.add obs "plancache.evict" 1;
             file_statement ()
           | Some _ ->
             (* never cache a degraded plan: a truncated-search result must
                not be served to a caller with a full budget (or to this
                caller again once pressure subsides) *)
             ignore (Plancache.note_degraded c fp);
             Obs.add obs "plancache.evictions_degraded" 1);
          assemble obs ~query ~algebrized ~normalized tail degraded (Some fp)))

(** The chosen distributed plan. *)
let plan r = r.pdw.Pdwopt.Optimizer.plan

(** Pretty explanation: parallel plan + DSQL steps. *)
let explain (r : result) : string =
  let reg = r.memo.Memo.reg in
  Printf.sprintf "-- parallel plan --\n%s\n\n-- DSQL plan --\n%s"
    (Pdwopt.Pplan.to_string reg (plan r))
    (Dsql.Generate.to_string r.dsql)

(** Execute the chosen plan on an appliance; returns the client result.
    [obs], [token], [fault] and [observe] are forwarded to
    {!Engine.Appliance.run_pplan}, with the executor's counters under an
    [execute] span. When [cache] is given and the appliance's {!Check}
    gate rejects the plan, the plan's cache entry is evicted before
    {!Check.Invalid} propagates — a poisoned entry must not be served on
    the next hit. *)
let run ?(obs = Obs.null) ?(cache : cache option) ?token ?fault ?observe
    (app : Engine.Appliance.t) (r : result) : Engine.Local.rset =
  try
    Obs.with_span obs "execute" (fun () ->
        Engine.Appliance.run_pplan ~obs ?token ?fault ?observe app (plan r))
  with Check.Invalid _ as e ->
    (match cache, r.fingerprint with
     | Some c, Some fp ->
       if Plancache.remove_invalid c fp then
         Obs.add obs "plancache.evictions_invalid" 1
     | _ -> ());
    raise e

(** Execute the baseline (parallelized best serial) plan. *)
let run_baseline (app : Engine.Appliance.t) (r : result) : Engine.Local.rset option =
  Option.map (Engine.Appliance.run_pplan app) r.baseline_plan

(** Single-node reference execution of the best serial plan (oracle). *)
let run_reference (app : Engine.Appliance.t) (r : result) : Engine.Local.rset option =
  Option.map (Engine.Appliance.run_reference app) r.serial.Serialopt.Optimizer.best

(** The query's output columns (display name, column id). *)
let output_columns (r : result) = r.algebrized.Algebra.Algebrizer.output

(** The [--assert-bounds] oracle over [r]'s plan: an observer for {!run}'s
    [observe] hook checking every executed operator against the static
    cardinality bounds the abstract interpreter derives for it on the
    shell the plan was placed on, and the violation count so far. *)
let bounds_oracle ?obs (r : result) =
  let shell = r.memo.Memo.shell in
  let actx =
    Analysis.context ~shell ~reg:r.memo.Memo.reg
      ~nodes:(Catalog.Shell_db.node_count shell)
  in
  Check.bounds_observer ?obs (Check.group_bounds actx (plan r))

type oracle = string -> result -> Engine.Local.rset -> bool

(* -- the feedback harvest: what one execution observed, as log records -- *)

(* registry column ids -> catalog (table, column) names, sorted; derived
   columns (aggregate outputs, computed projections) have no catalog
   statistics object to refine and are dropped *)
let cols_of_ids (reg : Algebra.Registry.t) ids =
  List.filter_map
    (fun id ->
       match (Algebra.Registry.info reg id).Algebra.Registry.source with
       | Algebra.Registry.Base { table; column; _ } ->
         Some (String.lowercase_ascii table, String.lowercase_ascii column)
       | Algebra.Registry.Derived _ -> None
       | exception Invalid_argument _ -> None)
    ids
  |> List.sort_uniq compare

let harvest ?observe (r : result) =
  let reg = r.memo.Memo.reg in
  let acc = ref [] in
  let harvest (p : Pdwopt.Pplan.t) actual =
    (match p.Pdwopt.Pplan.op with
     | Pdwopt.Pplan.Serial op ->
       let open Memo.Physop in
       let of_pred pred = Algebra.Registry.Col_set.elements (Algebra.Expr.cols pred) in
       let table, cols =
         match op with
         | Table_scan { table; _ } -> (Some (String.lowercase_ascii table), [])
         | Filter pred
         | Hash_join { pred; _ } | Merge_join { pred; _ } | Nl_join { pred; _ } ->
           (None, of_pred pred)
         | Hash_agg { keys; _ } | Stream_agg { keys; _ } -> (None, keys)
         | Compute _ | Sort_op _ | Union_op | Const_empty _ -> (None, [])
       in
       acc :=
         { Fbk.Log.o_group = p.Pdwopt.Pplan.group; o_op = name op; o_table = table;
           o_cols = cols_of_ids reg cols; o_est = p.Pdwopt.Pplan.rows;
           o_actual = actual }
         :: !acc
     | _ -> ());
    Option.iter (fun f -> f p actual) observe
  in
  (harvest, fun () -> List.rev !acc)

(* the DMS samples recorded since [mark], in execution order: the list
   grows newest-first in the caller domain, so the new samples are the
   prefix above the mark *)
let samples_since (acct : Engine.Appliance.account) mark =
  let rec fresh acc = function
    | l when l == mark -> acc
    | s :: rest -> fresh (s :: acc) rest
    | [] -> acc
  in
  fresh [] acct.Engine.Appliance.samples

(* alias for use inside the driver, whose own [run] shadows the name *)
let execute_result = run

module Driver = struct
  module Log = Fbk.Log
  module Store = Fbk.Store

  (* the catalog, appliance and options statements compile and execute
     against, replaced as one value (a decommission, a committed move, a
     calibration) so a compiling statement always reads a consistent
     triple *)
  type topology = {
    shell : Catalog.Shell_db.t;
    app : Engine.Appliance.t;
    options : options;
  }

  type t = {
    topo : topology Atomic.t;
    cache : cache option;
    check : bool;
    gate : Governor.Gate.t;
    breaker : Governor.Breaker.t;
    store : result Store.t option;
    log : Log.t;
    fault : Fault.plan;   (** every execution's and every move's plan *)
    mutable calibrations : int;
    exec_mutex : Mutex.t;
        (** the simulated appliance executes one statement at a time (its
            clock and storage are statement-scoped); the gate bounds how
            many statements are in flight (compiling + waiting to run) *)
  }

  let sim_clock topo () =
    (Atomic.get topo).app.Engine.Appliance.account.Engine.Appliance.sim_time

  (* node-crash recoveries per statement *)
  let max_replans = 8

  let create ?cache ?options ?(check = true) ?(max_concurrent = 4) ?(queue_limit = 16)
      ?(breaker_threshold = 3) ?(breaker_cooldown = 1.0) ?(plan_store = false) ?log
      ?(fault = Fault.none) (shell : Catalog.Shell_db.t) (app : Engine.Appliance.t) : t =
    let topo = Atomic.make { shell; app; options = resolve_options shell options } in
    let store = if plan_store then Some (Store.create ()) else None in
    { topo;
      (* fingerprints key the plan store, so a store brings a cache *)
      cache = (if cache = None && store <> None then Some (Plancache.create ()) else cache);
      check;
      gate = Governor.Gate.create ~max_concurrent ~queue_limit ();
      breaker =
        (* cooldown charged to the simulated clock of whichever appliance
           is serving: deterministic, and a poison query's quarantine
           scales with simulated work, not with host wall time *)
        Governor.Breaker.create ~threshold:breaker_threshold
          ~cooldown:breaker_cooldown ~clock:(sim_clock topo) ();
      store;
      log = Option.value log ~default:(Log.create ());
      fault; calibrations = 0;
      exec_mutex = Mutex.create () }

  let app t = (Atomic.get t.topo).app
  let shell t = (Atomic.get t.topo).shell
  let options t = (Atomic.get t.topo).options
  let nodes t = (app t).Engine.Appliance.nodes
  let epoch t = (app t).Engine.Appliance.epoch
  let cache t = t.cache
  let gate t = t.gate
  let breaker t = t.breaker
  let store t = t.store
  let log t = t.log
  let fault t = t.fault

  let set_options t options =
    Atomic.set t.topo { (Atomic.get t.topo) with options }

  let install t (app' : Engine.Appliance.t) =
    let n = app'.Engine.Appliance.nodes and o = options t in
    Atomic.set t.topo
      { shell = app'.Engine.Appliance.shell; app = app';
        options =
          { o with pdw = { o.pdw with Pdwopt.Enumerate.nodes = n } } }

  let replan ?(obs = Obs.null) t ~replans (failure : Fault.failure) =
    if nodes t <= 1 || replans >= max_replans then
      raise (Fault.Exhausted { failure; attempts = replans + 1 });
    install t
      (Obs.with_span obs "fault.replan" @@ fun () ->
       Engine.Appliance.decommission ~obs (app t) ~node:failure.Fault.node)

  type served = {
    res : result;
    rows : Engine.Local.rset;
    observed_sim : float;
    observed_dms : float;
    fellback : bool;
    store_outcome : Store.outcome option;
  }

  type outcome =
    | Returned of served
    | Rejected of Governor.Gate.rejection
    | Shed of { retry_after : float }
    | Timed_out of Governor.reason
    | Exhausted of { failure : Fault.failure; attempts : int }
    | Invalid of Check.violation list

  let outcome_to_string = function
    | Returned s ->
      Printf.sprintf "returned(%d rows%s)" (List.length s.rows.Engine.Local.rows)
        (match s.res.degraded with
         | Some d -> ", degraded=" ^ degradation_to_string d
         | None -> "")
    | Rejected rej ->
      Printf.sprintf "rejected(running=%d,queued=%d,queue_limit=%d)"
        rej.Governor.Gate.running rej.Governor.Gate.queued
        rej.Governor.Gate.queue_limit
    | Shed { retry_after } -> Printf.sprintf "shed(retry_after=%.3fs)" retry_after
    | Timed_out reason ->
      Printf.sprintf "timed_out(%s)" (Governor.reason_to_string reason)
    | Exhausted { failure; attempts } ->
      Printf.sprintf "exhausted(%s after %d attempts)"
        (Fault.failure_to_string failure) attempts
    | Invalid vs -> Printf.sprintf "invalid(%s)" (Check.to_string vs)

  let returned = function
    | Returned s -> s
    | Rejected rej -> raise (Governor.Gate.Rejected rej)
    | Timed_out reason -> raise (Governor.Cancelled { reason; where = "driver" })
    | Exhausted { failure; attempts } -> raise (Fault.Exhausted { failure; attempts })
    | Invalid vs -> raise (Check.Invalid vs)
    | Shed _ as oc -> failwith (outcome_to_string oc)

  (* the last-known-good plan substituted for a quarantined compile; an
     LKG serves only the catalog it was placed on (a decommission or a
     move retires its layout) *)
  let resolve ~obs t topo key (compiled : result) =
    match t.store, compiled.fingerprint with
    | Some store, Some fingerprint ->
      (match Store.lkg store key with
       | Some (_, (lkg : result), _) when lkg.memo.Memo.shell == topo.shell ->
         (match Store.resolve store ~statement:key ~fingerprint with
          | Some lkg ->
            Obs.add obs "feedback.fallbacks" 1;
            (lkg, true)
          | None -> (compiled, false))
       | _ -> (compiled, false))
    | _ -> (compiled, false)

  (* execute [r] on [topo]'s appliance through the harvest, then append
     the log record and feed the store. The account is the caller's: the
     statement's cost is the delta across it *)
  let execute ~obs ~observe t topo key token (compiled : result) =
    let r, fellback = resolve ~obs t topo key compiled in
    let observe, ops = harvest ?observe r in
    let acct = topo.app.Engine.Appliance.account in
    let sim0 = acct.Engine.Appliance.sim_time and dms0 = acct.Engine.Appliance.dms_time in
    let mark = acct.Engine.Appliance.samples in
    let wall0 = Obs.default_clock () in
    let rows = execute_result ~obs ?cache:t.cache ~token ~fault:t.fault ~observe topo.app r in
    let wall = Obs.default_clock () -. wall0 in
    let sim = acct.Engine.Appliance.sim_time -. sim0 in
    let fingerprint = Option.value r.fingerprint ~default:"" in
    let degraded = r.degraded <> None in
    Log.append t.log
      { Log.r_statement = key; r_fingerprint = fingerprint; r_ops = ops ();
        r_dms = samples_since acct mark; r_sim = sim; r_wall = wall;
        r_degraded = degraded };
    let store_outcome =
      Option.map
        (fun store ->
           let oc = Store.observe store ~statement:key ~fingerprint ~degraded ~sim ~wall r in
           (match oc with
            | Store.Regressed _ -> Obs.add obs "feedback.regressions" 1
            | Store.Quarantined ->
              Obs.add obs "feedback.regressions" 1;
              Obs.add obs "feedback.quarantines" 1
            | _ -> ());
           oc)
        t.store
    in
    { res = r; rows; observed_sim = sim;
      observed_dms = acct.Engine.Appliance.dms_time -. dms0; fellback; store_outcome }

  (* steps 3-6 for one admitted statement: compile against the current
     topology, then execute under the exec mutex; a node crash
     decommissions the dead node and compiles again on the survivors *)
  let serve ~obs ?observe t key token sql =
    let armed = ref false in
    let rec attempt replans =
      let topo = Atomic.get t.topo in
      let compiled =
        (* compile on the appliance's pool too: with the leveled
           wavefront, `--jobs` covers compilation, not just execution *)
        optimize ~obs ~options:topo.options ?cache:t.cache ~check:t.check ~token
          ~pool:topo.app.Engine.Appliance.pool topo.shell sql
      in
      Mutex.lock t.exec_mutex;
      let step =
        Fun.protect ~finally:(fun () -> Mutex.unlock t.exec_mutex) @@ fun () ->
        if Atomic.get t.topo != topo then `Stale
        else begin
          if not !armed then begin
            armed := true;
            Option.iter
              (fun d ->
                 let sim = sim_clock t.topo in
                 Governor.add_deadline token ~clock:sim ~deadline:(sim () +. d))
              topo.options.governor.Governor.sim_deadline
          end;
          (* [observe] sees the first attempt only: a replanned attempt runs
             a different plan than the caller's *)
          let observe = if replans = 0 then observe else None in
          match execute ~obs ~observe t topo key token compiled with
          | served -> `Served served
          | exception Fault.Injected ({ Fault.site = Fault.Node_crash; _ } as failure) ->
            replan ~obs t ~replans failure;
            Obs.add obs "fault.replan_statements" 1;
            `Replanned
        end
      in
      match step with
      | `Served served -> served
      | `Stale -> attempt replans   (* the topology moved while compiling *)
      | `Replanned -> attempt (replans + 1)
    in
    attempt 0

  let run ?(obs = Obs.null) ?observe (t : t) (sql : string) : outcome =
    let key = Plancache.statement_key sql in
    let admitted =
      Governor.Gate.try_admit ~obs t.gate @@ fun () ->
      match Governor.Breaker.check ~obs t.breaker key with
      | `Shed retry_after -> Shed { retry_after }
      | `Proceed ->
        (match serve ~obs ?observe t key (Governor.create ()) sql with
         | served ->
           Governor.Breaker.success t.breaker key;
           Returned served
         | exception Governor.Cancelled { reason; _ } -> Timed_out reason
         | exception Fault.Exhausted { failure; attempts } ->
           Governor.Breaker.failure ~obs t.breaker key;
           Exhausted { failure; attempts }
         | exception Check.Invalid vs ->
           Governor.Breaker.failure ~obs t.breaker key;
           Invalid vs)
    in
    match admitted with
    | Ok outcome -> outcome
    | Error rej -> Rejected rej

  let reset (t : t) =
    Engine.Appliance.reset_account (app t);
    Governor.Gate.reset_stats t.gate;
    Governor.Breaker.reset_stats t.breaker

  type tally = {
    statements : int; returned : int; degraded : int; wrong : int;
    rejected : int; shed : int; timed_out : int; exhausted : int; invalid : int;
    misses : (string * outcome) list;
  }

  (* the one outcome accounting of a served storm *)
  let tally ~(oracle : oracle) outcomes =
    let count p l = List.length (List.filter (fun (_, oc) -> p oc) l) in
    let misses =
      List.filter
        (function id, Returned s -> not (oracle id s.res s.rows) | _ -> true)
        outcomes
    in
    let returned = function Returned _ -> true | _ -> false in
    { statements = List.length outcomes;
      returned = count returned outcomes;
      degraded = count (function Returned s -> s.res.degraded <> None | _ -> false) outcomes;
      rejected = count (function Rejected _ -> true | _ -> false) outcomes;
      shed = count (function Shed _ -> true | _ -> false) outcomes;
      timed_out = count (function Timed_out _ -> true | _ -> false) outcomes;
      exhausted = count (function Exhausted _ -> true | _ -> false) outcomes;
      invalid = count (function Invalid _ -> true | _ -> false) outcomes;
      wrong = count returned misses;
      misses }

  (* every statement races through [run]: Par's caller-participation pool
     handles the nested fan-out (statements here, appliance shards inside
     execution) without deadlock; gate waiters block on a condition, not a
     pool slot *)
  let storm ~pool ~oracle t stmts =
    reset t;
    Array.of_list stmts
    |> Par.parallel_map pool (fun (id, sql) -> (id, run t sql))
    |> Array.to_list
    |> tally ~oracle
end

module Feedback = struct
  (** The calibration side of the feedback loop (DESIGN.md §9): what a
      {!Driver} harvested, folded back into the catalog. *)

  module Log = Fbk.Log
  module Misses = Fbk.Misses
  module Store = Fbk.Store

  let harvest = harvest

  (** Symmetric model-vs-sim cost error of one executed plan, always
      >= 1: the model side is the plan's predicted DMS cost, the sim side
      the DMS seconds the appliance actually charged. *)
  let model_error (r : result) ~dms_time =
    let m = (plan r).Pdwopt.Pplan.dms_cost and s = dms_time in
    if m <= 0. || s <= 0. then 1. else Float.max (m /. s) (s /. m)

  (* all values of one column of the table's whole contents (shards in
     node order, one copy of a replicated table) — deterministic at any
     [--jobs] because shard contents and order are load-order stable *)
  let column_values (d : Driver.t) table column =
    match Catalog.Shell_db.find (Driver.shell d) table with
    | None -> None
    | Some tbl ->
      Option.bind (Catalog.Schema.find_col tbl.Catalog.Shell_db.schema column) @@ fun idx ->
      Option.map
        (fun all -> List.map (fun row -> row.(idx)) (Engine.Rset.to_local all).Engine.Local.rows)
        (Engine.Appliance.table_contents (Driver.app d) table)

  let measure ?(bounds = false) (d : Driver.t) sql =
    let observe, violations =
      if not bounds then (None, fun () -> 0)
      else
        let observe, violations =
          bounds_oracle
            (optimize ~options:(Driver.options d) ?cache:(Driver.cache d)
               (Driver.shell d) sql)
        in
        (Some observe, violations)
    in
    Driver.reset d;
    let s = Driver.returned (Driver.run ?observe d sql) in
    (model_error s.Driver.res ~dms_time:s.Driver.observed_dms, violations ())

  type calibration = {
    refined : Misses.miss list;       (** columns whose statistics were rebuilt *)
    lambdas : Dms.Cost.lambdas;       (** the re-fitted λ table now in force *)
    fits : Dms.Calibrate.fit list;    (** per-component fit quality *)
    new_epoch : int;
  }

  (* a column is refined when its estimates missed by more than this
     factor; its rebuilt histogram has [refine_buckets] buckets *)
  let miss_threshold = 2.0
  let refine_buckets = 64

  (** Fold the driver's log back into the catalog: rebuild statistics for
      every column whose estimates missed by more than [miss_threshold] (a
      full-resolution scan of the true shards, via
      {!Catalog.Col_stats.refine} — widening-only, so R11 bounds stay
      sound), then re-fit the λ table from the observed DMS volumes and
      install it in the driver's options. Both folds are pure functions of
      the log (λs are always fitted against {!Dms.Cost.default_lambdas} as
      the base, not compounded), so the same log yields bit-identical
      refined stats and λs at any [--jobs]. Counts the calibration and
      {!Catalog.Shell_db.touch}es the shell, so every statement recompiles
      on its next run even when nothing was refined. *)
  let calibrate ?(obs = Obs.null) (d : Driver.t) : calibration =
    let shell = Driver.shell d in
    let recs = Log.records (Driver.log d) in
    let misses = Misses.columns ~threshold:miss_threshold recs in
    let refined =
      List.filter
        (fun (m : Misses.miss) ->
           match column_values d m.Misses.m_table m.Misses.m_column with
           | None -> false
           | Some values ->
             let tbl = Catalog.Shell_db.find_exn shell m.Misses.m_table in
             let cs =
               match Catalog.Shell_db.col_stats tbl m.Misses.m_column with
               | Some cs -> cs
               | None -> Catalog.Col_stats.make ()
             in
             Catalog.Shell_db.update_col_stats shell m.Misses.m_table
               m.Misses.m_column
               (Catalog.Col_stats.refine ~nbuckets:refine_buckets cs values);
             true)
        misses
    in
    let lambdas, fits =
      Dms.Calibrate.fit (List.concat_map (fun (r : Log.record) -> r.Log.r_dms) recs)
    in
    let o = Driver.options d in
    Driver.set_options d { o with pdw = { o.pdw with Pdwopt.Enumerate.lambdas } };
    Catalog.Shell_db.touch shell;
    d.Driver.calibrations <- d.Driver.calibrations + 1;
    Obs.add obs "feedback.calibrations" 1;
    Obs.add obs "feedback.refined_columns" (List.length refined);
    { refined; lambdas; fits; new_epoch = d.Driver.calibrations }
end

module Workload = struct
  (** Convenience setup: a TPC-H appliance with generated data and global
      statistics computed the PDW way — local per-node statistics merged
      into global shell statistics (paper §2.2). *)

  type t = {
    shell : Catalog.Shell_db.t;
    app : Engine.Appliance.t;
    db : Tpch.Datagen.db;
  }

  let tpch ?(node_count = 8) ?(sf = 0.01) ?(engine = Engine.Rset.Row) () : t =
    let shell = Catalog.Shell_db.create ~node_count in
    Tpch.Schema.install shell;
    let db = Tpch.Datagen.generate sf in
    let app = Engine.Appliance.create ~engine shell in
    (* shard contents and order are engine-independent: both loaders
       hash-partition with the same route hash in generation order *)
    List.iter
      (fun (schema, _) ->
         let name = schema.Catalog.Schema.name in
         match engine with
         | Engine.Rset.Row ->
           Engine.Appliance.load_table app name (Tpch.Datagen.rows db name)
         | Engine.Rset.Columnar ->
           Engine.Appliance.load_table_cols app name (Tpch.Datagen.table db name))
      Tpch.Schema.layout;
    (* global statistics = merge of per-node local statistics (§2.2) *)
    List.iter
      (fun (schema, dist) ->
         let name = schema.Catalog.Schema.name in
         let stats =
           match dist with
           | Catalog.Distribution.Replicated ->
             (* every node holds a full copy; one local computation suffices *)
             Catalog.Tbl_stats.of_rows schema (Engine.Appliance.node_table app 0 name)
           | Catalog.Distribution.Hash_partitioned _ ->
             Catalog.Tbl_stats.merge
               (List.init node_count (fun node ->
                    Catalog.Tbl_stats.of_rows schema
                      (Engine.Appliance.node_table app node name)))
         in
         Catalog.Shell_db.set_stats shell name stats)
      Tpch.Schema.layout;
    { shell; app; db }

  let oracle (w : t) stmts : oracle =
    (* rows compared as a multiset over the output columns only *)
    let canonical r rows =
      Engine.Local.canonical ~cols:(List.map snd (output_columns r)) rows
    in
    let table = Hashtbl.create 16 in
    List.iter
      (fun (id, sql) ->
         if not (Hashtbl.mem table id) then begin
           let r = optimize w.shell sql in
           Engine.Appliance.reset_account w.app;
           Hashtbl.add table id (canonical r (run w.app r))
         end)
      stmts;
    fun id r rows -> canonical r rows = Hashtbl.find table id
end
