(** The PDW query optimizer pipeline (paper Fig. 4, steps 01-12; DSQL
    generation, steps 10-11, lives in the {!Dsql} library). *)

open Algebra
open Memo

type result = {
  plan : Pplan.t;                 (** the chosen distributed plan (with Return) *)
  options_at_root : (Dms.Distprop.t * Pplan.t) list;
  options : (int, (Dms.Distprop.t * Pplan.t) list) Hashtbl.t;
      (** kept options per group (the augmented MEMO of Fig. 3c) *)
  stats : Enumerate.stats;
}

exception No_plan of string

(* Step 03: merge group expressions that are equivalent from the PDW
   perspective. Structural duplicates are already removed by the MEMO's
   dedup table; here we drop physical serial alternatives whose distinction
   the PDW layer ignores (order-based algorithms shadowed by their hash
   counterparts), keeping the group lists small. *)
let preprocess_merge (m : Memo.t) =
  Memo.iter_groups m (fun g ->
      let keep (e : gexpr) =
        match e.op with
        | Physical (Physop.Merge_join { kind; pred }) ->
          (* drop if the equivalent hash join exists in the group *)
          not
            (List.exists
               (fun (e' : gexpr) ->
                  match e'.op with
                  | Physical (Physop.Hash_join { kind = k'; pred = p' }) ->
                    k' = kind && Expr.equal p' pred && e'.children = e.children
                  | _ -> false)
               g.Memo.exprs)
        | Physical (Physop.Stream_agg { keys; aggs }) ->
          not
            (List.exists
               (fun (e' : gexpr) ->
                  match e'.op with
                  | Physical (Physop.Hash_agg { keys = k'; aggs = a' }) ->
                    k' = keys && a' = aggs && e'.children = e.children
                  | _ -> false)
               g.Memo.exprs)
        | _ -> true
      in
      g.Memo.exprs <- List.filter keep g.Memo.exprs)

(* Step 09: post-optimization rules on the chosen plan tree. *)
let rec post_optimize (p : Pplan.t) : Pplan.t =
  let p = { p with Pplan.children = List.map post_optimize p.Pplan.children } in
  match p.Pplan.op, p.Pplan.children with
  | Pplan.Move _, [ c ] when Dms.Distprop.equal c.Pplan.dist p.Pplan.dist ->
    (* identity movement *)
    c
  | _ -> p

(* Root ORDER BY / TOP: the Return operation merges and limits at the
   control node (the paper's final "Return" DSQL step). *)
let root_sort_limit (m : Memo.t) =
  let root = Memo.root m in
  let found =
    List.find_map
      (fun (l, _) ->
         match l with
         | Relop.Sort { keys; limit } -> Some (keys, limit)
         | _ -> None)
      (Memo.logical_exprs m root)
  in
  match found with
  | Some (keys, limit) -> (keys, limit)
  | None -> ([], None)

(* The final Return streams results to the client (paper §2.3: no temp
   table, no DMS); the client-bound bytes are identical whichever node the
   rows sit on, so the Return contributes nothing to plan discrimination. *)
let return_cost (_o : Enumerate.opts) (_p : Pplan.t) ~width = ignore width; 0.

(* Report the PDW side's counters (Fig. 4 steps 04-09) into [obs]: the
   enumeration/pruning balance, the enforcer's contribution, the size of
   the interesting-property map, and the chosen plan's per-DMS-op modelled
   movement volumes (rows x required width). *)
let report_obs obs (ctx : Enumerate.ctx) (derived : Derive.t) (m : Memo.t)
    (plan : Pplan.t) =
  if Obs.enabled obs then begin
    let s = Enumerate.stats_of ctx in
    Obs.add obs "pdw.groups_processed" s.Enumerate.groups_processed;
    Obs.add obs "pdw.exprs_enumerated" s.Enumerate.pdw_exprs_enumerated;
    Obs.add obs "pdw.options_kept" s.Enumerate.options_kept;
    Obs.add obs "pdw.exprs_pruned"
      (s.Enumerate.pdw_exprs_enumerated - s.Enumerate.options_kept);
    Obs.add obs "pdw.enforcer_moves" s.Enumerate.enforcer_moves;
    Obs.add obs "pdw.par_levels" s.Enumerate.par_levels;
    Obs.add obs "pdw.par_groups" s.Enumerate.par_groups;
    let igroups, ilists = Derive.interesting_size derived in
    Obs.add obs "pdw.interesting.groups" igroups;
    Obs.add obs "pdw.interesting.col_lists" ilists;
    Obs.add obs "pdw.required.groups" (Derive.required_size derived);
    let rec walk (p : Pplan.t) =
      (match p.Pplan.op with
       | Pplan.Move { kind; cols } ->
         let width =
           List.fold_left (fun a c -> a +. Registry.width m.Memo.reg c) 0. cols
         in
         let nm = Dms.Op.name kind in
         Obs.add obs (Printf.sprintf "pdw.move.%s.count" nm) 1;
         Obs.addf obs (Printf.sprintf "pdw.move.%s.bytes_est" nm)
           (p.Pplan.rows *. width);
         Obs.addf obs (Printf.sprintf "pdw.move.%s.rows_est" nm) p.Pplan.rows
       | Pplan.Serial _ | Pplan.Return _ -> ());
      List.iter walk p.Pplan.children
    in
    walk plan
  end

(** Run steps 01-09 over an (imported) MEMO and return the chosen plan. *)
let optimize ?(obs = Obs.null) ?(opts = Enumerate.default_opts)
    ?(token = Governor.none) ?(pool = Par.sequential) ?upper_bound ?empty
    (m : Memo.t) : result =
  (* 02-03: preprocessing *)
  preprocess_merge m;
  let root = Memo.root m in
  (* 04: top-down property derivation *)
  let derived = Obs.with_span obs "pdw.derive" (fun () -> Derive.derive m) in
  (* 05-07: bottom-up enumeration, leveled wavefront over [pool] *)
  let ctx, options =
    Obs.with_span obs "pdw.enumerate" @@ fun () ->
    let ctx = Enumerate.create_ctx ~token ~pool ?upper_bound ?empty m derived opts in
    let options = Enumerate.optimize_group ctx root in
    (* A finite bound can starve the root when the best distributed plan
       genuinely costs more than the seed (e.g. movement-heavy unions whose
       branches must be aligned): retry unbounded. The retry condition
       depends only on the bounded result, so it fires identically at any
       pool size. *)
    if options = [] && upper_bound <> None then begin
      let ctx = Enumerate.create_ctx ~token ~pool ?empty m derived opts in
      (ctx, Enumerate.optimize_group ctx root)
    end
    else (ctx, options)
  in
  if options = [] then raise (No_plan "no distributed plan found for the root group");
  (* 08: extract the best overall plan, adding the final Return *)
  let sort, limit = root_sort_limit m in
  let width = (Memo.props m root).Memo.width in
  let scored =
    List.map
      (fun (d, p) ->
         let total =
           Enumerate.total_cost opts p +. return_cost opts p ~width
         in
         (total, d, p))
      options
  in
  let _, _, best =
    List.fold_left
      (fun (bt, bd, bp) (t, d, p) -> if t < bt then (t, d, p) else (bt, bd, bp))
      (match scored with
       | first :: _ -> first
       | [] -> assert false)
      scored
  in
  (* 09: post-optimization *)
  let best = post_optimize best in
  let plan =
    { Pplan.op = Pplan.Return { sort; limit };
      children = [ best ];
      dist = Dms.Distprop.Single_node;
      rows = best.Pplan.rows;
      group = root;
      dms_cost = best.Pplan.dms_cost +. return_cost opts best ~width;
      serial_cost = best.Pplan.serial_cost }
  in
  report_obs obs ctx derived m plan;
  { plan; options_at_root = options; options = Enumerate.options_table ctx;
    stats = Enumerate.stats_of ctx }
