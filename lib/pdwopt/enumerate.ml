(** Bottom-up enumeration of distributed plans over the imported MEMO
    (paper Fig. 4, steps 05-07), parallelized as a leveled wavefront over
    the domain pool (Trummer & Koch: partition bottom-up enumeration by
    memo dependency level):

    - step 06.i: for each group, enumerate PDW options by considering all
      combinations of the child groups' kept options; a serial operator is
      usable only when the child distributions make local execution correct
      (collocated/directed/broadcast joins, local group-bys, and the
      local-global aggregation split);
    - step 06.ii: cost-based pruning — keep the best option per output
      distribution (best overall plus best per interesting property), and
      drop any option whose cumulative DMS cost exceeds a fixed shared
      upper bound (seeded from the serial baseline plan by the pipeline);
    - step 07: enforcer step — add data movement expressions producing each
      interesting distribution, costed with the DMS cost model.

    Parallel structure and determinism: a sequential pre-pass walks the
    memo exactly as the old recursive enumeration did, computing each
    group's dependency level (1 + max over child levels, back edges
    ignored), pre-allocating every aggregation split's fresh registry
    columns in that same visit order, and path-compressing the group
    union-find so worker-side lookups are read-only. Groups within a level
    are then [Par.parallel_map]ed: each group's work is a pure function of
    its children's already-published option lists, results land at their
    input index, and the caller publishes a level's option lists only after
    the whole level completes. A back-edge child has a strictly higher
    level than its parent, so its table entry is absent when the parent
    runs — the lookup returns [], reproducing the old cycle guard. The
    upper bound is fixed for the whole pass and pruning is strict ([>],
    never ties), so the kept tables — and therefore the winning plan — are
    identical at any [jobs] and any schedule. *)

open Algebra
open Memo

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
      (** fold groups proven empty by the analyzer (the [empty] predicate
          of {!create_ctx}) to a constant-empty operator before costing *)
}

let default_opts = {
  nodes = 8;
  lambdas = Dms.Cost.default_lambdas;
  serial_tiebreak = true;
  prune = true;
  hints = [];
  fold_empty = true;
}

type stats = {
  mutable pdw_exprs_enumerated : int;  (** options considered (pre-pruning) *)
  mutable options_kept : int;
  mutable groups_processed : int;
  mutable enforcer_moves : int;
      (** Move expressions added by the enforcer step (Fig. 4, step 07) *)
  mutable par_levels : int;  (** dependency levels in the wavefront *)
  mutable par_groups : int;  (** groups dispatched through the pool *)
}

let fresh_stats () =
  { pdw_exprs_enumerated = 0; options_kept = 0; groups_processed = 0;
    enforcer_moves = 0; par_levels = 0; par_groups = 0 }

type ctx = {
  m : Memo.t;
  derived : Derive.t;
  o : opts;
  table : (int, (Dms.Distprop.t * Pplan.t) list) Hashtbl.t;
  splits : (int * int, split option) Hashtbl.t;
      (* (group, expr index) -> aggregation split, precomputed sequentially
         so registry allocation never happens on a worker domain *)
  bound : float Atomic.t;
      (* fixed DMS-cost upper bound; [infinity] when no baseline is known *)
  stats : stats;
  token : Governor.token;
  pool : Par.t;
  empty : int -> bool;
      (* groups proven empty by the analyzer (read-only, precomputed
         sequentially; shared by worker domains) *)
}

(* -- local/global aggregation split -- *)

and split = {
  local_aggs : Expr.agg_def list;
  global_aggs : Expr.agg_def list;
  post_defs : (int * Expr.t) list option;
      (** when AVG is present: a Compute restoring the original outputs *)
}

let create_ctx ?(token = Governor.none) ?(pool = Par.sequential) ?upper_bound
    ?(empty = fun _ -> false) m derived o =
  { m; derived; o;
    table = Hashtbl.create 64;
    splits = Hashtbl.create 8;
    bound = Atomic.make (Option.value upper_bound ~default:infinity);
    stats = fresh_stats ();
    token; pool;
    empty = (if o.fold_empty then empty else fun _ -> false) }

let options_table ctx = ctx.table
let stats_of ctx = ctx.stats

(* rows per node under the uniformity assumption *)
let per_node o rows (d : Dms.Distprop.t) =
  match d with
  | Dms.Distprop.Hashed _ -> rows /. float_of_int (max 1 o.nodes)
  | Dms.Distprop.Replicated | Dms.Distprop.Single_node -> rows

(** Per-node serial work of one operator execution (tie-break metric). *)
let serial_local_cost o (op : Physop.t) ~out_rows ~out_dist ~inputs =
  let out = per_node o out_rows out_dist in
  let ins = List.map (fun (r, d) -> per_node o r d) inputs in
  Serialopt.Cost.local_cost op ~out ~inputs:ins

let total_cost o (p : Pplan.t) =
  if o.serial_tiebreak then p.Pplan.dms_cost +. (1e-9 *. p.Pplan.serial_cost)
  else p.Pplan.dms_cost

(* -- option table with pruning -- *)

let dist_key (d : Dms.Distprop.t) = Dms.Distprop.short_string d

(* safety cap on a group's kept options when pruning is off *)
let max_options_per_group = 512

(* [st] is the calling group's private counter block: workers never touch
   the shared [ctx.stats] (the caller merges at publish time). The bound
   check is strict and the bound never changes during a pass, so the same
   options are dropped at any jobs; an option above the bound can never be
   part of a winning plan because DMS cost only accumulates upward. *)
let add_option ctx st acc (p : Pplan.t) =
  st.pdw_exprs_enumerated <- st.pdw_exprs_enumerated + 1;
  if ctx.o.prune then begin
    if p.Pplan.dms_cost > Atomic.get ctx.bound then ()
    else begin
      let k = dist_key p.Pplan.dist in
      match List.assoc_opt k !acc with
      | Some (_, best) when total_cost ctx.o best <= total_cost ctx.o p -> ()
      | _ -> acc := (k, (p.Pplan.dist, p)) :: List.remove_assoc k !acc
    end
  end
  else if List.length !acc < max_options_per_group then
    acc := (string_of_int (List.length !acc), (p.Pplan.dist, p)) :: !acc

let split_aggs reg keys (aggs : Expr.agg_def list) : split option =
  if List.exists (fun a -> a.Expr.agg_distinct) aggs then None
  else begin
    let needs_post = List.exists (fun a -> a.Expr.agg_func = Expr.Avg) aggs in
    let fresh name ty =
      Registry.fresh reg ~name ~ty ~width:(float_of_int (Catalog.Types.default_width ty))
        (Registry.Derived name)
    in
    let locals = ref [] and globals = ref [] and posts = ref [] in
    List.iter
      (fun a ->
         match a.Expr.agg_func with
         | Expr.Sum | Expr.Min | Expr.Max ->
           let lid = fresh (Printf.sprintf "partial%d" a.Expr.agg_out)
               (Registry.ty reg a.Expr.agg_out) in
           locals := { a with Expr.agg_out = lid } :: !locals;
           globals :=
             { a with Expr.agg_arg = Some (Expr.Col lid) } :: !globals;
           if needs_post then posts := (a.Expr.agg_out, Expr.Col a.Expr.agg_out) :: !posts
         | Expr.Count | Expr.Count_star ->
           let lid = fresh (Printf.sprintf "partial_count%d" a.Expr.agg_out) Catalog.Types.Tint in
           locals := { a with Expr.agg_out = lid } :: !locals;
           globals :=
             { Expr.agg_out = a.Expr.agg_out; agg_func = Expr.Sum;
               agg_arg = Some (Expr.Col lid); agg_distinct = false } :: !globals;
           if needs_post then posts := (a.Expr.agg_out, Expr.Col a.Expr.agg_out) :: !posts
         | Expr.Avg ->
           let ls = fresh (Printf.sprintf "partial_sum%d" a.Expr.agg_out) Catalog.Types.Tfloat in
           let lc = fresh (Printf.sprintf "partial_cnt%d" a.Expr.agg_out) Catalog.Types.Tint in
           let gs = fresh (Printf.sprintf "global_sum%d" a.Expr.agg_out) Catalog.Types.Tfloat in
           let gc = fresh (Printf.sprintf "global_cnt%d" a.Expr.agg_out) Catalog.Types.Tint in
           locals :=
             { Expr.agg_out = lc; agg_func = Expr.Count; agg_arg = a.Expr.agg_arg;
               agg_distinct = false }
             :: { Expr.agg_out = ls; agg_func = Expr.Sum; agg_arg = a.Expr.agg_arg;
                  agg_distinct = false }
             :: !locals;
           globals :=
             { Expr.agg_out = gc; agg_func = Expr.Sum; agg_arg = Some (Expr.Col lc);
               agg_distinct = false }
             :: { Expr.agg_out = gs; agg_func = Expr.Sum; agg_arg = Some (Expr.Col ls);
                  agg_distinct = false }
             :: !globals;
           posts :=
             (a.Expr.agg_out,
              Expr.Bin (Expr.Div, Expr.Cast (Expr.Col gs, Catalog.Types.Tfloat), Expr.Col gc))
             :: !posts)
      aggs;
    let post_defs =
      if needs_post then
        Some (List.map (fun k -> (k, Expr.Col k)) keys @ List.rev !posts)
      else None
    in
    Some { local_aggs = List.rev !locals; global_aggs = List.rev !globals; post_defs }
  end

(* -- enumeration -- *)

let scan_dist (shell : Catalog.Shell_db.t) (table : string) (cols : int array) :
  Dms.Distprop.t =
  match Catalog.Shell_db.find shell table with
  | None -> Dms.Distprop.Hashed []
  | Some tbl ->
    (match tbl.Catalog.Shell_db.dist with
     | Catalog.Distribution.Replicated -> Dms.Distprop.Replicated
     | Catalog.Distribution.Hash_partitioned names ->
       let schema = tbl.Catalog.Shell_db.schema in
       let ids =
         List.filter_map
           (fun n ->
              match Catalog.Schema.find_col schema n with
              | Some i when i < Array.length cols -> Some cols.(i)
              | _ -> None)
           names
       in
       Dms.Distprop.Hashed ids)

(* §3.1 hints: a group whose expressions scan a hinted base table keeps only
   the options matching the hinted strategy (unless that would leave none). *)
let apply_hints ctx gid options =
  if ctx.o.hints = [] then options
  else begin
    let aliases =
      List.filter_map
        (fun (op, _) ->
           match op with
           | Physop.Table_scan { alias; _ } -> Some (String.lowercase_ascii alias)
           | _ -> None)
        (Memo.physical_exprs ctx.m gid)
    in
    let applicable =
      List.filter_map
        (fun (a, h) ->
           if List.mem (String.lowercase_ascii a) aliases then Some h else None)
        ctx.o.hints
    in
    match applicable with
    | [] -> options
    | h :: _ ->
      let keep (d, _) =
        match h, (d : Dms.Distprop.t) with
        | `Broadcast, Dms.Distprop.Replicated -> true
        | `Shuffle, Dms.Distprop.Hashed _ -> true
        | _ -> false
      in
      (match List.filter keep options with
       | [] -> options  (* unsatisfiable hint: ignore rather than fail *)
       | kept -> kept)
  end

(* [lookup c] reads a child group's published options. Children on lower
   levels are always published; a back-edge child (level strictly above the
   parent's) is not yet, and yields [] exactly like the old in-progress
   cycle guard. *)
let enumerate_expr ctx st lookup gid gprops acc idx
    ((op : Physop.t), (children : int array)) =
  let o = ctx.o in
  let mk_serial ?(rows = gprops.Memo.card) op dist (child_plans : Pplan.t list) =
    let serial =
      serial_local_cost o op ~out_rows:rows ~out_dist:dist
        ~inputs:(List.map (fun (c : Pplan.t) -> (c.Pplan.rows, c.Pplan.dist)) child_plans)
    in
    { Pplan.op = Pplan.Serial op; children = child_plans; dist; rows; group = gid;
      dms_cost = List.fold_left (fun a (c : Pplan.t) -> a +. c.Pplan.dms_cost) 0. child_plans;
      serial_cost =
        serial
        +. List.fold_left (fun a (c : Pplan.t) -> a +. c.Pplan.serial_cost) 0. child_plans }
  in
  match op, Array.to_list children with
  | Physop.Table_scan { table; cols; _ }, [] ->
    let dist = scan_dist ctx.m.Memo.shell table cols in
    add_option ctx st acc (mk_serial op dist [])
  | Physop.Const_empty _, [] ->
    add_option ctx st acc (mk_serial ~rows:0. op Dms.Distprop.Replicated []);
    add_option ctx st acc (mk_serial ~rows:0. op Dms.Distprop.Single_node [])
  | (Physop.Filter _ | Physop.Sort_op _), [ c ] ->
    List.iter
      (fun (cd, cp) -> add_option ctx st acc (mk_serial op cd [ cp ]))
      (lookup c)
  | Physop.Compute defs, [ c ] ->
    (* a projection renames hash-distribution columns it passes through *)
    let rename_dist (d : Dms.Distprop.t) =
      match d with
      | Dms.Distprop.Hashed cols when cols <> [] ->
        let rename c =
          match
            List.find_map
              (fun (out, e) ->
                 match e with Expr.Col c' when c' = c -> Some out | _ -> None)
              defs
          with
          | Some out -> out
          | None -> c
        in
        Dms.Distprop.Hashed (List.map rename cols)
      | d -> d
    in
    List.iter
      (fun (cd, cp) -> add_option ctx st acc (mk_serial op (rename_dist cd) [ cp ]))
      (lookup c)
  | Physop.Union_op, [ l; r ] ->
    (* a union executes locally when both branches share the distribution
       (paper sec. 3.1: search space extended around collocation of
       unions); enforcers on the branches provide the aligned options *)
    let lopts = lookup l and ropts = lookup r in
    List.iter
      (fun (ld, lp) ->
         List.iter
           (fun (rd, rp) ->
              let out =
                match ld, rd with
                | Dms.Distprop.Hashed lc, Dms.Distprop.Hashed rc when lc = rc && lc <> [] ->
                  Some ld
                | Dms.Distprop.Replicated, Dms.Distprop.Replicated ->
                  Some Dms.Distprop.Replicated
                | Dms.Distprop.Single_node, Dms.Distprop.Single_node ->
                  Some Dms.Distprop.Single_node
                | Dms.Distprop.Hashed lc, Dms.Distprop.Hashed rc
                  when lc <> [] && rc <> [] ->
                  None
                | (Dms.Distprop.Hashed _, Dms.Distprop.Hashed _) ->
                  (* at least one side has no usable hash property: the
                     union is still correct node-wise but unaligned *)
                  Some (Dms.Distprop.Hashed [])
                | _ -> None
              in
              match out with
              | Some dist -> add_option ctx st acc (mk_serial op dist [ lp; rp ])
              | None -> ())
           ropts)
      lopts
  | (Physop.Hash_join { kind; pred } | Physop.Nl_join { kind; pred }), [ l; r ] ->
    let lprops = Memo.props ctx.m l and rprops = Memo.props ctx.m r in
    let equi =
      Physop.oriented_equi_pairs pred ~left_cols:lprops.Memo.cols
        ~right_cols:rprops.Memo.cols
    in
    let lopts = lookup l and ropts = lookup r in
    List.iter
      (fun (ld, lp) ->
         List.iter
           (fun (rd, rp) ->
              match Dms.Distprop.join_local ~kind ~equi ld rd with
              | Some dist -> add_option ctx st acc (mk_serial op dist [ lp; rp ])
              | None -> ())
           ropts)
      lopts
  | (Physop.Merge_join _ | Physop.Stream_agg _), _ ->
    (* Order-requiring serial algorithms are resolved inside the serial
       optimizer's winners; the PDW layer composes order-agnostic
       operators only (hash variants always coexist in the MEMO). *)
    ()
  | Physop.Hash_agg { keys; aggs = _ }, [ c ] ->
    let copts = lookup c in
    (* (a) local-complete aggregation *)
    List.iter
      (fun (cd, cp) ->
         match Dms.Distprop.groupby_local ~keys cd with
         | Some dist -> add_option ctx st acc (mk_serial op dist [ cp ])
         | None -> ())
      copts;
    (* (b) local/global split: local partial agg, move, global agg. The
       split (with its fresh registry columns) was precomputed by the
       sequential pre-pass in the old recursive visit order. *)
    (match Hashtbl.find ctx.splits (gid, idx) with
     | None -> ()
     | Some split ->
       let local_op = Physop.Hash_agg { keys; aggs = split.local_aggs } in
       let global_op = Physop.Hash_agg { keys; aggs = split.global_aggs } in
       let n = float_of_int (max 1 o.nodes) in
       (* step 02 preprocessor rule: partial-aggregate cardinality fixed for
          the PDW topology (every group can appear on each node) *)
       let partial_rows card_child = Float.min card_child (gprops.Memo.card *. n) in
       let local_out_cols =
         keys @ List.map (fun a -> a.Expr.agg_out) split.local_aggs
       in
       let local_width =
         List.fold_left (fun a cid -> a +. Registry.width ctx.m.Memo.reg cid) 0. local_out_cols
       in
       let targets =
         (if keys = [] then [ Dms.Distprop.Single_node ]
          else
            List.map (fun k -> Dms.Distprop.Hashed [ k ]) keys
            @ (if List.length keys > 1 then [ Dms.Distprop.Hashed keys ] else [])
            @ [ Dms.Distprop.Single_node ])
       in
       List.iter
         (fun (cd, cp) ->
            match cd with
            | Dms.Distprop.Hashed _ ->
              let prows = partial_rows cp.Pplan.rows in
              let partial =
                { (mk_serial ~rows:prows local_op cd [ cp ]) with Pplan.group = -1 }
              in
              List.iter
                (fun target ->
                   let interesting = match target with
                     | Dms.Distprop.Hashed cols -> [ cols ]
                     | _ -> []
                   in
                   List.iter
                     (fun kind ->
                        let bd =
                          Dms.Cost.cost ~lambdas:o.lambdas kind ~nodes:o.nodes
                            ~rows:prows ~width:local_width
                        in
                        let moved =
                          { Pplan.op = Pplan.Move { kind; cols = local_out_cols };
                            children = [ partial ];
                            dist = target; rows = prows; group = -1;
                            dms_cost = partial.Pplan.dms_cost +. bd.Dms.Cost.c_total;
                            serial_cost = partial.Pplan.serial_cost }
                        in
                        let final = mk_serial global_op target [ moved ] in
                        let final =
                          match split.post_defs with
                          | None -> final
                          | Some defs -> mk_serial (Physop.Compute defs) target [ final ]
                        in
                        add_option ctx st acc { final with Pplan.group = gid })
                     (Dms.Op.moves_to ~interesting cd target))
                targets
            | Dms.Distprop.Replicated | Dms.Distprop.Single_node ->
              (* local-complete already covers these *)
              ())
         copts)
  | _ ->
    invalid_arg
      (Printf.sprintf "Enumerate: malformed physical expression %s/%d"
         (Physop.name op) (Array.length children))

(** Step 07: add Move group expressions for each interesting property. *)
let enforcer_step ctx st gid gprops acc =
  let o = ctx.o in
  let width, move_cols = Derive.moved_width ctx.m ctx.derived gid in
  let interesting = Derive.interesting ctx.derived gid in
  let targets =
    List.map (fun cols -> Dms.Distprop.Hashed cols) interesting
    @ [ Dms.Distprop.Replicated; Dms.Distprop.Single_node ]
  in
  ignore gprops;
  let base_options = List.map snd !acc in
  List.iter
    (fun (src_dist, (src : Pplan.t)) ->
       List.iter
         (fun target ->
            if not (Dms.Distprop.equal src_dist target) then begin
              let tgt_cols = match target with
                | Dms.Distprop.Hashed cols -> [ cols ]
                | _ -> []
              in
              (* the moved stream must carry the hash columns; width follows *)
              let cols =
                List.sort_uniq Int.compare
                  (move_cols @ List.concat tgt_cols)
              in
              let width =
                if List.length cols = List.length move_cols then width
                else
                  List.fold_left
                    (fun acc c -> acc +. Registry.width ctx.m.Memo.reg c)
                    0. cols
              in
              List.iter
                (fun kind ->
                   let bd =
                     Dms.Cost.cost ~lambdas:o.lambdas kind ~nodes:o.nodes
                       ~rows:src.Pplan.rows ~width
                   in
                   st.enforcer_moves <- st.enforcer_moves + 1;
                   add_option ctx st acc
                     { Pplan.op = Pplan.Move { kind; cols };
                       children = [ src ];
                       dist = target;
                       rows = src.Pplan.rows;
                       group = gid;
                       dms_cost = src.Pplan.dms_cost +. bd.Dms.Cost.c_total;
                       serial_cost = src.Pplan.serial_cost })
                (Dms.Op.moves_to ~interesting:tgt_cols src_dist target)
            end)
         targets)
    base_options

(* -- leveled wavefront driver -- *)

(* Sequential pre-pass: replicate the old recursive enumeration's exact
   visit order to (a) compute each reachable group's dependency level
   (back edges, i.e. children on the DFS stack, contribute nothing — they
   end up on a strictly higher level), and (b) allocate every aggregation
   split's fresh registry columns in that same order, so column ids are
   independent of the pool schedule and workers never mutate the registry.
   Returns the levels as arrays of canonical group ids, lowest first. *)
let compute_levels ctx root =
  let level : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let in_prog : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in  (* reverse completion order *)
  let rec visit gid =
    let gid = Memo.find ctx.m gid in
    match Hashtbl.find_opt level gid with
    | Some l -> l
    | None ->
      if Hashtbl.mem in_prog gid then -1  (* back edge *)
      else begin
        Hashtbl.replace in_prog gid ();
        let lv = ref 0 in
        let child c = lv := max !lv (1 + visit c) in
        (* a group proven empty folds to Const_empty: its subtree is never
           enumerated (or split-precomputed) unless another parent needs it *)
        if not (ctx.empty gid) then
          List.iteri
            (fun idx ((op : Physop.t), (children : int array)) ->
               match op, Array.to_list children with
               | (Physop.Filter _ | Physop.Sort_op _ | Physop.Compute _), [ c ] ->
                 child c
               | Physop.Union_op, [ l; r ]
               | (Physop.Hash_join _ | Physop.Nl_join _), [ l; r ] ->
                 child l;
                 child r
               | Physop.Hash_agg { keys; aggs }, [ c ] ->
                 child c;
                 Hashtbl.replace ctx.splits (gid, idx)
                   (split_aggs ctx.m.Memo.reg keys aggs)
               | _ -> ())
            (Memo.physical_exprs ctx.m gid);
        Hashtbl.remove in_prog gid;
        Hashtbl.replace level gid !lv;
        order := gid :: !order;
        !lv
      end
  in
  ignore (visit root);
  let completion = List.rev !order in
  let nlevels =
    List.fold_left (fun a g -> max a (1 + Hashtbl.find level g)) 0 completion
  in
  let buckets = Array.make nlevels [] in
  List.iter
    (fun g ->
       let l = Hashtbl.find level g in
       buckets.(l) <- g :: buckets.(l))
    completion;
  Array.map (fun gs -> Array.of_list (List.rev gs)) buckets

(* One group's steps 05-07: a pure function of the published child option
   lists (plus read-only memo/derive/registry state), returning its kept
   options and private counters. Safe to run on any pool domain. *)
let enumerate_one ctx gid =
  let st = fresh_stats () in
  let lookup c =
    match Hashtbl.find_opt ctx.table (Memo.find ctx.m c) with
    | Some opts -> opts
    | None -> []  (* back edge: published on a strictly higher level *)
  in
  let acc = ref [] in
  let gprops = Memo.props ctx.m gid in
  if ctx.empty gid then
    (* contradiction-driven folding: the group provably produces no rows,
       so a constant-empty operator replaces its whole expression list *)
    enumerate_expr ctx st lookup gid gprops acc 0
      (Physop.Const_empty (Registry.Col_set.elements gprops.Memo.cols), [||])
  else
    List.iteri
      (fun idx e -> enumerate_expr ctx st lookup gid gprops acc idx e)
      (Memo.physical_exprs ctx.m gid);
  enforcer_step ctx st gid gprops acc;
  (apply_hints ctx gid (List.map snd !acc), st)

let optimize_group ctx gid =
  let root = Memo.find ctx.m gid in
  match Hashtbl.find_opt ctx.table root with
  | Some opts -> opts
  | None ->
    let levels = compute_levels ctx root in
    (* fully path-compress the union-find: worker-side [Memo.find] calls
       become pure reads (one hop to the canonical group, no writes) *)
    for g = 0 to Memo.ngroups ctx.m - 1 do
      ignore (Memo.find ctx.m g)
    done;
    ctx.stats.par_levels <- ctx.stats.par_levels + Array.length levels;
    ignore
      (Par.parallel_levels ctx.pool
         ~before_level:(fun _ gids ->
           (* the poll raises in the caller between levels; an interrupted
              ctx must be discarded, as before *)
           Governor.poll ~where:"pdw.enumerate" ctx.token;
           ctx.stats.par_groups <- ctx.stats.par_groups + Array.length gids)
         ~after_level:(fun _ results ->
           Array.iter
             (fun (g, opts, st) ->
                Hashtbl.replace ctx.table g opts;
                ctx.stats.pdw_exprs_enumerated <-
                  ctx.stats.pdw_exprs_enumerated + st.pdw_exprs_enumerated;
                ctx.stats.enforcer_moves <-
                  ctx.stats.enforcer_moves + st.enforcer_moves;
                ctx.stats.groups_processed <- ctx.stats.groups_processed + 1;
                ctx.stats.options_kept <-
                  ctx.stats.options_kept + List.length opts)
             results)
         (fun g ->
            let opts, st = enumerate_one ctx g in
            (g, opts, st))
         levels);
    (match Hashtbl.find_opt ctx.table root with
     | Some opts -> opts
     | None -> [])
