(** Elastic topology (DESIGN.md §14): workload-driven re-distribution and
    online grow/shrink, fault-survivable and always serving.

    Three pieces:

    - {!Zipf}: a deterministic skewed workload source (the fault plane's
      pure splitmix64 draws) for storm drivers;
    - {!Advisor}: replays the harvested workload ({!Feedback.Log}) against
      candidate distribution-key assignments and proposes the set that
      minimizes the occurrence-weighted modelled DMS cost under the λ
      model;
    - {!Elastic}: topology moves ({!Engine.Appliance.begin_change} phases)
      over an {!Opdw.Driver} that keeps serving while they are in flight —
      statements admitted mid-move execute against the old layout until
      the atomic flip, and node crashes compose with decommission + move
      restart. Every move and decommission derives a new shell catalog,
      so plans compiled for an old layout miss the plan cache. *)

(* -- deterministic skewed workload source -- *)

module Zipf = struct
  (** Uniform float in [0, 1) for storm position [i]: the fault plane's
      splitmix64 draw, so a storm sequence is a pure function of (seed,
      index) and identical at any [--jobs]. *)
  let draw ~seed ~i = Fault.uniform ~seed [ i ]

  (** Zipf-distributed rank in [0, n): rank [k] has weight [1/(k+1)^s].
      Smaller ranks are the workload's head. *)
  let pick ~seed ~i ~n ~s =
    let n = max 1 n in
    let total = ref 0. in
    let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s)) in
    Array.iter (fun x -> total := !total +. x) w;
    let u = draw ~seed ~i *. !total in
    let acc = ref 0. and chosen = ref (n - 1) in
    (try
       Array.iteri
         (fun k x ->
            acc := !acc +. x;
            if u < !acc then begin chosen := k; raise Exit end)
         w
     with Exit -> ());
    !chosen

  (** A storm of [length] Zipf-ranked indices over [n] alternatives
      (default skew [s = 1.5]). *)
  let storm ~seed ?(s = 1.5) ~length n = List.init length (fun i -> pick ~seed ~i ~n ~s)
end

(* -- the re-distribution advisor -- *)

module Advisor = struct
  (** One accepted key change. [p_before]/[p_after] are the cumulative
      occurrence-weighted modelled DMS costs of the whole replayed
      workload immediately before and after accepting this proposal, so
      [p_before -. p_after] is this change's marginal win. *)
  type proposal = {
    p_table : string;
    p_from : string list;   (** current hash-distribution key *)
    p_cols : string list;   (** proposed hash-distribution key *)
    p_before : float;
    p_after : float;
  }

  type advice = {
    a_statements : (string * int) list;
        (** distinct replayed statements with occurrence counts *)
    a_baseline : float;  (** weighted modelled DMS cost under current keys *)
    a_proposed : float;  (** same cost under every accepted proposal *)
    a_proposals : proposal list;  (** in acceptance (best-first) order *)
  }

  (* distinct statements with occurrence counts, in first-seen order (one
     log record per execution, so counts are the observed frequencies) *)
  let statements (log : Feedback.Log.t) =
    let counts = Hashtbl.create 16 and order = ref [] in
    List.iter
      (fun (r : Feedback.Log.record) ->
         let k = r.Feedback.Log.r_statement in
         match Hashtbl.find_opt counts k with
         | Some n -> Hashtbl.replace counts k (n + 1)
         | None ->
           Hashtbl.replace counts k 1;
           order := k :: !order)
      (Feedback.Log.records log);
    List.rev_map (fun k -> (k, Hashtbl.find counts k)) !order

  (* candidate distribution keys harvested from the log: a column is a
     candidate for its table when a join predicate constrained it (the
     operator's observation spans >= 2 tables). Returns hash-partitioned
     tables ranked by total join weight, each with its candidate columns
     ranked by weight (ties broken by name, for determinism). *)
  let candidates (shell : Catalog.Shell_db.t) (log : Feedback.Log.t) =
    let weight = Hashtbl.create 32 in
    let bump k =
      Hashtbl.replace weight k (1 + Option.value (Hashtbl.find_opt weight k) ~default:0)
    in
    List.iter
      (fun (r : Feedback.Log.record) ->
         List.iter
           (fun (o : Feedback.Log.op_obs) ->
              let tabs =
                List.sort_uniq compare (List.map fst o.Feedback.Log.o_cols)
              in
              if List.length tabs >= 2 then
                List.iter bump o.Feedback.Log.o_cols)
           r.Feedback.Log.r_ops)
      (Feedback.Log.records log);
    let per_table = Hashtbl.create 8 in
    Hashtbl.iter
      (fun (tab, col) w ->
         match Catalog.Shell_db.find shell tab with
         | Some { Catalog.Shell_db.dist = Catalog.Distribution.Hash_partitioned _; _ } ->
           Hashtbl.replace per_table tab
             ((col, w) :: Option.value (Hashtbl.find_opt per_table tab) ~default:[])
         | _ -> ())  (* replicated (or unknown) tables are never re-keyed *)
      weight;
    Hashtbl.fold
      (fun tab cols acc ->
         let cols =
           List.sort (fun (c1, w1) (c2, w2) -> compare (-w1, c1) (-w2, c2)) cols
         in
         let total = List.fold_left (fun a (_, w) -> a + w) 0 cols in
         (tab, total, List.map fst cols) :: acc)
      per_table []
    |> List.sort (fun (t1, w1, _) (t2, w2, _) -> compare (-w1, t1) (-w2, t2))

  (* a hypothetical shell: same schemas/statistics, distribution keys of
     the named tables overridden *)
  let hypothetical (shell : Catalog.Shell_db.t) (overrides : (string * string list) list) =
    Catalog.Shell_db.derive shell ~dist_of:(fun (tbl : Catalog.Shell_db.table) ->
        let name =
          String.lowercase_ascii tbl.Catalog.Shell_db.schema.Catalog.Schema.name
        in
        match List.assoc_opt name overrides with
        | Some cols -> Catalog.Distribution.Hash_partitioned cols
        | None -> tbl.Catalog.Shell_db.dist)

  (* the tables a statement reads, lower-cased like the override names:
     the only tables whose distribution keys its plan can depend on *)
  let tables_read (t : Algebra.Relop.t) =
    let rec go acc (n : Algebra.Relop.t) =
      let acc =
        match n.Algebra.Relop.op with
        | Algebra.Relop.Get { table; _ } -> String.lowercase_ascii table :: acc
        | _ -> acc
      in
      List.fold_left go acc n.Algebra.Relop.children
    in
    List.sort_uniq compare (go [] t)

  (** [advise shell log] replays the log's distinct statements (weighted
      by observed frequency) against candidate distribution-key
      assignments — summing the chosen plans' modelled DMS cost under the
      λ model — and greedily accepts up to [max_tables] (default 2)
      single-table key changes, each only if it {e strictly} lowers the
      cumulative cost. Pure replay: nothing is executed and [shell] is not
      mutated.

      The replay follows the paper's split (§3): each statement is
      explored once on [shell] ({!Opdw.explore}), and a candidate only
      re-runs the place half ({!Opdw.place}) on its hypothetical shell.
      A statement's cost is memoized on the candidate keys of the tables
      it reads, so a candidate re-places only the statements that read
      its table. With [seed_collocated] on, exploration reads
      distribution keys, so a candidate re-explores too. Every priced
      plan still passes the static checker.

      [options] should be the driver's current options (node count, λs);
      the XML interchange is forced off (a cost replay does not need it),
      and so are the governor's limits (a wall deadline would make the
      advice depend on host speed, and degraded plans would be priced). *)
  let advise ?(max_tables = 2) ?options (shell : Catalog.Shell_db.t)
      (log : Feedback.Log.t) : advice =
    let options =
      { (Opdw.resolve_options shell options) with
        Opdw.via_xml = false; governor = Governor.no_limits }
    in
    let stmts = statements log in
    (* per statement: its count, and its cost under a set of overrides,
       memoized on the overrides of the tables it reads *)
    let priced =
      List.map
        (fun (sql, count) ->
           let e = Opdw.explore ~options shell sql in
           let tables = tables_read e.Opdw.e_normalized in
           let memo = Hashtbl.create 8 in
           let cost overrides =
             let own = List.filter (fun (tab, _) -> List.mem tab tables) overrides in
             match Hashtbl.find_opt memo own with
             | Some cost -> cost
             | None ->
               let shell', e =
                 if own = [] then (shell, e)
                 else begin
                   let shell' = hypothetical shell own in
                   ( shell',
                     if options.Opdw.seed_collocated then
                       Opdw.explore ~options shell' sql
                     else e )
                 end
               in
               let cost = (Opdw.plan (Opdw.place shell' e)).Pdwopt.Pplan.dms_cost in
               Hashtbl.replace memo own cost;
               cost
           in
           (count, cost))
        stmts
    in
    let cost_with overrides =
      List.fold_left
        (fun acc (count, cost) -> acc +. (float_of_int count *. cost overrides))
        0. priced
    in
    let baseline = cost_with [] in
    let accepted = ref [] and proposals = ref [] and current = ref baseline in
    List.iter
      (fun (tab, _w, cols) ->
         if List.length !accepted < max_tables then begin
           let cur_key =
             match Catalog.Shell_db.find shell tab with
             | Some { Catalog.Shell_db.dist = Catalog.Distribution.Hash_partitioned k; _ } -> k
             | _ -> []
           in
           let best =
             List.fold_left
               (fun best col ->
                  if [ col ] = cur_key then best
                  else begin
                    let cost = cost_with (!accepted @ [ (tab, [ col ]) ]) in
                    match best with
                    | Some (_, c) when c <= cost -> best
                    | _ -> Some (col, cost)
                  end)
               None cols
           in
           match best with
           | Some (col, cost) when cost < !current ->
             accepted := !accepted @ [ (tab, [ col ]) ];
             proposals :=
               { p_table = tab; p_from = cur_key; p_cols = [ col ];
                 p_before = !current; p_after = cost }
               :: !proposals;
             current := cost
           | _ -> ()
         end)
      (candidates shell log);
    { a_statements = stmts; a_baseline = baseline; a_proposed = !current;
      a_proposals = List.rev !proposals }
end

(* -- topology moves over the statement driver -- *)

module Elastic = struct
  (** Topology moves over an {!Opdw.Driver}: changes run as phased moves
      that keep serving — [between] callbacks run admitted statements
      against the old layout between copy steps, and a node crash
      mid-move aborts the half-built target (the source stays
      bit-identical), composes with decommission, and restarts the move
      on the survivors. The driver itself serves statements under the
      fault plan (a node crash decommissions the dead node and replans on
      the survivors) and harvests the workload the advisor reads. *)

  type t = Opdw.Driver.t

  (** A driver serving, and moving, under [fault] with crash recovery up
      to {!Opdw.Driver.max_replans} times, and no circuit breaker. *)
  let create ?cache ?options ?log ~(fault : Fault.plan)
      (shell : Catalog.Shell_db.t) (app : Engine.Appliance.t) : t =
    Opdw.Driver.create ?cache ?options ?log ~fault ~breaker_threshold:0 shell app

  (** {!Opdw.Driver.run}, its refusals raised ({!Opdw.Driver.returned}):
      {!Fault.Exhausted} past the retry/replan budgets, {!Check.Invalid}
      for a refused plan. *)
  let run ?obs ?observe (t : t) (sql : string) : Opdw.result * Engine.Local.rset =
    let s = Opdw.Driver.returned (Opdw.Driver.run ?obs ?observe t sql) in
    (s.Opdw.Driver.res, s.Opdw.Driver.rows)

  let app = Opdw.Driver.app
  let log = Opdw.Driver.log

  (* drive [change] as one phased move to completion: copy steps
     interleaved with the [between] callback (which serves statements
     against the old layout), commit at the flip. A node crash — inside a
     copy step, or under a statement served by [between] (detected as the
     driver's appliance changing) — aborts the half-built target, composes
     with decommission, and rebuilds the move on the survivors. An
     exhausted budget aborts the target too, then raises
     {!Fault.Exhausted}: the driver keeps serving on its current layout. *)
  let phased ?(obs = Obs.null) ?(between = fun () -> ()) (t : t)
      (change : Engine.Appliance.change) : unit =
    let abort m =
      Engine.Appliance.abort_move m;
      Obs.add obs "topology.aborted_moves" 1
    in
    let rec attempt replans =
      let src = app t in
      let m = Engine.Appliance.begin_change ~obs ~fault:(Opdw.Driver.fault t) src change in
      let rec drive () =
        if m.Engine.Appliance.m_pending = [] then
          (* read the accrued cost before the flip consumes the move *)
          let seconds = m.Engine.Appliance.m_seconds in
          `Flipped (Engine.Appliance.flip_move m, seconds)
        else begin
          Engine.Appliance.copy_step m;
          between ();
          if app t != src then `Replanned_under_us else drive ()
        end
      in
      match drive () with
      | `Flipped (app', seconds) ->
        Opdw.Driver.install t app';
        Obs.add obs "topology.applied_moves" 1;
        Obs.addf obs "topology.move_seconds" seconds
      | `Replanned_under_us ->
        (* a served statement crashed a node and replanned: the target was
           built against the dead topology — drop it and start over *)
        abort m;
        if replans >= Opdw.Driver.max_replans then
          raise
            (Fault.Exhausted
               { failure =
                   { Fault.site = Fault.Node_crash;
                     epoch = src.Engine.Appliance.epoch; step = -1; node = -1 };
                 attempts = replans + 1 });
        attempt (replans + 1)
      | exception Fault.Injected ({ Fault.site = Fault.Node_crash; _ } as failure) ->
        abort m;
        Opdw.Driver.replan ~obs t ~replans failure;
        attempt (replans + 1)
      | exception (Fault.Exhausted _ as e) ->
        abort m;
        raise e
    in
    attempt 0

  (** Grow the appliance online to [nodes] compute nodes. [between] runs
      after every copy step (serve statements there — they execute against
      the old layout until the flip, so availability stays 1.0). *)
  let grow ?obs ?between (t : t) ~(nodes : int) : unit =
    phased ?obs ?between t (Engine.Appliance.Grow nodes)

  (** Re-key [table] online to hash-partitioning on [cols], which must be
      columns of [table]. *)
  let redistribute ?obs ?between (t : t) ~(table : string) ~(cols : string list) : unit =
    phased ?obs ?between t (Engine.Appliance.Rekey { table; cols })

  (** Run the advisor over everything this driver has served so far. *)
  let advise ?max_tables (t : t) : Advisor.advice =
    Advisor.advise ?max_tables ~options:(Opdw.Driver.options t) (Opdw.Driver.shell t)
      (log t)

  (** Apply the advice's accepted proposals as online re-key moves, in
      acceptance order. *)
  let apply ?obs ?between (t : t) (a : Advisor.advice) : unit =
    List.iter
      (fun (p : Advisor.proposal) ->
         redistribute ?obs ?between t ~table:p.Advisor.p_table ~cols:p.Advisor.p_cols)
      a.Advisor.a_proposals

  (** What became of one topology move in a {!storm}. *)
  type move_outcome =
    | Applied
    | Exhausted of { failure : Fault.failure; attempts : int }
        (** the move spent its retry or replan budget: its half-built
            target was dropped and the layout is the one before it *)

  (** The topology half of a {!storm}: the advice taken, and each
      attempted move with its outcome, in order. *)
  type report = {
    advice : Advisor.advice;
    moves : (Engine.Appliance.change * move_outcome) list;
  }

  (** Serve the [(id, sql)] storm in order, one statement at a time, and
      tally every outcome against [oracle] ({!Opdw.Driver.tally}): a
      refused statement is counted, never raised, and the storm goes on.
      With [moves] (the default) the first half of the storm populates the
      advisor's log; the appliance then grows online to [grow_to] nodes
      (when that exceeds the current count), the advice is taken and
      applied, the rest of the storm is served between the copy steps (old
      layout until each flip), and whatever remains drains after. A move
      that exhausts its budget is recorded, not raised; no move is tried
      after it, and the storm finishes on the current layout. Without
      [moves], the whole storm is served and then advised on; nothing
      moves. Returns the tally and the {!report}. *)
  let storm ?obs ?(moves = true) ?(grow_to = 0) ?max_tables ~oracle (t : t) stmts =
    let queue = ref stmts and outcomes = ref [] and moved = ref [] in
    let serve_one () =
      match !queue with
      | [] -> ()
      | (id, sql) :: rest ->
        queue := rest;
        outcomes := (id, Opdw.Driver.run ?obs t sql) :: !outcomes
    in
    let drain () = while !queue <> [] do serve_one () done in
    let move change =
      if List.for_all (function _, Applied -> true | _, Exhausted _ -> false) !moved
      then begin
        let oc =
          match phased ?obs ~between:serve_one t change with
          | () -> Applied
          | exception Fault.Exhausted { failure; attempts } -> Exhausted { failure; attempts }
        in
        moved := (change, oc) :: !moved
      end
    in
    if moves then begin
      for _ = 1 to List.length stmts / 2 do serve_one () done;
      if grow_to > Opdw.Driver.nodes t then move (Engine.Appliance.Grow grow_to)
    end
    else drain ();
    let advice = advise ?max_tables t in
    if moves then
      List.iter
        (fun (p : Advisor.proposal) ->
           move (Engine.Appliance.Rekey { table = p.Advisor.p_table; cols = p.Advisor.p_cols }))
        advice.Advisor.a_proposals;
    drain ();
    (Opdw.Driver.tally ~oracle (List.rev !outcomes), { advice; moves = List.rev !moved })
end
