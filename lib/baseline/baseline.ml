(** The strawman the paper argues against (§1, §3.2, §5): take the best
    SERIAL plan and parallelize it, inserting data movement operations
    greedily wherever an operator is not locally executable. The join order
    and operator choices are frozen by the serial optimizer; there is no
    global cost-based search over distributed alternatives, no local/global
    aggregation split, and each repair is chosen by local (per-operator)
    movement cost only. *)

open Algebra
open Memo

let width_of_layout reg layout =
  Float.max 1. (List.fold_left (fun acc c -> acc +. Registry.width reg c) 0. layout)

let move_cost (o : Pdwopt.Enumerate.opts) kind ~rows ~width =
  (Dms.Cost.cost ~lambdas:o.Pdwopt.Enumerate.lambdas kind ~nodes:o.Pdwopt.Enumerate.nodes
     ~rows ~width).Dms.Cost.c_total

(* wrap a plan with a movement *)
let apply_move o reg kind (p : Pdwopt.Pplan.t) layout =
  let width = width_of_layout reg layout in
  let dist =
    match Dms.Op.output_dist kind p.Pdwopt.Pplan.dist with
    | Some d -> d
    | None -> invalid_arg "Baseline.apply_move: inapplicable movement"
  in
  { Pdwopt.Pplan.op = Pdwopt.Pplan.Move { kind; cols = layout };
    children = [ p ];
    dist;
    rows = p.Pdwopt.Pplan.rows;
    group = p.Pdwopt.Pplan.group;
    dms_cost = p.Pdwopt.Pplan.dms_cost +. move_cost o kind ~rows:p.Pdwopt.Pplan.rows ~width;
    serial_cost = p.Pdwopt.Pplan.serial_cost }

exception Cannot_parallelize of string

(** Parallelize a serial plan over the appliance layout, pricing each
    repair with the PDW options' node count and λ constants. *)
let parallelize ?(opts = Pdwopt.Enumerate.default_opts) (reg : Registry.t)
    (shell : Catalog.Shell_db.t)
    (serial : Serialopt.Plan.t) : Pdwopt.Pplan.t =
  let o = opts in
  let rec go (p : Serialopt.Plan.t) : Pdwopt.Pplan.t =
    let children = List.map go p.Serialopt.Plan.children in
    let mk op dist children =
      { Pdwopt.Pplan.op = Pdwopt.Pplan.Serial op;
        children;
        dist;
        rows = p.Serialopt.Plan.card;
        group = -1;
        dms_cost =
          List.fold_left (fun a (c : Pdwopt.Pplan.t) -> a +. c.Pdwopt.Pplan.dms_cost) 0.
            children;
        serial_cost = 0. }
    in
    match p.Serialopt.Plan.op, children with
    | Physop.Table_scan { table; cols; _ }, [] ->
      mk p.Serialopt.Plan.op (Pdwopt.Enumerate.scan_dist shell table cols) []
    | (Physop.Filter _ | Physop.Compute _ | Physop.Sort_op _), [ c ] ->
      mk p.Serialopt.Plan.op c.Pdwopt.Pplan.dist [ c ]
    | Physop.Const_empty _, [] -> mk p.Serialopt.Plan.op Dms.Distprop.Replicated []
    | ( Physop.Hash_join { kind; pred } | Physop.Merge_join { kind; pred }
      | Physop.Nl_join { kind; pred } ), [ l; r ] ->
      let llay = Serialopt.Plan.output_layout (List.nth p.Serialopt.Plan.children 0) in
      let rlay = Serialopt.Plan.output_layout (List.nth p.Serialopt.Plan.children 1) in
      let equi =
        Physop.oriented_equi_pairs pred
          ~left_cols:(Registry.Col_set.of_list llay)
          ~right_cols:(Registry.Col_set.of_list rlay)
      in
      (* candidate repairs: (left moves, right moves) *)
      let candidates : (Pdwopt.Pplan.t * Pdwopt.Pplan.t) list =
        let id = (l, r) in
        let shuffle_l =
          if equi = [] then []
          else
            match l.Pdwopt.Pplan.dist with
            | Dms.Distprop.Hashed _ | Dms.Distprop.Single_node ->
              [ (apply_move o reg (Dms.Op.Shuffle (List.map fst equi)) l llay, r) ]
            | Dms.Distprop.Replicated ->
              [ (apply_move o reg (Dms.Op.Trim (List.map fst equi)) l llay, r) ]
        in
        let shuffle_r =
          if equi = [] then []
          else
            match r.Pdwopt.Pplan.dist with
            | Dms.Distprop.Hashed _ | Dms.Distprop.Single_node ->
              [ (l, apply_move o reg (Dms.Op.Shuffle (List.map snd equi)) r rlay) ]
            | Dms.Distprop.Replicated ->
              [ (l, apply_move o reg (Dms.Op.Trim (List.map snd equi)) r rlay) ]
        in
        let shuffle_both =
          match shuffle_l, shuffle_r with
          | [ (l', _) ], [ (_, r') ] -> [ (l', r') ]
          | _ -> []
        in
        let bcast_r =
          match r.Pdwopt.Pplan.dist with
          | Dms.Distprop.Hashed _ -> [ (l, apply_move o reg Dms.Op.Broadcast r rlay) ]
          | Dms.Distprop.Single_node ->
            [ (l, apply_move o reg Dms.Op.Replicated_broadcast r rlay) ]
          | Dms.Distprop.Replicated -> []
        in
        let bcast_l =
          (* broadcasting the preserved side is only sound for inner/cross *)
          match kind, l.Pdwopt.Pplan.dist with
          | (Relop.Inner | Relop.Cross), Dms.Distprop.Hashed _ ->
            [ (apply_move o reg Dms.Op.Broadcast l llay, r) ]
          | (Relop.Inner | Relop.Cross), Dms.Distprop.Single_node ->
            [ (apply_move o reg Dms.Op.Replicated_broadcast l llay, r) ]
          | _ -> []
        in
        id :: (shuffle_l @ shuffle_r @ shuffle_both @ bcast_r @ bcast_l)
      in
      let viable =
        List.filter_map
          (fun (l', r') ->
             match
               Dms.Distprop.join_local ~kind ~equi l'.Pdwopt.Pplan.dist
                 r'.Pdwopt.Pplan.dist
             with
             | Some dist -> Some (mk p.Serialopt.Plan.op dist [ l'; r' ])
             | None -> None)
          candidates
      in
      (match viable with
       | [] -> raise (Cannot_parallelize "no repair makes this join local")
       | first :: rest ->
         List.fold_left
           (fun (best : Pdwopt.Pplan.t) (cand : Pdwopt.Pplan.t) ->
              if cand.Pdwopt.Pplan.dms_cost < best.Pdwopt.Pplan.dms_cost then cand else best)
           first rest)
    | (Physop.Hash_agg { keys; _ } | Physop.Stream_agg { keys; _ }), [ c ] ->
      let clay = Serialopt.Plan.output_layout (List.nth p.Serialopt.Plan.children 0) in
      (match Dms.Distprop.groupby_local ~keys c.Pdwopt.Pplan.dist with
       | Some dist -> mk p.Serialopt.Plan.op dist [ c ]
       | None ->
         let c' =
           if keys = [] then apply_move o reg Dms.Op.Partition_move c clay
           else apply_move o reg (Dms.Op.Shuffle keys) c clay
         in
         let dist =
           match Dms.Distprop.groupby_local ~keys c'.Pdwopt.Pplan.dist with
           | Some d -> d
           | None -> raise (Cannot_parallelize "group-by repair failed")
         in
         mk p.Serialopt.Plan.op dist [ c' ])
    | Physop.Union_op, [ l; r ] ->
      (* align the branches: move the right branch onto the left's
         distribution (or fail) *)
      let rlay = Serialopt.Plan.output_layout (List.nth p.Serialopt.Plan.children 1) in
      let aligned =
        if Dms.Distprop.equal l.Pdwopt.Pplan.dist r.Pdwopt.Pplan.dist then Some r
        else
          match l.Pdwopt.Pplan.dist, r.Pdwopt.Pplan.dist with
          | Dms.Distprop.Hashed cols, (Dms.Distprop.Hashed _ | Dms.Distprop.Single_node)
            when cols <> [] ->
            Some (apply_move o reg (Dms.Op.Shuffle cols) r rlay)
          | Dms.Distprop.Hashed cols, Dms.Distprop.Replicated when cols <> [] ->
            Some (apply_move o reg (Dms.Op.Trim cols) r rlay)
          | Dms.Distprop.Replicated, Dms.Distprop.Single_node ->
            Some (apply_move o reg Dms.Op.Replicated_broadcast r rlay)
          | Dms.Distprop.Single_node, (Dms.Distprop.Hashed _ | Dms.Distprop.Replicated) ->
            Some (apply_move o reg Dms.Op.Remote_copy r rlay)
          | _ -> None
      in
      (match aligned with
       | Some r' -> mk p.Serialopt.Plan.op l.Pdwopt.Pplan.dist [ l; r' ]
       | None -> raise (Cannot_parallelize "cannot align union branches"))
    | _ -> raise (Cannot_parallelize "malformed serial plan")
  in
  let body = go serial in
  (* root Return: reuse a top-level Sort's keys for the final merge *)
  let sort, limit =
    match serial.Serialopt.Plan.op with
    | Physop.Sort_op { keys; limit } -> (keys, limit)
    | _ -> ([], None)
  in
  (* Return streams to the client and does not discriminate plans. *)
  let return_cost = 0. in
  { Pdwopt.Pplan.op = Pdwopt.Pplan.Return { sort; limit };
    children = [ body ];
    dist = Dms.Distprop.Single_node;
    rows = body.Pdwopt.Pplan.rows;
    group = -1;
    dms_cost = body.Pdwopt.Pplan.dms_cost +. return_cost;
    serial_cost = body.Pdwopt.Pplan.serial_cost }
