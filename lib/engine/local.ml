(** Single-node relational executor: runs serial physical operators over
    in-memory row lists. This is the "SQL Server instance" of each compute
    node in the simulated appliance. *)

open Algebra
open Memo

type rows = Catalog.Value.t array list

(** A result set: rows plus the column layout (registry ids, in order). *)
type rset = {
  layout : int list;
  rows : rows;
}

exception Exec_error of string

(* environment: col id -> value for one row, given a layout *)
let make_env (layout : int list) : Catalog.Value.t array -> int -> Catalog.Value.t =
  let index = Hashtbl.create (List.length layout) in
  List.iteri (fun i c -> if not (Hashtbl.mem index c) then Hashtbl.replace index c i) layout;
  fun row c ->
    match Hashtbl.find_opt index c with
    | Some i -> row.(i)
    | None -> raise (Exec_error (Printf.sprintf "column #%d not in layout" c))

let eval_pred_on layout pred =
  let env = make_env layout in
  fun row -> Expr.eval_pred (env row) pred

(* first [n] elements of a list, without walking the tail (the previous
   [List.filteri] scanned all rows even for TOP 1) *)
let take n l =
  let rec go acc n = function
    | x :: rest when n > 0 -> go (x :: acc) (n - 1) rest
    | _ -> List.rev acc
  in
  go [] n l

(* first-occurrence index of every column id in a layout *)
let make_index (layout : int list) : (int, int) Hashtbl.t =
  let index = Hashtbl.create (List.length layout) in
  List.iteri (fun i c -> if not (Hashtbl.mem index c) then Hashtbl.replace index c i) layout;
  index

(* positions of [cols] in [layout] (first occurrence), for hot-path key
   extraction without per-row environment lookups *)
let positions_of (layout : int list) (cols : int list) : int array =
  let index = make_index layout in
  Array.of_list
    (List.map
       (fun c ->
          match Hashtbl.find_opt index c with
          | Some i -> i
          | None -> raise (Exec_error (Printf.sprintf "column #%d not in layout" c)))
       cols)

(* key extraction for hashing/grouping *)
let key_of (pos : int array) (row : Catalog.Value.t array) : Catalog.Value.t array =
  Array.map (fun i -> row.(i)) pos

module Key = struct
  type t = Catalog.Value.t array
  let equal a b =
    Array.length a = Array.length b
    && (let n = Array.length a in
        let rec go i = i >= n || (Catalog.Value.equal a.(i) b.(i) && go (i + 1)) in
        go 0)
  let hash k = Array.fold_left (fun h v -> (h * 31) + Catalog.Value.hash v) 17 k
end

module KeyTbl = Hashtbl.Make (Key)

(* -- executor observability (merged into Obs by the caller domain) -- *)

(** Per-shard executor statistics, accumulated while a node executes its
    operators. Pool-safe by construction: each worker writes its own
    record; the caller merges them into {!Obs} counters after the
    fan-out. *)
type exec_stats = {
  mutable rows_scanned : int;   (** base-table rows produced by scans *)
  mutable batches : int;        (** operator outputs (one batch per op) *)
  mutable probe_rows : int;     (** hash-join probe-side input rows *)
}

let fresh_stats () = { rows_scanned = 0; batches = 0; probe_rows = 0 }

let merge_stats ~(into : exec_stats) (s : exec_stats) =
  into.rows_scanned <- into.rows_scanned + s.rows_scanned;
  into.batches <- into.batches + s.batches;
  into.probe_rows <- into.probe_rows + s.probe_rows

(* -- aggregates -- *)

type agg_state = {
  mutable count : int;           (* non-null inputs, or all rows for COUNT-star *)
  mutable sum : float;
  mutable sum_is_int : bool;
  mutable min_v : Catalog.Value.t option;
  mutable max_v : Catalog.Value.t option;
  distinct_seen : unit KeyTbl.t option;
}

let new_agg_state distinct =
  { count = 0; sum = 0.; sum_is_int = true; min_v = None; max_v = None;
    distinct_seen = (if distinct then Some (KeyTbl.create 16) else None) }

let agg_feed (a : Expr.agg_def) st (v : Catalog.Value.t option) =
  (* [v] = None for COUNT-star: count the row regardless *)
  match v with
  | None -> st.count <- st.count + 1
  | Some v ->
    if not (Catalog.Value.is_null v) then begin
      let proceed =
        match st.distinct_seen with
        | None -> true
        | Some seen ->
          if KeyTbl.mem seen [| v |] then false
          else begin KeyTbl.replace seen [| v |] (); true end
      in
      if proceed then begin
        st.count <- st.count + 1;
        (match a.Expr.agg_func with
         | Expr.Sum | Expr.Avg ->
           (match v with
            | Catalog.Value.Int x -> st.sum <- st.sum +. float_of_int x
            | Catalog.Value.Float x -> st.sum <- st.sum +. x; st.sum_is_int <- false
            | _ -> raise (Exec_error "SUM/AVG over non-numeric value"))
         | Expr.Min ->
           (match st.min_v with
            | Some m when Catalog.Value.compare m v <= 0 -> ()
            | _ -> st.min_v <- Some v)
         | Expr.Max ->
           (match st.max_v with
            | Some m when Catalog.Value.compare m v >= 0 -> ()
            | _ -> st.max_v <- Some v)
         | Expr.Count | Expr.Count_star -> ())
      end
    end

let agg_result (a : Expr.agg_def) st : Catalog.Value.t =
  match a.Expr.agg_func with
  | Expr.Count | Expr.Count_star -> Catalog.Value.Int st.count
  | Expr.Sum ->
    if st.count = 0 then Catalog.Value.Null
    else if st.sum_is_int && Float.is_integer st.sum && Float.abs st.sum < 4.5e15 then
      Catalog.Value.Int (int_of_float st.sum)
    else Catalog.Value.Float st.sum
  | Expr.Avg ->
    if st.count = 0 then Catalog.Value.Null
    else Catalog.Value.Float (st.sum /. float_of_int st.count)
  | Expr.Min -> (match st.min_v with Some v -> v | None -> Catalog.Value.Null)
  | Expr.Max -> (match st.max_v with Some v -> v | None -> Catalog.Value.Null)

let run_aggregate ~(keys : int list) ~(aggs : Expr.agg_def list) (input : rset) : rset =
  let env = make_env input.layout in
  let kpos = positions_of input.layout keys in
  let groups : (Catalog.Value.t array * agg_state array) KeyTbl.t = KeyTbl.create 64 in
  let order = ref [] in  (* key insertion order for determinism *)
  List.iter
    (fun row ->
       let k = key_of kpos row in
       let _, states =
         match KeyTbl.find_opt groups k with
         | Some e -> e
         | None ->
           let sts =
             Array.of_list (List.map (fun a -> new_agg_state a.Expr.agg_distinct) aggs)
           in
           KeyTbl.replace groups k (k, sts);
           order := k :: !order;
           (k, sts)
       in
       List.iteri
         (fun i a ->
            let v =
              match a.Expr.agg_arg with
              | Some e -> Some (Expr.eval (env row) e)
              | None -> None
            in
            agg_feed a states.(i) v)
         aggs)
    input.rows;
  let emit k states =
    Array.append k (Array.of_list (List.mapi (fun i a -> agg_result a states.(i)) aggs))
  in
  let out_rows =
    if keys = [] then begin
      (* scalar aggregate: one row even over empty input *)
      match KeyTbl.find_opt groups [||] with
      | Some (k, sts) -> [ emit k sts ]
      | None ->
        let sts = Array.of_list (List.map (fun a -> new_agg_state a.Expr.agg_distinct) aggs) in
        [ emit [||] sts ]
    end
    else
      List.rev_map (fun k -> let _, sts = KeyTbl.find groups k in emit k sts) !order
  in
  { layout = keys @ List.map (fun a -> a.Expr.agg_out) aggs; rows = out_rows }

(* -- joins -- *)

let join_layout kind (l : rset) (r : rset) =
  match (kind : Relop.join_kind) with
  | Relop.Semi | Relop.Anti_semi -> l.layout
  | _ -> l.layout @ r.layout

let hash_join ~(kind : Relop.join_kind) ~(pred : Expr.t) (l : rset) (r : rset) : rset =
  let equi =
    Physop.oriented_equi_pairs pred
      ~left_cols:(Registry.Col_set.of_list l.layout)
      ~right_cols:(Registry.Col_set.of_list r.layout)
  in
  let out_layout = join_layout kind l r in
  let combined_layout = l.layout @ r.layout in
  let combined_env = make_env combined_layout in
  let pred_ok lrow rrow =
    let row = Array.append lrow rrow in
    Expr.eval_pred (combined_env row) pred
  in
  let null_row n = Array.make n Catalog.Value.Null in
  if equi = [] then begin
    (* nested loops *)
    let out = ref [] in
    (match kind with
     | Relop.Inner | Relop.Cross ->
       List.iter
         (fun lrow ->
            List.iter (fun rrow -> if pred_ok lrow rrow then out := Array.append lrow rrow :: !out) r.rows)
         l.rows
     | Relop.Semi ->
       List.iter
         (fun lrow -> if List.exists (pred_ok lrow) r.rows then out := lrow :: !out)
         l.rows
     | Relop.Anti_semi ->
       List.iter
         (fun lrow -> if not (List.exists (pred_ok lrow) r.rows) then out := lrow :: !out)
         l.rows
     | Relop.Left_outer ->
       let rwidth = List.length r.layout in
       List.iter
         (fun lrow ->
            let matched = ref false in
            List.iter
              (fun rrow ->
                 if pred_ok lrow rrow then begin
                   matched := true;
                   out := Array.append lrow rrow :: !out
                 end)
              r.rows;
            if not !matched then out := Array.append lrow (null_row rwidth) :: !out)
         l.rows);
    { layout = out_layout; rows = List.rev !out }
  end
  else begin
    let lkpos = positions_of l.layout (List.map fst equi) in
    let rkpos = positions_of r.layout (List.map snd equi) in
    let index : Catalog.Value.t array list KeyTbl.t = KeyTbl.create 256 in
    List.iter
      (fun rrow ->
         let k = key_of rkpos rrow in
         if not (Array.exists Catalog.Value.is_null k) then begin
           let cur = try KeyTbl.find index k with Not_found -> [] in
           KeyTbl.replace index k (rrow :: cur)
         end)
      r.rows;
    let out = ref [] in
    let rwidth = List.length r.layout in
    List.iter
      (fun lrow ->
         let k = key_of lkpos lrow in
         let matches =
           if Array.exists Catalog.Value.is_null k then []
           else
             match KeyTbl.find_opt index k with
             | Some rs -> List.filter (pred_ok lrow) rs
             | None -> []
         in
         match kind with
         | Relop.Inner | Relop.Cross ->
           List.iter (fun rrow -> out := Array.append lrow rrow :: !out) matches
         | Relop.Semi -> if matches <> [] then out := lrow :: !out
         | Relop.Anti_semi -> if matches = [] then out := lrow :: !out
         | Relop.Left_outer ->
           if matches = [] then out := Array.append lrow (null_row rwidth) :: !out
           else List.iter (fun rrow -> out := Array.append lrow rrow :: !out) matches)
      l.rows;
    { layout = out_layout; rows = List.rev !out }
  end

(* -- sort -- *)

let sort_rows ~(keys : Relop.sort_key list) ?limit (input : rset) : rset =
  let env = make_env input.layout in
  let cmp a b =
    let rec go = function
      | [] -> 0
      | k :: rest ->
        let va = Expr.eval (env a) k.Relop.key and vb = Expr.eval (env b) k.Relop.key in
        let c = Catalog.Value.compare va vb in
        let c = if k.Relop.desc then -c else c in
        if c <> 0 then c else go rest
    in
    go keys
  in
  let sorted = List.stable_sort cmp input.rows in
  let rows =
    match limit with
    | Some n -> take n sorted
    | None -> sorted
  in
  { input with rows }

(** Execute one serial physical operator. [read_table] resolves base-table
    scans (it receives the table name and returns that node's rows).
    [stats], when given, accumulates executor counters for this shard. *)
let exec_op ?(stats : exec_stats option) ~(read_table : string -> rows) (op : Physop.t)
    (children : rset list) : rset =
  let children = Array.of_list children in
  let child n = children.(n) in
  (match stats with Some st -> st.batches <- st.batches + 1 | None -> ());
  match op with
  | Physop.Table_scan { table; cols; _ } ->
    let rows = read_table table in
    (match stats with
     | Some st -> st.rows_scanned <- st.rows_scanned + List.length rows
     | None -> ());
    { layout = Array.to_list cols; rows }
  | Physop.Filter pred ->
    let c = child 0 in
    { c with rows = List.filter (eval_pred_on c.layout pred) c.rows }
  | Physop.Compute defs ->
    let c = child 0 in
    let env = make_env c.layout in
    let exprs = List.map snd defs in
    { layout = List.map fst defs;
      rows = List.map (fun row -> Array.of_list (List.map (Expr.eval (env row)) exprs)) c.rows }
  | Physop.Hash_join { kind; pred } | Physop.Merge_join { kind; pred } ->
    (* merge join is value-equivalent to hash join; order is re-established
       by explicit enforcers where needed *)
    (match stats with
     | Some st -> st.probe_rows <- st.probe_rows + List.length (child 0).rows
     | None -> ());
    hash_join ~kind ~pred (child 0) (child 1)
  | Physop.Nl_join { kind; pred } ->
    (* hash_join falls back to nested loops when the predicate has no
       usable equi pairs *)
    (match stats with
     | Some st -> st.probe_rows <- st.probe_rows + List.length (child 0).rows
     | None -> ());
    hash_join ~kind ~pred (child 0) (child 1)
  | Physop.Hash_agg { keys; aggs } -> run_aggregate ~keys ~aggs (child 0)
  | Physop.Stream_agg { keys; aggs } ->
    (* robust to unsorted input: aggregation hashes internally *)
    run_aggregate ~keys ~aggs (child 0)
  | Physop.Sort_op { keys; limit } -> sort_rows ~keys ?limit (child 0)
  | Physop.Union_op ->
    (* the right branch's projection has already aligned layouts *)
    let l = child 0 and r = child 1 in
    { layout = l.layout; rows = l.rows @ r.rows }
  | Physop.Const_empty cols -> { layout = cols; rows = [] }

(** Execute a whole serial plan tree (the single-node oracle). *)
let rec exec_plan ~read_table (p : Serialopt.Plan.t) : rset =
  let children = List.map (exec_plan ~read_table) p.Serialopt.Plan.children in
  exec_op ~read_table p.Serialopt.Plan.op children

(* -- result comparison -- *)

(** Canonical multiset representation of a result: rows rendered with
    {!Catalog.Value.to_string}, sorted. Projects [cols] out of the layout. *)
let canonical ?cols (r : rset) : string list =
  let layout, rows =
    match cols with
    | None -> (r.layout, r.rows)
    | Some cs ->
      let env = make_env r.layout in
      (cs, List.map (fun row -> Array.of_list (List.map (env row) cs)) r.rows)
  in
  ignore layout;
  let row_str row =
    String.concat "|" (List.map Catalog.Value.to_string (Array.to_list row))
  in
  List.sort String.compare (List.map row_str rows)
