(** Engine-agnostic result sets: the payload type carried by appliance
    storage, distributed streams, and DSQL temp tables.

    The row engine works over [Local.rset] (boxed value-array lists); the
    columnar engine over {!Batch.t} (typed column slices + selection
    vectors). Everything the DMS runtime and the accounting need —
    cardinality, serialized bytes, hash routing, projection — is defined
    here over both representations with *identical* semantics, so the
    simulated clock is bit-for-bit the same whichever engine runs the
    per-node work. *)

module Value = Catalog.Value

type engine = Row | Columnar

type t =
  | Rows of Local.rset
  | Cols of Batch.t

let of_batch b = Cols b

let to_local = function Rows r -> r | Cols b -> Batch.to_rset b
let to_batch = function Rows r -> Batch.of_rset r | Cols b -> b

let layout = function
  | Rows r -> r.Local.layout
  | Cols b -> Array.to_list b.Batch.layout

let count = function
  | Rows r -> List.length r.Local.rows
  | Cols b -> Batch.count b

(** Reinterpret the column ids (arity must match; mirrors the row engine's
    unchecked relabeling when a stream enters a serial step). *)
let with_layout rs (layout : int list) : t =
  match rs with
  | Rows r -> Rows { r with Local.layout = layout }
  | Cols b ->
    let rec same i = function
      | [] -> i = Array.length b.Batch.layout
      | c :: rest -> i < Array.length b.Batch.layout && b.Batch.layout.(i) = c && same (i + 1) rest
    in
    if same 0 layout then rs else Cols { b with Batch.layout = Array.of_list layout }

let empty_like = function
  | Rows r -> Rows { Local.layout = r.Local.layout; rows = [] }
  | Cols b -> Cols (Batch.empty (Array.to_list b.Batch.layout))

(* -- byte accounting (identical to per-value [Value.width] sums) -- *)

let row_bytes (row : Value.t array) =
  Array.fold_left (fun acc v -> acc + Value.width v) 0 row

let bytes = function
  | Rows r ->
    List.fold_left (fun acc row -> acc +. float_of_int (row_bytes row)) 0. r.Local.rows
  | Cols b -> Batch.bytes b

(** [(bytes, rows)] volume of a result set, as the DMS accounting wants it. *)
let vol rs = (bytes rs, float_of_int (count rs))

(* -- routing -- *)

(** Routing hash over a row's key values: must agree between initial table
    loading and shuffles, and between engines (the columnar side's
    {!Batch.route_dests} folds the same per-value hash). *)
let route_hash (values : Value.t list) =
  abs (List.fold_left (fun h v -> (h * 31) + Value.hash v) 17 values)

(** First-occurrence positions of [cols] in the payload's layout. *)
let positions rs (cols : int list) : int array =
  match rs with
  | Rows r -> Local.positions_of r.Local.layout cols
  | Cols b -> Batch.positions b cols

(** Hash-partition into [parts] shards by the columns at positions [kpos];
    row order is preserved within each shard. *)
let partition rs ~(kpos : int array) ~(parts : int) : t array =
  match rs with
  | Rows r ->
    let buckets = Array.make parts [] in
    List.iter
      (fun row ->
         let k = Array.fold_right (fun i acc -> row.(i) :: acc) kpos [] in
         let dst = route_hash k mod parts in
         buckets.(dst) <- row :: buckets.(dst))
      r.Local.rows;
    Array.map
      (fun b -> Rows { Local.layout = r.Local.layout; rows = List.rev b })
      buckets
  | Cols b -> Array.map of_batch (Batch.partition b ~kpos ~parts)

(** Keep only the rows whose route hash lands on [node]. *)
let trim rs ~(kpos : int array) ~(node : int) ~(parts : int) : t =
  match rs with
  | Rows r ->
    Rows
      { r with
        Local.rows =
          List.filter
            (fun row ->
               let k = Array.fold_right (fun i acc -> row.(i) :: acc) kpos [] in
               route_hash k mod parts = node)
            r.Local.rows }
  | Cols b -> Cols (Batch.trim b ~kpos ~node ~parts)

(** Project onto [cols] (by layout id, first occurrence). *)
let project rs (cols : int list) : t =
  match rs with
  | Rows r ->
    if cols = r.Local.layout then rs
    else begin
      let env = Local.make_env r.Local.layout in
      Rows
        { Local.layout = cols;
          rows =
            List.map
              (fun row -> Array.of_list (List.map (env row) cols))
              r.Local.rows }
    end
  | Cols b -> Cols (Batch.project b cols)

(** The client's copy of shards [parts], in order: a row payload's rows
    are concatenated as they are, and a batch's visible rows are boxed
    once, straight into the result. *)
let client_rows (parts : t list) : Local.rows =
  List.fold_right
    (fun p acc ->
       match p, acc with
       | Rows r, [] -> r.Local.rows
       | Rows r, _ -> r.Local.rows @ acc
       | Cols b, _ -> Batch.rows_onto b acc)
    parts []

(* The shards of one stream all come from one engine, so the
   concatenations below take their representation from the first shard. *)

(** Concatenate shards [parts] (in order) into one result set with
    [layout]. *)
let concat ~(layout : int list) (parts : t list) : t =
  match parts with
  | Cols _ :: _ ->
    let b = Batch.concat_list (List.map to_batch parts) in
    Cols { b with Batch.layout = Array.of_list layout }
  | _ ->
    Rows { Local.layout; rows = List.concat_map (fun p -> (to_local p).Local.rows) parts }

(** Hash-partition every source into [parts] shards with [layout]: shard
    [p] is the concatenation, in source order, of each source's [p]-th
    {!partition} shard. *)
let shuffle (sources : t list) ~(layout : int list) ~(kpos : int array) ~(parts : int) :
  t array =
  match sources with
  | Cols _ :: _ ->
    Array.map of_batch
      (Batch.shuffle (List.map to_batch sources) ~kpos ~parts ~layout:(Array.of_list layout))
  | _ ->
    let per_source = List.map (partition ~kpos ~parts) sources in
    Array.init parts (fun p -> concat ~layout (List.map (fun ps -> ps.(p)) per_source))
