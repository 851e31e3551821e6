(** The DMS cost model (paper §3.3.3 and Fig. 5).

    A DMS operator has a source (reader + network sender) and a target
    (writer + SQL bulk copy), running in parallel on each node:

      C_source = max(C_reader, C_network)
      C_target = max(C_writer, C_SQLBlkCpy)
      C_DMS    = max(C_source, C_target)

    Each component is costed linearly in the raw bytes it processes:
    C_X = B * lambda_X, where B = Y*w/N for distributed streams and Y*w for
    replicated streams (Y = global cardinality, w = row width, N = number of
    compute nodes). C_reader uses two constants, lambda_hash and
    lambda_direct, because hash routing (Shuffle, Trim) costs more than
    direct reading. The lambdas come from cost calibration (see
    {!Calibrate}). *)

type lambdas = {
  l_reader_direct : float;  (** s/byte, reading + packing without hashing *)
  l_reader_hash : float;    (** s/byte, reading + hashing + packing *)
  l_network : float;        (** s/byte sent *)
  l_writer : float;         (** s/byte unpacked into insert buffers *)
  l_blkcpy : float;         (** s/byte bulk-copied into the temp table *)
}

(** Uncalibrated defaults in the vicinity of commodity hardware (1-2 GB/s
    per component); production use should replace them via calibration. *)
let default_lambdas = {
  l_reader_direct = 1.0e-9;
  l_reader_hash = 1.4e-9;
  l_network = 0.8e-9;
  l_writer = 0.7e-9;
  l_blkcpy = 1.25e-9;
}

type breakdown = {
  c_reader : float;
  c_network : float;
  c_writer : float;
  c_blkcpy : float;
  c_source : float;
  c_target : float;
  c_total : float;
  bytes_moved : float;   (** total bytes crossing the network, for reporting *)
}

(** Per-component byte volumes for one DMS operation.
    Returns (reader bytes, uses hashing, network bytes, writer bytes). *)
let byte_volumes (k : Op.kind) ~(nodes : int) ~(rows : float) ~(width : float) =
  let n = float_of_int (max 1 nodes) in
  let total = Float.max 0. rows *. Float.max 1. width in
  let dist = total /. n in  (* per-node share of a distributed stream *)
  match k with
  | Op.Shuffle _ ->
    (* read local share with hashing; send (N-1)/N of it (modelled as the
       full share per the paper's simplification); write local share *)
    (dist, true, dist, dist)
  | Op.Partition_move ->
    (* every node sends its share; the single target writes everything *)
    (dist, false, dist, total)
  | Op.Control_node_move | Op.Replicated_broadcast ->
    (* one source node reads and sends the full table; every target node
       writes a full copy (replicated stream: B = Y*w) *)
    (total, false, total, total)
  | Op.Broadcast ->
    (* each node reads its share but sends it to every other node; each
       target writes the full table *)
    (dist, false, total, total)
  | Op.Trim _ ->
    (* purely local: each node re-hashes its full replica, keeps 1/N *)
    (total, true, 0., dist)
  | Op.Remote_copy ->
    (dist, false, dist, total)

(** Cost one DMS operation moving [rows] rows of [width] bytes across an
    appliance of [nodes] compute nodes. *)
let cost ?(lambdas = default_lambdas) (k : Op.kind) ~nodes ~rows ~width : breakdown =
  let b_read, hashed, b_net, b_write = byte_volumes k ~nodes ~rows ~width in
  let c_reader =
    b_read *. (if hashed then lambdas.l_reader_hash else lambdas.l_reader_direct)
  in
  let c_network = b_net *. lambdas.l_network in
  let c_writer = b_write *. lambdas.l_writer in
  let c_blkcpy = b_write *. lambdas.l_blkcpy in
  let c_source = Float.max c_reader c_network in
  let c_target = Float.max c_writer c_blkcpy in
  { c_reader; c_network; c_writer; c_blkcpy; c_source; c_target;
    c_total = Float.max c_source c_target;
    bytes_moved = b_net *. float_of_int (max 1 nodes) }

(** Per-byte and per-row rates of a physical re-partition pipeline
    (reader -> network -> writer). Every topology move of the engine (a
    node loss, a grow, a re-key) is one path that prices each table copy
    through {!repartition_seconds}. *)
type move_rates = {
  r_reader_byte : float; r_reader_row : float;
  r_network_byte : float; r_network_row : float;
  r_writer_byte : float; r_writer_row : float;
}

(** Seconds to re-partition [bytes]/[rows] through a full
    reader+network+writer pipeline at the given rates. The components are
    summed, not maxed: a re-partition streams every byte through all three
    stages back to back (unlike a steady-state DMS operator where they
    overlap). *)
let repartition_seconds (r : move_rates) ~(bytes : float) ~(rows : float) =
  (bytes *. (r.r_reader_byte +. r.r_network_byte +. r.r_writer_byte))
  +. (rows *. (r.r_reader_row +. r.r_network_row +. r.r_writer_row))
