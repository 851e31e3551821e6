(** The DMS cost model (paper §3.3.3 and Fig. 5):

    [C_DMS = max(C_source, C_target)], [C_source = max(C_reader, C_network)],
    [C_target = max(C_writer, C_SQLBlkCpy)], each component linear in the raw
    bytes it processes ([B = Y*w/N] for distributed streams, [Y*w] for
    replicated streams). The reader has two constants because hash routing
    (Shuffle/Trim) costs more than direct reading. *)

type lambdas = {
  l_reader_direct : float;  (** s/byte, reading + packing without hashing *)
  l_reader_hash : float;    (** s/byte, reading + hashing + packing *)
  l_network : float;        (** s/byte sent *)
  l_writer : float;         (** s/byte unpacked into insert buffers *)
  l_blkcpy : float;         (** s/byte bulk-copied into the temp table *)
}

(** Plausible commodity-hardware defaults; production use should replace
    them via {!Calibrate}. *)
val default_lambdas : lambdas

type breakdown = {
  c_reader : float;
  c_network : float;
  c_writer : float;
  c_blkcpy : float;
  c_source : float;      (** max(reader, network) *)
  c_target : float;      (** max(writer, blkcpy) *)
  c_total : float;       (** max(source, target) *)
  bytes_moved : float;   (** total bytes crossing the network *)
}

(** Cost one DMS operation moving [rows] rows of [width] bytes across an
    appliance of [nodes] compute nodes. *)
val cost : ?lambdas:lambdas -> Op.kind -> nodes:int -> rows:float -> width:float -> breakdown

(** Per-byte and per-row rates of a physical re-partition pipeline
    (reader -> network -> writer). Every topology move (a node loss, a
    grow, a re-key) prices each of its table copies with these rates
    through {!repartition_seconds}, one copy step per table. *)
type move_rates = {
  r_reader_byte : float; r_reader_row : float;
  r_network_byte : float; r_network_row : float;
  r_writer_byte : float; r_writer_row : float;
}

(** Seconds to re-partition [bytes]/[rows] through a full
    reader+network+writer pipeline at the given rates (components summed:
    a re-partition streams every byte through all three stages back to
    back, unlike an overlapped steady-state DMS operator). *)
val repartition_seconds : move_rates -> bytes:float -> rows:float -> float
