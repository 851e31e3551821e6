(** The simulated PDW appliance: a control node plus N compute nodes, each
    holding hash-partitioned or replicated table shards and running the
    {!Local} executor; a DMS runtime routes rows between nodes with byte
    accounting and a simulated clock (paper §2.1-§2.4).

    Time is simulated from "true" per-component hardware characteristics
    that are deliberately richer than the optimizer's linear cost model
    (per-byte rate + per-row overhead + fixed setup): calibration (paper
    §3.3.3) fits the model's lambdas against measurements produced here. *)


type rows = Catalog.Value.t array list

(* -- "true" hardware characteristics of the simulated appliance -- *)

type hw = {
  reader_byte : float; reader_row : float;
  hash_extra_byte : float;               (** extra reader cost when hashing *)
  network_byte : float; network_row : float;
  writer_byte : float; writer_row : float;
  blkcpy_byte : float; blkcpy_row : float; blkcpy_fixed : float;
  serial_unit : float;  (** seconds per unit of {!Serialopt.Cost} work *)
}

let default_hw = {
  reader_byte = 0.95e-9; reader_row = 6e-9;
  hash_extra_byte = 0.45e-9;
  network_byte = 0.82e-9; network_row = 3e-9;
  writer_byte = 0.65e-9; writer_row = 4e-9;
  blkcpy_byte = 1.30e-9; blkcpy_row = 7e-9; blkcpy_fixed = 2e-4;
  serial_unit = 0.04e-6;
}

(* -- accounting -- *)

type account = {
  mutable sim_time : float;         (** simulated response time, seconds *)
  mutable dms_time : float;         (** portion spent in DMS steps *)
  mutable bytes_moved : float;      (** bytes that crossed the network *)
  mutable rows_moved : float;
  mutable moves : int;
  mutable reader_samples : Dms.Calibrate.sample list;
  mutable reader_hash_samples : Dms.Calibrate.sample list;
  mutable network_samples : Dms.Calibrate.sample list;
  mutable writer_samples : Dms.Calibrate.sample list;
  mutable blkcpy_samples : Dms.Calibrate.sample list;
  (* fault plane *)
  mutable injected : int;           (** faults that fired (stragglers included) *)
  mutable retries : int;            (** step re-executions after a failure *)
  mutable recovered : int;          (** steps that eventually succeeded *)
  mutable replans : int;            (** node losses escalated to re-optimization *)
  mutable backoff_time : float;     (** simulated seconds spent backing off *)
}

let fresh_account () = {
  sim_time = 0.; dms_time = 0.; bytes_moved = 0.; rows_moved = 0.; moves = 0;
  reader_samples = []; reader_hash_samples = []; network_samples = [];
  writer_samples = []; blkcpy_samples = [];
  injected = 0; retries = 0; recovered = 0; replans = 0; backoff_time = 0.;
}

(* copy every field of [src] into [dst]; keeps [reset_account] and the
   account carry-over across a node-loss replan in one place, so a new
   account field cannot be forgotten in one of them *)
let assign_account ~(dst : account) (src : account) =
  dst.sim_time <- src.sim_time;
  dst.dms_time <- src.dms_time;
  dst.bytes_moved <- src.bytes_moved;
  dst.rows_moved <- src.rows_moved;
  dst.moves <- src.moves;
  dst.reader_samples <- src.reader_samples;
  dst.reader_hash_samples <- src.reader_hash_samples;
  dst.network_samples <- src.network_samples;
  dst.writer_samples <- src.writer_samples;
  dst.blkcpy_samples <- src.blkcpy_samples;
  dst.injected <- src.injected;
  dst.retries <- src.retries;
  dst.recovered <- src.recovered;
  dst.replans <- src.replans;
  dst.backoff_time <- src.backoff_time

let samples_of account (c : Dms.Calibrate.component) =
  match c with
  | Dms.Calibrate.Reader_direct -> account.reader_samples
  | Dms.Calibrate.Reader_hash -> account.reader_hash_samples
  | Dms.Calibrate.Network -> account.network_samples
  | Dms.Calibrate.Writer -> account.writer_samples
  | Dms.Calibrate.Blkcpy -> account.blkcpy_samples

(* -- the appliance -- *)

type t = {
  shell : Catalog.Shell_db.t;
  nodes : int;
  hw : hw;
  (* per compute node: table name -> shard payload (row- or column-major,
     matching how the table was loaded; positional layout 0..w-1) *)
  storage : (string, Rset.t) Hashtbl.t array;
  mutable engine : Rset.engine;
      (** which local-executor implementation serial steps run; the row
          engine is the semantics oracle, the columnar engine the fast
          path. Either way the simulated clock and the DMS accounting are
          bit-identical: both are computed from (bytes, rows) volumes and
          operator cardinalities only. *)
  account : account;
  mutable pool : Par.t;
      (** domain pool executing per-compute-node shards of each serial
          step concurrently (the paper's "each DSQL step runs on all N
          nodes in parallel", §2.1/§2.4); {!Par.sequential} by default.
          The simulated clock is unaffected: per-node times are combined
          with the same max/sum rules either way. *)
  mutable check : bool;
      (** validate every plan handed to {!run_pplan} with
          {!Check.validate_exec} and refuse invalid ones ({!Check.Invalid})
          rather than silently producing wrong rows; on by default *)
  mutable fault : Fault.plan;
      (** fault-injection plan consulted at the engine's injection sites;
          {!Fault.none} by default (every draw is a no-op) *)
  mutable epoch : int;
      (** replan epoch: 0 at creation, bumped by {!decommission}; part of
          every fault-draw coordinate so post-replan execution redraws *)
  mutable step_no : int;
      (** injectable steps started in the current statement (deterministic
          plan-traversal order); reset by {!begin_statement} *)
  mutable cur_step : int;     (** step id the recovery wrapper is executing *)
  mutable cur_attempt : int;  (** execution attempt of that step (0 = first) *)
}

let create ?(hw = default_hw) ?(pool = Par.sequential) ?(check = true)
    ?(engine = Rset.Row) (shell : Catalog.Shell_db.t) : t =
  let nodes = Catalog.Shell_db.node_count shell in
  { shell; nodes; hw; engine;
    storage = Array.init nodes (fun _ -> Hashtbl.create 16);
    account = fresh_account (); pool; check;
    fault = Fault.none; epoch = 0;
    step_no = 0; cur_step = 0; cur_attempt = 0 }

(** Attach a domain pool for multicore shard execution (typically one pool
    per process, shared across appliances). *)
let set_pool t pool = t.pool <- pool

(** Select the local-executor implementation for serial steps. *)
let set_engine t engine = t.engine <- engine

let engine t = t.engine

(** Enable/disable the {!Check} execution gate (see the [check] field). *)
let set_check t check = t.check <- check

(** Attach a fault-injection plan ({!Fault.none} disables injection). *)
let set_fault t fault = t.fault <- fault

let reset_account t = assign_account ~dst:t.account (fresh_account ())

(** Start a new statement: step numbering restarts at 0 so explicit fault
    schedules address steps of each statement independently. *)
let begin_statement t =
  t.step_no <- 0;
  t.cur_step <- 0;
  t.cur_attempt <- 0

(* routing hash: must agree between initial loading and shuffles (and
   between engines — see {!Rset.route_hash}) *)
let route_hash = Rset.route_hash

(** Load a table shard payload, partitioning or replicating per the shell
    layout. The payload keeps its representation (row- or column-major). *)
let load_rset (t : t) (name : string) (data : Rset.t) =
  let tbl = Catalog.Shell_db.find_exn t.shell name in
  let key = String.lowercase_ascii name in
  match tbl.Catalog.Shell_db.dist with
  | Catalog.Distribution.Replicated ->
    Array.iter (fun store -> Hashtbl.replace store key data) t.storage
  | Catalog.Distribution.Hash_partitioned cols ->
    let schema = tbl.Catalog.Shell_db.schema in
    let kpos =
      Array.of_list (List.filter_map (fun c -> Catalog.Schema.find_col schema c) cols)
    in
    let parts = Rset.partition data ~kpos ~parts:t.nodes in
    Array.iteri (fun i store -> Hashtbl.replace store key parts.(i)) t.storage

(** Load a table from rows (row-major storage). *)
let load_table (t : t) (name : string) (rows : rows) =
  let w = match rows with [] -> 0 | r :: _ -> Array.length r in
  load_rset t name (Rset.Rows { Local.layout = List.init w Fun.id; rows })

(** Load a table from a column-major payload (columnar storage). *)
let load_table_cols (t : t) (name : string) (tbl : Catalog.Column.table) =
  let w = Array.length tbl.Catalog.Column.cols in
  load_rset t name
    (Rset.Cols { (Batch.of_table tbl) with Batch.layout = Array.init w Fun.id })

let node_rset t node name =
  match Hashtbl.find_opt t.storage.(node) (String.lowercase_ascii name) with
  | Some rs -> rs
  | None -> raise (Local.Exec_error (Printf.sprintf "table %s not loaded" name))

let node_table t node name = (Rset.to_local (node_rset t node name)).Local.rows

let node_batch t node name = Rset.to_batch (node_rset t node name)

(* -- distributed streams -- *)

type dstream = {
  layout : int list;
  per_node : Rset.t array;   (** length = t.nodes; unused when on control *)
  control : Rset.t;          (** payload resident on the control node *)
  dist : Dms.Distprop.t;
}

(** The full logical contents of a stream as one payload. *)
let stream_rset (d : dstream) : Rset.t =
  match d.dist with
  | Dms.Distprop.Single_node -> Rset.with_layout d.control d.layout
  | Dms.Distprop.Replicated ->
    if Array.length d.per_node = 0 then Rset.Rows { Local.layout = d.layout; rows = [] }
    else Rset.with_layout d.per_node.(0) d.layout
  | Dms.Distprop.Hashed _ ->
    Rset.concat ~layout:d.layout (Array.to_list d.per_node)

let stream_rows (d : dstream) : rows = (Rset.to_local (stream_rset d)).Local.rows

(* -- fault injection and step-level recovery -- *)

let fault_active t = t.fault.Fault.mode <> Fault.Off

let note_injection ~obs t (site : Fault.site) =
  t.account.injected <- t.account.injected + 1;
  if Obs.enabled obs then begin
    Obs.add obs "fault.injected" 1;
    Obs.add obs ("fault.injected." ^ Fault.site_name site) 1
  end

let fail_at ~obs t (site : Fault.site) (node : int) =
  note_injection ~obs t site;
  raise (Fault.Injected { Fault.site; epoch = t.epoch; step = t.cur_step; node })

(** Raise {!Fault.Injected} if the plan fires [site] at the step/attempt
    the recovery wrapper is currently executing. For node-less sites. *)
let inject_point ?(obs = Obs.null) (t : t) (site : Fault.site) =
  if fault_active t
     && Fault.fires t.fault ~site ~epoch:t.epoch ~step:t.cur_step ~node:(-1)
          ~attempt:t.cur_attempt
  then fail_at ~obs t site (-1)

(** [with_recovery t f] runs one injectable step [f] under the retry
    policy: a recoverable {!Fault.Injected} charges exponential backoff to
    the simulated clock and re-runs [f] (after [on_retry], which must make
    re-execution idempotent — e.g. drop the step's temp table), up to the
    policy's retry budget, after which {!Fault.Exhausted} is raised.
    {!Fault.Node_crash} is not retryable here: it propagates to the caller
    (the statement must be re-optimized against the surviving nodes).
    [token] is the statement's cancellation token, polled before the step;
    [obs] receives the [fault.*] counters. *)
let with_recovery ?(on_retry = fun () -> ()) ?(obs = Obs.null)
    ?(token = Governor.none) (t : t) (f : unit -> 'a) : 'a =
  (* Cooperative cancellation at step granularity, in the caller domain
     only (sim_time is read/updated here, never in pool workers, so a
     simulated-clock deadline trips at the same step at any --jobs).
     Raising between steps is safe: executor temp state unwinds with the
     exception and half-written temps are dropped with it. *)
  Governor.poll ~where:"engine.step" token;
  let step = t.step_no in
  t.step_no <- step + 1;
  if not (fault_active t) then begin
    (* keep step numbering identical with injection off, so a schedule's
       step ids can be derived from a fault-free run *)
    t.cur_step <- step;
    t.cur_attempt <- 0;
    f ()
  end
  else begin
    let policy = t.fault.Fault.policy in
    let rec attempt k =
      t.cur_step <- step;
      t.cur_attempt <- k;
      match f () with
      | v ->
        if k > 0 then begin
          t.account.recovered <- t.account.recovered + 1;
          if Obs.enabled obs then Obs.add obs "fault.recovered" 1
        end;
        v
      | exception (Fault.Injected failure as e) ->
        if failure.Fault.site = Fault.Node_crash then raise e
        else if k >= policy.Fault.retries then
          raise (Fault.Exhausted { failure; attempts = k + 1 })
        else begin
          let pause = Fault.backoff policy (k + 1) in
          t.account.sim_time <- t.account.sim_time +. pause;
          t.account.backoff_time <- t.account.backoff_time +. pause;
          t.account.retries <- t.account.retries + 1;
          if Obs.enabled obs then begin
            Obs.add obs "fault.retries" 1;
            Obs.addf obs "fault.backoff_seconds" pause
          end;
          on_retry ();
          Obs.with_span obs "fault.retry" (fun () -> attempt (k + 1))
        end
    in
    attempt 0
  end

(* -- simulated DMS runtime -- *)

let source_time hw ~hashed ~read_bytes ~read_rows ~net_bytes ~net_rows =
  let rb = hw.reader_byte +. (if hashed then hw.hash_extra_byte else 0.) in
  let t_read = (read_bytes *. rb) +. (read_rows *. hw.reader_row) in
  let t_net = (net_bytes *. hw.network_byte) +. (net_rows *. hw.network_row) in
  (t_read, t_net, Float.max t_read t_net)

let target_time hw ~write_bytes ~write_rows =
  let t_write = (write_bytes *. hw.writer_byte) +. (write_rows *. hw.writer_row) in
  let t_blk =
    (write_bytes *. hw.blkcpy_byte) +. (write_rows *. hw.blkcpy_row) +. hw.blkcpy_fixed
  in
  (t_write, t_blk, Float.max t_write t_blk)

(* record calibration samples and advance the clock; per-node component
   volumes are summarized by their max (homogeneity assumption) *)
let account_move ~obs t ~opname ~hashed ~per_node_read ~per_node_net ~per_node_write =
  let a = t.account in
  let hw = t.hw in
  (* max over nodes of max(read, net) = max(max reads, max nets), so the
     read and net volume lists need not be aligned per node *)
  let max_of f l = List.fold_left (fun m x -> Float.max m (f x)) 0. l in
  let t_read_max =
    max_of
      (fun (rb, rr) ->
         let r, _, _ = source_time hw ~hashed ~read_bytes:rb ~read_rows:rr
             ~net_bytes:0. ~net_rows:0. in
         r)
      per_node_read
  in
  let t_net_max =
    max_of
      (fun (nb, nr) -> (nb *. hw.network_byte) +. (nr *. hw.network_row))
      per_node_net
  in
  let t_src = Float.max t_read_max t_net_max in
  let t_tgt =
    max_of
      (fun (wb, wr) -> let _, _, s = target_time hw ~write_bytes:wb ~write_rows:wr in s)
      per_node_write
  in
  let step = Float.max t_src t_tgt in
  a.sim_time <- a.sim_time +. step;
  a.dms_time <- a.dms_time +. step;
  a.moves <- a.moves + 1;
  (* per-DMS-op volume per cost component (reader / network / writer) *)
  if Obs.enabled obs then begin
    let sum l = List.fold_left (fun (b, r) (b', r') -> (b +. b', r +. r')) (0., 0.) l in
    let rbytes, _ = sum per_node_read in
    let nbytes, nrows = sum per_node_net in
    let wbytes, _ = sum per_node_write in
    let c name v = Obs.addf obs (Printf.sprintf "engine.dms.%s.%s" opname name) v in
    c "moves" 1.;
    c "seconds" step;
    c "reader.bytes" rbytes;
    c "network.bytes" nbytes;
    c "network.rows" nrows;
    c "writer.bytes" wbytes
  end;
  (* calibration samples (true component times vs bytes) *)
  List.iter
    (fun (rb, rr) ->
       if rb > 0. then begin
         let tt =
           (rb *. (hw.reader_byte +. if hashed then hw.hash_extra_byte else 0.))
           +. (rr *. hw.reader_row)
         in
         let s = { Dms.Calibrate.bytes = rb; seconds = tt } in
         if hashed then a.reader_hash_samples <- s :: a.reader_hash_samples
         else a.reader_samples <- s :: a.reader_samples
       end)
    per_node_read;
  List.iter
    (fun (nb, nr) ->
       if nb > 0. then begin
         let tt = (nb *. hw.network_byte) +. (nr *. hw.network_row) in
         a.network_samples <- { Dms.Calibrate.bytes = nb; seconds = tt } :: a.network_samples;
         a.bytes_moved <- a.bytes_moved +. nb;
         a.rows_moved <- a.rows_moved +. nr
       end)
    per_node_net;
  List.iter
    (fun (wb, wr) ->
       if wb > 0. then begin
         let tw = (wb *. hw.writer_byte) +. (wr *. hw.writer_row) in
         let tb = (wb *. hw.blkcpy_byte) +. (wr *. hw.blkcpy_row) +. hw.blkcpy_fixed in
         a.writer_samples <- { Dms.Calibrate.bytes = wb; seconds = tw } :: a.writer_samples;
         a.blkcpy_samples <- { Dms.Calibrate.bytes = wb; seconds = tb } :: a.blkcpy_samples
       end)
    per_node_write

let project_stream (d : dstream) (cols : int list) : dstream =
  if cols = d.layout then d
  else begin
    let proj rs = Rset.project (Rset.with_layout rs d.layout) cols in
    { d with layout = cols; per_node = Array.map proj d.per_node;
      control = proj d.control }
  end

let empty_rs (layout : int list) = Rset.Rows { Local.layout = layout; rows = [] }

(** Execute one DMS operation on a stream (routing + accounting). *)
let run_move_inner ~obs (t : t) (kind : Dms.Op.kind) ~(cols : int list) (input : dstream) :
    dstream =
  let n = t.nodes in
  let input = project_stream input cols in
  let vol = Rset.vol in
  let zero = (0., 0.) in
  let concat parts = Rset.concat ~layout:cols parts in
  match kind with
  | Dms.Op.Shuffle hash_cols ->
    let sources =
      match input.dist with
      | Dms.Distprop.Single_node -> [ input.control ]
      | _ -> Array.to_list input.per_node
    in
    (* each source partitions independently; destination shards append the
       sources' contributions in source order (same row order as the row
       engine's single cons-and-reverse pass over all sources) *)
    let kpos =
      match sources with
      | [] -> [||]
      | s :: _ -> Rset.positions (Rset.with_layout s cols) hash_cols
    in
    let per_source =
      List.map (fun s -> Rset.partition (Rset.with_layout s cols) ~kpos ~parts:n) sources
    in
    let out =
      Array.init n (fun i -> concat (List.map (fun ps -> ps.(i)) per_source))
    in
    account_move ~obs t ~opname:(Dms.Op.name kind) ~hashed:true
      ~per_node_read:(List.map vol sources)
      ~per_node_net:(List.map vol sources)
      ~per_node_write:(Array.to_list (Array.map vol out));
    { layout = cols; per_node = out; control = empty_rs cols;
      dist = Dms.Distprop.Hashed hash_cols }
  | Dms.Op.Partition_move ->
    let all = concat (Array.to_list input.per_node) in
    account_move ~obs t ~opname:(Dms.Op.name kind) ~hashed:false
      ~per_node_read:(Array.to_list (Array.map vol input.per_node))
      ~per_node_net:(Array.to_list (Array.map vol input.per_node))
      ~per_node_write:[ vol all ];
    { layout = cols; per_node = Array.make n (empty_rs cols); control = all;
      dist = Dms.Distprop.Single_node }
  | Dms.Op.Control_node_move | Dms.Op.Replicated_broadcast ->
    let rs = input.control in
    account_move ~obs t ~opname:(Dms.Op.name kind) ~hashed:false
      ~per_node_read:[ vol rs ]
      ~per_node_net:[ vol rs ]
      ~per_node_write:(List.init n (fun _ -> vol rs));
    { layout = cols; per_node = Array.make n rs; control = empty_rs cols;
      dist = Dms.Distprop.Replicated }
  | Dms.Op.Broadcast ->
    let all = concat (Array.to_list input.per_node) in
    account_move ~obs t ~opname:(Dms.Op.name kind) ~hashed:false
      ~per_node_read:(Array.to_list (Array.map vol input.per_node))
      ~per_node_net:[ vol all ]
      ~per_node_write:(List.init n (fun _ -> vol all));
    { layout = cols; per_node = Array.make n all; control = empty_rs cols;
      dist = Dms.Distprop.Replicated }
  | Dms.Op.Trim hash_cols ->
    let out =
      Array.init n (fun i ->
          if Array.length input.per_node > 0 then begin
            let rs = Rset.with_layout input.per_node.(i) cols in
            Rset.trim rs ~kpos:(Rset.positions rs hash_cols) ~node:i ~parts:n
          end
          else empty_rs cols)
    in
    account_move ~obs t ~opname:(Dms.Op.name kind) ~hashed:true
      ~per_node_read:(Array.to_list (Array.map vol input.per_node))
      ~per_node_net:[ zero ]
      ~per_node_write:(Array.to_list (Array.map vol out));
    { layout = cols; per_node = out; control = empty_rs cols;
      dist = Dms.Distprop.Hashed hash_cols }
  | Dms.Op.Remote_copy ->
    let all =
      match input.dist with
      | Dms.Distprop.Replicated ->
        if Array.length input.per_node > 0 then
          Rset.with_layout input.per_node.(0) cols
        else empty_rs cols
      | _ -> concat (Array.to_list input.per_node)
    in
    let reads =
      match input.dist with
      | Dms.Distprop.Replicated -> [ vol all ]
      | _ -> Array.to_list (Array.map vol input.per_node)
    in
    account_move ~obs t ~opname:(Dms.Op.name kind) ~hashed:false ~per_node_read:reads
      ~per_node_net:reads ~per_node_write:[ vol all ];
    { layout = cols; per_node = Array.make n (empty_rs cols); control = all;
      dist = Dms.Distprop.Single_node }

(** {!run_move_inner} plus the DMS injection sites: a transfer can fail
    mid-move, or the destination temp-table write can fail. Both fire
    after accounting — the failed attempt's work is on the clock, and the
    recovery wrapper's retry re-runs (and re-charges) the move. *)
let run_move ?(obs = Obs.null) (t : t) (kind : Dms.Op.kind) ~(cols : int list)
    (input : dstream) : dstream =
  let out = run_move_inner ~obs t kind ~cols input in
  inject_point ~obs t Fault.Dms_transfer;
  inject_point ~obs t Fault.Temp_write;
  out

(* -- serial step execution -- *)

let serial_step_time t (op : Memo.Physop.t) (out_rows : float) (in_rows : float list) =
  let work = Serialopt.Cost.local_cost op ~out:out_rows ~inputs:in_rows in
  work *. t.hw.serial_unit

(* run one shard of a serial step on the selected engine; [stats] (when
   observability is on) is private to this shard, so the pool fan-out stays
   race-free and merging happens in the caller domain *)
let shard_exec (t : t) ~(node : int) ?stats (op : Memo.Physop.t)
    (inputs : Rset.t list) : Rset.t =
  match t.engine with
  | Rset.Row ->
    Rset.Rows
      (Local.exec_op ?stats ~read_table:(fun name -> node_table t node name) op
         (List.map Rset.to_local inputs))
  | Rset.Columnar ->
    Rset.Cols
      (Batch.exec_op ?stats ~read_table:(fun name -> node_batch t node name) op
         (List.map Rset.to_batch inputs))

(* merge per-shard executor stats into the Obs counters (caller domain) *)
let note_exec_stats ~obs (stats : Local.exec_stats list) =
  if Obs.enabled obs then begin
    let total = Local.fresh_stats () in
    List.iter (fun s -> Local.merge_stats ~into:total s) stats;
    Obs.add obs "engine.rows_scanned" total.Local.rows_scanned;
    Obs.add obs "engine.batches" total.Local.batches;
    Obs.add obs "engine.join_probe_rows" total.Local.probe_rows
  end

(** Execute a serial operator on every node holding data. *)
let run_serial ?(obs = Obs.null) (t : t) (op : Memo.Physop.t) (children : dstream list) :
    dstream =
  let on_control =
    List.exists (fun c -> c.dist = Dms.Distprop.Single_node) children
    || (children = []
        && match op with
        | Memo.Physop.Const_empty _ -> false
        | _ -> false)
  in
  if on_control then begin
    (* all children must be on the control node (or replicated) *)
    let inputs =
      List.map
        (fun c ->
           match c.dist with
           | Dms.Distprop.Single_node -> Rset.with_layout c.control c.layout
           | Dms.Distprop.Replicated ->
             if Array.length c.per_node > 0 then
               Rset.with_layout c.per_node.(0) c.layout
             else empty_rs c.layout
           | Dms.Distprop.Hashed _ ->
             raise (Local.Exec_error "mixed control/distributed serial step"))
        children
    in
    let stats = if Obs.enabled obs then Some (Local.fresh_stats ()) else None in
    let r = shard_exec t ~node:0 ?stats op inputs in
    (match stats with Some s -> note_exec_stats ~obs [ s ] | None -> ());
    let step =
      serial_step_time t op
        (float_of_int (Rset.count r))
        (List.map (fun i -> float_of_int (Rset.count i)) inputs)
    in
    t.account.sim_time <- t.account.sim_time +. step;
    if Obs.enabled obs then begin
      Obs.addf obs "engine.serial.node_seconds" step;
      Obs.addf obs (Printf.sprintf "engine.serial.%s.node_seconds" (Memo.Physop.name op)) step
    end;
    inject_point ~obs t Fault.Control_transient;
    { layout = Rset.layout r; per_node = Array.make t.nodes (empty_rs []);
      control = r; dist = Dms.Distprop.Single_node }
  end
  else begin
    (* node-crash decisions are drawn for every node BEFORE the parallel
       fan-out and the lowest-index hit raised here, never from inside a
       pool body — parallel_for's fail-fast picks an arbitrary first
       exception, which would make the surfaced failure schedule-dependent *)
    if fault_active t then begin
      let rec first_crash node =
        if node >= t.nodes then None
        else if Fault.fires t.fault ~site:Fault.Node_crash ~epoch:t.epoch
                  ~step:t.cur_step ~node ~attempt:t.cur_attempt
        then Some node
        else first_crash (node + 1)
      in
      match first_crash 0 with
      | Some node -> fail_at ~obs t Fault.Node_crash node
      | None -> ()
    end;
    (* every node executes its shard concurrently on the domain pool; the
       bodies only read shared state (storage, children) and write their
       own result slot (including a private stats record), so the fan-out
       is race-free and [outs] / [steps] come back in node order — the
       simulated clock below is bit-identical to the sequential walk *)
    let want_stats = Obs.enabled obs in
    let node_results =
      Par.parallel_map t.pool
        (fun node ->
           let inputs =
             List.map
               (fun c ->
                  if Array.length c.per_node > 0 then
                    Rset.with_layout c.per_node.(node) c.layout
                  else empty_rs c.layout)
               children
           in
           let stats = if want_stats then Some (Local.fresh_stats ()) else None in
           let r = shard_exec t ~node ?stats op inputs in
           let step =
             serial_step_time t op
               (float_of_int (Rset.count r))
               (List.map (fun i -> float_of_int (Rset.count i)) inputs)
           in
           (r, step, stats))
        (Array.init t.nodes Fun.id)
    in
    let outs = Array.map (fun (r, _, _) -> r) node_results in
    note_exec_stats ~obs
      (Array.to_list node_results
       |> List.filter_map (fun (_, _, s) -> s));
    let max_step = ref 0. in
    (* stragglers inflate their node's step time before the max; applied
       here (after the fan-out, in node order) so the combination stays
       bit-identical at any --jobs *)
    Array.iteri
      (fun node (_, step, _) ->
         let step =
           if not (fault_active t) then step
           else
             match
               Fault.straggle t.fault ~epoch:t.epoch ~step:t.cur_step ~node
                 ~attempt:t.cur_attempt
             with
             | Some factor when factor > 0. ->
               note_injection ~obs t Fault.Straggler;
               step *. factor
             | _ -> step
         in
         if step > !max_step then max_step := step)
      node_results;
    t.account.sim_time <- t.account.sim_time +. !max_step;
    if Obs.enabled obs then begin
      Obs.add obs "par.tasks" t.nodes;
      Obs.set obs "par.jobs" (float_of_int (Par.jobs t.pool));
      Obs.addf obs "engine.serial.node_seconds" !max_step;
      Obs.addf obs (Printf.sprintf "engine.serial.%s.node_seconds" (Memo.Physop.name op))
        !max_step
    end;
    let layout = Rset.layout outs.(0) in
    { layout; per_node = outs; control = empty_rs layout;
      dist = Dms.Distprop.Hashed [] (* refined by caller *) }
  end

(* -- full distributed plan execution -- *)

(* An executed operator's observed global row count. It follows the
   distribution: a hashed stream's rows sum across nodes, a replicated
   stream counts one copy, a control-resident stream counts the control
   payload. *)
let observed_rows (d : dstream) =
  match d.dist with
  | Dms.Distprop.Single_node -> float_of_int (Rset.count d.control)
  | Dms.Distprop.Replicated -> float_of_int (Rset.count d.per_node.(0))
  | Dms.Distprop.Hashed _ ->
    Array.fold_left (fun a r -> a +. float_of_int (Rset.count r)) 0. d.per_node

(** Execute a PDW plan on the appliance. Returns the final client result
    (rows + layout); accounting accumulates in [t.account]. The statement's
    state comes in as values: [obs] receives the executor, DMS and fault
    counters, [token] is polled once per injectable step, and [observe]
    is called after each (recovered) Serial/Move operator with the
    operator and its observed global rows — in the caller domain, in
    bottom-up plan order, so the call sequence is deterministic at any
    [--jobs].

    Unless {!set_check} disabled it, the plan is first passed through the
    static analyzer's execution-soundness rules; an invalid plan raises
    {!Check.Invalid} instead of executing — the simulated substrate would
    otherwise silently run it and return wrong rows (the real engine
    rejects such plans). *)
let run_pplan ?(obs = Obs.null) ?(token = Governor.none) ?observe (t : t)
    (p : Pdwopt.Pplan.t) : Local.rset =
  if t.check then begin
    match Check.validate_exec ~obs ~shell:t.shell p with
    | [] -> ()
    | vs -> raise (Check.Invalid vs)
  end;
  begin_statement t;
  let step f = with_recovery ~obs ~token t f in
  let observed (p : Pdwopt.Pplan.t) (d : dstream) =
    (match observe with Some f -> f p (observed_rows d) | None -> ());
    d
  in
  let rec exec_node (p : Pdwopt.Pplan.t) : dstream =
    match p.Pdwopt.Pplan.op, p.Pdwopt.Pplan.children with
    | Pdwopt.Pplan.Serial op, children ->
      let children = List.map exec_node children in
      (* serial steps and moves recompute over immutable input streams, so
         re-execution after a failure is idempotent with no cleanup *)
      let d =
        Obs.with_span obs ("engine.op." ^ Memo.Physop.name op) @@ fun () ->
        step (fun () -> run_serial ~obs t op children)
      in
      observed p { d with dist = p.Pdwopt.Pplan.dist }
    | Pdwopt.Pplan.Move { kind; cols }, [ c ] ->
      let child = exec_node c in
      observed p (step (fun () -> run_move ~obs t kind ~cols child))
    | Pdwopt.Pplan.Move _, _ -> raise (Local.Exec_error "Move expects one child")
    | Pdwopt.Pplan.Return _, _ -> raise (Local.Exec_error "nested Return")
  in
  match p.Pdwopt.Pplan.op with
  | Pdwopt.Pplan.Return { sort; limit } ->
    let child =
      match p.Pdwopt.Pplan.children with
      | [ c ] -> exec_node c
      | _ -> raise (Local.Exec_error "Return expects one child")
    in
    (* the gather is itself an injectable step (control-node transient);
       it is pure over [child], so a retry just recomputes the result *)
    step @@ fun () ->
    let all = stream_rset child in
    (* streamed gather: network accounting only, no temp table *)
    (match child.dist with
     | Dms.Distprop.Single_node -> ()
     | _ ->
       let b, r = Rset.vol all in
       let step = (b *. t.hw.network_byte) +. (r *. t.hw.network_row) in
       t.account.sim_time <- t.account.sim_time +. step;
       t.account.bytes_moved <- t.account.bytes_moved +. b;
       Obs.addf obs "engine.return.bytes" b;
       Obs.addf obs "engine.return.rows" r);
    inject_point ~obs t Fault.Control_transient;
    let rset = Rset.to_local all in
    if sort = [] then
      (match limit with
       | Some n -> { rset with Local.rows = Local.take n rset.Local.rows }
       | None -> rset)
    else Local.sort_rows ~keys:sort ?limit rset
  | _ ->
    let d = exec_node p in
    { Local.layout = d.layout; rows = stream_rows d }

(* -- graceful degradation: node loss -- *)

(* the reader+network+writer pipeline rates of this appliance's hardware,
   in the shape the shared {!Dms.Cost.repartition_seconds} helper prices
   shrink, grow, and re-key moves with *)
let move_rates (hw : hw) : Dms.Cost.move_rates =
  { Dms.Cost.r_reader_byte = hw.reader_byte; r_reader_row = hw.reader_row;
    r_network_byte = hw.network_byte; r_network_row = hw.network_row;
    r_writer_byte = hw.writer_byte; r_writer_row = hw.writer_row }

(** [decommission t ~node] builds a fresh [(nodes - 1)]-node appliance
    after compute node [node] (current index) died: a new shell catalog
    with the same schemas/statistics, every table reloaded and
    re-partitioned mod the surviving count (hash shards are recovered from
    the appliance's mirrored copies — the simulated substrate keeps the
    full logical contents), the account carried over plus a recovery
    charge of re-partitioning every hash-distributed table at DMS rates.
    The new shell is {!Catalog.Shell_db.derive}d, so its version is above
    the old one's and plans compiled for the old topology miss the plan
    cache. The replan [epoch] is bumped so fault draws restart. The
    [fault.replans] and [fault.recovery_seconds] counters go to [obs]. *)
let decommission ?(obs = Obs.null) (t : t) ~(node : int) : t =
  if t.nodes <= 1 then
    (* structured, not [invalid_arg]: losing the last compute node is a
       fault-plane outcome (the appliance cannot serve), and storm drivers
       map {!Fault.Exhausted} to a tally bucket instead of crashing *)
    raise
      (Fault.Exhausted
         { failure =
             { Fault.site = Fault.Node_crash; epoch = t.epoch; step = -1;
               node = 0 };
           attempts = 1 });
  if node < 0 || node >= t.nodes then
    invalid_arg "Appliance.decommission: no such node";
  let tables = Catalog.Shell_db.sorted_tables t.shell in
  let shell' = Catalog.Shell_db.derive ~node_count:(t.nodes - 1) t.shell in
  let t' = create ~hw:t.hw ~pool:t.pool ~check:t.check ~engine:t.engine shell' in
  t'.fault <- t.fault;
  t'.epoch <- t.epoch + 1;
  (* reload user data; the re-partition of every hash-distributed table is
     the recovery work, charged at reader+network+writer rates *)
  let moved_bytes = ref 0. and moved_rows = ref 0. in
  List.iter
    (fun (tbl : Catalog.Shell_db.table) ->
       let name = tbl.Catalog.Shell_db.schema.Catalog.Schema.name in
       let key = String.lowercase_ascii name in
       match tbl.Catalog.Shell_db.dist with
       | Catalog.Distribution.Replicated ->
         (match Hashtbl.find_opt t.storage.(0) key with
          | Some rs -> load_rset t' name rs
          | None -> ())
       | Catalog.Distribution.Hash_partitioned _ ->
         let shards =
           List.filter_map (fun i -> Hashtbl.find_opt t.storage.(i) key)
             (List.init t.nodes Fun.id)
         in
         if List.exists (fun s -> Rset.count s > 0) shards
            || Hashtbl.mem t.storage.(0) key then begin
           let layout =
             match shards with s :: _ -> Rset.layout s | [] -> []
           in
           let all = Rset.concat ~layout shards in
           let b, r = Rset.vol all in
           moved_bytes := !moved_bytes +. b;
           moved_rows := !moved_rows +. r;
           load_rset t' name all
         end)
    tables;
  let recovery =
    Dms.Cost.repartition_seconds (move_rates t.hw) ~bytes:!moved_bytes
      ~rows:!moved_rows
  in
  assign_account ~dst:t'.account t.account;
  t'.account.sim_time <- t'.account.sim_time +. recovery;
  t'.account.dms_time <- t'.account.dms_time +. recovery;
  t'.account.bytes_moved <- t'.account.bytes_moved +. !moved_bytes;
  t'.account.rows_moved <- t'.account.rows_moved +. !moved_rows;
  t'.account.replans <- t'.account.replans + 1;
  if Obs.enabled obs then begin
    Obs.add obs "fault.replans" 1;
    Obs.addf obs "fault.recovery_seconds" recovery
  end;
  t'

(* -- elastic topology: phased grow / re-key moves (DESIGN.md §14) -- *)

(** An in-flight phased topology move: the new layout is copy-built into a
    shadow appliance ([m_target]) one table per priced, injectable step
    while [m_source] keeps serving statements against the old layout.
    {!flip_move} commits the new topology atomically; {!abort_move}
    discards the shadow and leaves the source (catalog and storage)
    bit-identical to its pre-move state — there is never a torn layout. *)
type move = {
  m_source : t;
  m_target : t;
  mutable m_pending : string list;
      (** tables still to copy, in deterministic (sorted-name) order *)
  mutable m_bytes : float;    (** bytes re-partitioned so far *)
  mutable m_rows : float;
  mutable m_seconds : float;
      (** simulated copy cost accrued, charged to the clock at the flip *)
}

(** [begin_move t ~node_count ~dist_of] opens a phased move to a
    [node_count]-node topology with distribution layout [dist_of] (given
    each current table, return its target distribution). Builds the shadow
    shell ({!Catalog.Shell_db.derive}d from [t]'s) and appliance at [t]'s
    next replan epoch; tables whose physical layout is unchanged transfer
    for free immediately (replicated copies are mirrored and identically
    keyed hash shards at an equal node count are shared by reference —
    payloads are immutable); every other table becomes a pending priced
    copy step. [t] itself is not mutated. *)
let begin_move (t : t) ~(node_count : int)
    ~(dist_of : Catalog.Shell_db.table -> Catalog.Distribution.t) : move =
  if node_count < 1 then
    invalid_arg "Appliance.begin_move: need at least one compute node";
  let tables = Catalog.Shell_db.sorted_tables t.shell in
  let shell' = Catalog.Shell_db.derive ~node_count ~dist_of t.shell in
  let t' = create ~hw:t.hw ~pool:t.pool ~check:t.check ~engine:t.engine shell' in
  t'.fault <- t.fault;
  t'.epoch <- t.epoch + 1;
  let pending =
    List.filter_map
      (fun (tbl : Catalog.Shell_db.table) ->
         let name = tbl.Catalog.Shell_db.schema.Catalog.Schema.name in
         let key = String.lowercase_ascii name in
         match tbl.Catalog.Shell_db.dist, dist_of tbl with
         | Catalog.Distribution.Replicated, Catalog.Distribution.Replicated ->
           (match Hashtbl.find_opt t.storage.(0) key with
            | Some rs -> load_rset t' name rs
            | None -> ());
           None
         | Catalog.Distribution.Hash_partitioned c0,
           Catalog.Distribution.Hash_partitioned c1
           when node_count = t.nodes && c0 = c1 ->
           for i = 0 to t.nodes - 1 do
             match Hashtbl.find_opt t.storage.(i) key with
             | Some rs -> Hashtbl.replace t'.storage.(i) key rs
             | None -> ()
           done;
           None
         | _ -> Some name)
      tables
  in
  { m_source = t; m_target = t'; m_pending = pending;
    m_bytes = 0.; m_rows = 0.; m_seconds = 0. }

(** Copy-build the next pending table into the move's shadow appliance as
    one injectable step under the source's recovery budget. All the fault
    plane's sites can fire here: a node crash escalates to the caller
    ({!Fault.Injected}, compose with {!decommission} and restart the
    move), a DMS-transfer or temp-write failure drops the half-built
    partitions and retries, stragglers inflate the step's copy time, and
    an exhausted budget raises {!Fault.Exhausted}. The copy is priced with
    the shared {!Dms.Cost.repartition_seconds} pipeline rates and accrues
    into the move (the source clock is only charged at the flip); a failed
    attempt never double-charges. *)
let copy_step (m : move) : unit =
  match m.m_pending with
  | [] -> ()
  | name :: rest ->
    let ts = m.m_source and tt = m.m_target in
    let key = String.lowercase_ascii name in
    let drop_half_built () =
      Array.iter (fun store -> Hashtbl.remove store key) tt.storage
    in
    with_recovery ts ~on_retry:drop_half_built (fun () ->
        (* node-crash decisions first, lowest index wins (mirrors
           [run_serial]'s pre-fan-out draw order) *)
        if fault_active ts then begin
          let rec first_crash node =
            if node >= ts.nodes then None
            else if Fault.fires ts.fault ~site:Fault.Node_crash ~epoch:ts.epoch
                      ~step:ts.cur_step ~node ~attempt:ts.cur_attempt
            then Some node
            else first_crash (node + 1)
          in
          match first_crash 0 with
          | Some node -> fail_at ~obs:Obs.null ts Fault.Node_crash node
          | None -> ()
        end;
        let tbl = Catalog.Shell_db.find_exn ts.shell name in
        let payload =
          match tbl.Catalog.Shell_db.dist with
          | Catalog.Distribution.Replicated -> Hashtbl.find_opt ts.storage.(0) key
          | Catalog.Distribution.Hash_partitioned _ ->
            let shards =
              List.filter_map (fun i -> Hashtbl.find_opt ts.storage.(i) key)
                (List.init ts.nodes Fun.id)
            in
            if List.exists (fun s -> Rset.count s > 0) shards
               || Hashtbl.mem ts.storage.(0) key
            then
              let layout =
                match shards with s :: _ -> Rset.layout s | [] -> []
              in
              Some (Rset.concat ~layout shards)
            else None
        in
        match payload with
        | None -> ()  (* table was never loaded; nothing to copy *)
        | Some all ->
          inject_point ts Fault.Dms_transfer;
          let b, r = Rset.vol all in
          let seconds =
            Dms.Cost.repartition_seconds (move_rates ts.hw) ~bytes:b ~rows:r
          in
          (* stragglers slow the copy pipeline down: the worst per-node
             factor inflates this step's accrued seconds *)
          let seconds =
            if not (fault_active ts) then seconds
            else begin
              let factor = ref 1. in
              for node = 0 to ts.nodes - 1 do
                match
                  Fault.straggle ts.fault ~epoch:ts.epoch ~step:ts.cur_step
                    ~node ~attempt:ts.cur_attempt
                with
                | Some f when f > 0. ->
                  note_injection ~obs:Obs.null ts Fault.Straggler;
                  if f > !factor then factor := f
                | _ -> ()
              done;
              seconds *. !factor
            end
          in
          load_rset tt name all;
          inject_point ts Fault.Temp_write;
          (* only a fully successful attempt accrues volume and cost *)
          m.m_bytes <- m.m_bytes +. b;
          m.m_rows <- m.m_rows +. r;
          m.m_seconds <- m.m_seconds +. seconds);
    m.m_pending <- rest

(** Atomically commit a fully copied move: one injectable control-node
    step (the catalog flip), the source's account carried into the shadow
    appliance plus the move's accrued copy cost, and the new topology
    returned. Statements admitted before the flip executed against the
    old layout on [m_source]; the caller switches new statements to the
    returned appliance, whose derived shell re-keys plan-cache
    fingerprints. *)
let flip_move (m : move) : t =
  if m.m_pending <> [] then
    invalid_arg "Appliance.flip_move: pending table copies remain";
  let ts = m.m_source and tt = m.m_target in
  (* the flip itself runs on the control node and is injectable *)
  with_recovery ts (fun () -> inject_point ts Fault.Control_transient);
  assign_account ~dst:tt.account ts.account;
  tt.account.sim_time <- tt.account.sim_time +. m.m_seconds;
  tt.account.dms_time <- tt.account.dms_time +. m.m_seconds;
  tt.account.bytes_moved <- tt.account.bytes_moved +. m.m_bytes;
  tt.account.rows_moved <- tt.account.rows_moved +. m.m_rows;
  tt

(** Abandon an in-flight move: the shadow appliance's half-built
    partitions are dropped and the source is left bit-identical to its
    pre-move state (its catalog was never mutated — [stats_version],
    storage, and epoch are untouched). *)
let abort_move (m : move) : unit =
  Array.iter Hashtbl.reset m.m_target.storage;
  m.m_pending <- []

type change =
  | Grow of int
  | Rekey of { table : string; cols : string list }

let change_to_string = function
  | Grow nodes -> Printf.sprintf "grow to %d nodes" nodes
  | Rekey { table; cols } -> Printf.sprintf "re-key %s [%s]" table (String.concat "," cols)

(* the one place grow and re-key moves are built: validate, then open
   the phased move (a re-key keeps every other table's layout) *)
let begin_change (t : t) (change : change) : move =
  match change with
  | Grow nodes ->
    if nodes <= t.nodes then invalid_arg "Appliance.begin_change: node count must grow";
    begin_move t ~node_count:nodes ~dist_of:(fun tbl -> tbl.Catalog.Shell_db.dist)
  | Rekey { table; cols } ->
    let tbl = Catalog.Shell_db.find_exn t.shell table in
    if cols = [] then invalid_arg "Appliance.begin_change: empty distribution key";
    List.iter
      (fun c ->
         if Catalog.Schema.find_col tbl.Catalog.Shell_db.schema c = None then
           invalid_arg
             (Printf.sprintf "Appliance.begin_change: no column %s in %s" c table))
      cols;
    let key = String.lowercase_ascii table in
    begin_move t ~node_count:t.nodes ~dist_of:(fun (x : Catalog.Shell_db.table) ->
        if String.lowercase_ascii x.Catalog.Shell_db.schema.Catalog.Schema.name = key
        then Catalog.Distribution.Hash_partitioned cols
        else x.Catalog.Shell_db.dist)

(* a change as one complete move: every copy step, then the flip *)
let complete t change =
  let m = begin_change t change in
  (try while m.m_pending <> [] do copy_step m done
   with e -> abort_move m; raise e);
  flip_move m

(** [recommission t ~nodes] grows the appliance to [nodes] compute nodes
    (the inverse of {!decommission}) as one complete phased move: every
    hash-distributed table is re-partitioned onto the wider topology at
    {!Dms.Cost.repartition_seconds} rates, then the catalog flips. *)
let recommission (t : t) ~(nodes : int) : t = complete t (Grow nodes)

(** [redistribute t ~table ~cols] changes [table]'s distribution key to
    hash-partitioning on [cols] as one complete phased move. *)
let redistribute (t : t) ~(table : string) ~(cols : string list) : t =
  complete t (Rekey { table; cols })

(** Single-node oracle: run a serial plan over the full (unpartitioned)
    tables. *)
let run_reference (t : t) (p : Serialopt.Plan.t) : Local.rset =
  let read_table name =
    let tbl = Catalog.Shell_db.find_exn t.shell name in
    match tbl.Catalog.Shell_db.dist with
    | Catalog.Distribution.Replicated -> node_table t 0 name
    | Catalog.Distribution.Hash_partitioned _ ->
      List.concat (List.init t.nodes (fun i -> node_table t i name))
  in
  Local.exec_plan ~read_table p
