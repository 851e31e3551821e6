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
  mutable samples : Dms.Calibrate.sample list;  (** newest first *)
  (* fault plane *)
  mutable injected : int;           (** faults that fired (stragglers included) *)
  mutable retries : int;            (** step re-executions after a failure *)
  mutable recovered : int;          (** steps that eventually succeeded *)
  mutable replans : int;            (** node losses escalated to re-optimization *)
  mutable backoff_time : float;     (** simulated seconds spent backing off *)
}

let fresh_account () = {
  sim_time = 0.; dms_time = 0.; bytes_moved = 0.; rows_moved = 0.; moves = 0;
  samples = [];
  injected = 0; retries = 0; recovered = 0; replans = 0; backoff_time = 0.;
}

(* copy every field of [src] into [dst]; keeps [reset_account] and the
   account carry-over of a topology move ([flip_move]) in one place, so a
   new account field cannot be forgotten in one of them *)
let assign_account ~(dst : account) (src : account) =
  dst.sim_time <- src.sim_time;
  dst.dms_time <- src.dms_time;
  dst.bytes_moved <- src.bytes_moved;
  dst.rows_moved <- src.rows_moved;
  dst.moves <- src.moves;
  dst.samples <- src.samples;
  dst.injected <- src.injected;
  dst.retries <- src.retries;
  dst.recovered <- src.recovered;
  dst.replans <- src.replans;
  dst.backoff_time <- src.backoff_time

(* -- the appliance -- *)

type t = {
  shell : Catalog.Shell_db.t;
  nodes : int;
  hw : hw;
  (* per compute node: table name -> shard payload (row- or column-major,
     matching how the table was loaded; positional layout 0..w-1) *)
  storage : (string, Rset.t) Hashtbl.t array;
  engine : Rset.engine;
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
  mutable epoch : int;
      (** replan epoch: 0 at creation, one above the source's after every
          topology move; part of every fault-draw coordinate so
          post-replan execution redraws *)
  mutable step_no : int;
      (** injectable steps started in the current statement (deterministic
          plan-traversal order); reset by {!begin_statement}, continued by a
          move's copy and flip steps *)
}

let create ?(hw = default_hw) ?(pool = Par.sequential) ?(check = true)
    ?(engine = Rset.Row) (shell : Catalog.Shell_db.t) : t =
  let nodes = Catalog.Shell_db.node_count shell in
  { shell; nodes; hw; engine;
    storage = Array.init nodes (fun _ -> Hashtbl.create 16);
    account = fresh_account (); pool; check; epoch = 0; step_no = 0 }

(** Attach a domain pool for multicore shard execution (typically one pool
    per process, shared across appliances). *)
let set_pool t pool = t.pool <- pool

(** Enable/disable the {!Check} execution gate (see the [check] field). *)
let set_check t check = t.check <- check

let reset_account t = assign_account ~dst:t.account (fresh_account ())

(** Start a new statement: step numbering restarts at 0 so explicit fault
    schedules address steps of each statement independently. *)
let begin_statement t = t.step_no <- 0

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

(** The whole logical contents of table [name] as one payload: node 0's
    copy of a replicated table, a hash-distributed table's shards
    concatenated in node order, [None] for a table never loaded (the
    simulated substrate keeps every shard, so this holds after a node
    loss too). *)
let table_contents (t : t) (name : string) : Rset.t option =
  let tbl = Catalog.Shell_db.find_exn t.shell name in
  match Hashtbl.find_opt t.storage.(0) (String.lowercase_ascii name) with
  | None -> None
  | Some first ->
    (match tbl.Catalog.Shell_db.dist with
     | Catalog.Distribution.Replicated -> Some first
     | Catalog.Distribution.Hash_partitioned _ ->
       Some
         (Rset.concat ~layout:(Rset.layout first)
            (List.init t.nodes (fun i -> node_rset t i name))))

(* -- distributed streams -- *)

(* [parts] follows [dist]: one payload per compute node when hashed, the
   same payload in every node's slot when replicated, one payload (on the
   control node) when single-node *)
type dstream = {
  layout : int list;
  dist : Dms.Distprop.t;
  parts : Rset.t array;
}

let stream (t : t) ~(layout : int list) (dist : Dms.Distprop.t) (payloads : Rset.t array) :
  dstream =
  let parts =
    match dist, payloads with
    | Dms.Distprop.Hashed _, _ when Array.length payloads = t.nodes -> payloads
    | Dms.Distprop.Replicated, [| rs |] -> Array.make t.nodes rs
    | Dms.Distprop.Single_node, [| _ |] -> payloads
    | _ ->
      invalid_arg
        (Printf.sprintf "Appliance.stream: %d payloads for a %s stream on %d nodes"
           (Array.length payloads) (Dms.Distprop.short_string dist) t.nodes)
  in
  { layout; dist; parts }

(** The full logical contents of a stream, as the payloads that hold
    them, in order: one per node for a hashed stream, one copy otherwise. *)
let stream_parts (d : dstream) : Rset.t list =
  match d.dist with
  | Dms.Distprop.Hashed _ -> Array.to_list d.parts
  | Dms.Distprop.Replicated | Dms.Distprop.Single_node -> [ d.parts.(0) ]

let stream_rows (d : dstream) : rows = Rset.client_rows (stream_parts d)

(* -- fault injection and step-level recovery -- *)

(** Where a fault draw lands: the statement's plan, the appliance's replan
    epoch, and the step and attempt the recovery wrapper is executing. *)
type draw = { plan : Fault.plan; epoch : int; step : int; attempt : int }

let note_injection ~obs t (site : Fault.site) =
  t.account.injected <- t.account.injected + 1;
  if Obs.enabled obs then begin
    Obs.add obs "fault.injected" 1;
    Obs.add obs ("fault.injected." ^ Fault.site_name site) 1
  end

let fail_at ~obs t (d : draw) (site : Fault.site) (node : int) =
  note_injection ~obs t site;
  raise (Fault.Injected { Fault.site; epoch = d.epoch; step = d.step; node })

(** Raise {!Fault.Injected} if the plan fires [site] at [d]. For node-less
    sites. *)
let inject_point ?(obs = Obs.null) (t : t) (d : draw) (site : Fault.site) =
  if Fault.fires d.plan ~site ~epoch:d.epoch ~step:d.step ~node:(-1) ~attempt:d.attempt
  then fail_at ~obs t d site (-1)

(* node-crash decisions for every node of [t], the lowest-index hit
   raised. Callers draw them before any parallel fan-out, never from
   inside a pool body: parallel_for's fail-fast picks an arbitrary first
   exception, which would make the surfaced failure schedule-dependent *)
let crash_point ~obs (t : t) (d : draw) =
  for node = 0 to t.nodes - 1 do
    if Fault.fires d.plan ~site:Fault.Node_crash ~epoch:d.epoch ~step:d.step ~node
         ~attempt:d.attempt
    then fail_at ~obs t d Fault.Node_crash node
  done

(* the slowdown factor of [node] at [d], if a straggler fires there (and
   is counted) *)
let straggle ~obs (t : t) (d : draw) node =
  match Fault.straggle d.plan ~epoch:d.epoch ~step:d.step ~node ~attempt:d.attempt with
  | Some factor when factor > 0. ->
    note_injection ~obs t Fault.Straggler;
    Some factor
  | _ -> None

(** [with_recovery t f] runs one injectable step [f] under the fault
    plane's retry budget: [f] receives the step's {!draw} under [fault]
    (default {!Fault.none}); a recoverable {!Fault.Injected} charges
    exponential backoff to the simulated clock and re-runs [f] at the next
    attempt (after [on_retry], which must make re-execution idempotent —
    e.g. drop the step's temp table), up to {!Fault.retries} retries, after
    which {!Fault.Exhausted} is raised. {!Fault.Node_crash} is not
    retryable here: it propagates to the caller (the statement must be
    re-optimized against the surviving nodes). [token] is the statement's
    cancellation token, polled before the step; [obs] receives the
    [fault.*] counters. *)
let with_recovery ?(on_retry = fun () -> ()) ?(obs = Obs.null)
    ?(token = Governor.none) ?(fault = Fault.none) (t : t) (f : draw -> 'a) : 'a =
  (* Cooperative cancellation at step granularity, in the caller domain
     only (sim_time is read/updated here, never in pool workers, so a
     simulated-clock deadline trips at the same step at any --jobs).
     Raising between steps is safe: executor temp state unwinds with the
     exception and half-written temps are dropped with it. *)
  Governor.poll ~where:"engine.step" token;
  (* steps are numbered under any plan, [Fault.none] included, so a
     schedule's step ids can be read off a fault-free run *)
  let step = t.step_no in
  t.step_no <- step + 1;
  let rec attempt k =
    match f { plan = fault; epoch = t.epoch; step; attempt = k } with
    | v ->
      if k > 0 then begin
        t.account.recovered <- t.account.recovered + 1;
        if Obs.enabled obs then Obs.add obs "fault.recovered" 1
      end;
      v
    | exception (Fault.Injected failure as e) ->
      if failure.Fault.site = Fault.Node_crash then raise e
      else if k >= Fault.retries then
        raise (Fault.Exhausted { failure; attempts = k + 1 })
      else begin
        let pause = Fault.backoff (k + 1) in
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

(* -- simulated DMS runtime -- *)

(* the "true" simulated seconds one node's [component] spends on
   [bytes]/[rows] in one move: the clock's per-node time and the
   calibration sample's seconds both come from here *)
let component_seconds hw (c : Dms.Calibrate.component) ~bytes ~rows =
  match c with
  | Dms.Calibrate.Reader_direct -> (bytes *. hw.reader_byte) +. (rows *. hw.reader_row)
  | Dms.Calibrate.Reader_hash ->
    (bytes *. (hw.reader_byte +. hw.hash_extra_byte)) +. (rows *. hw.reader_row)
  | Dms.Calibrate.Network -> (bytes *. hw.network_byte) +. (rows *. hw.network_row)
  | Dms.Calibrate.Writer -> (bytes *. hw.writer_byte) +. (rows *. hw.writer_row)
  | Dms.Calibrate.Blkcpy ->
    (bytes *. hw.blkcpy_byte) +. (rows *. hw.blkcpy_row) +. hw.blkcpy_fixed

(* advance the clock and record one calibration sample per node and
   component that processed bytes; per-node component times are
   summarized by their max (homogeneity assumption) *)
let account_move ~obs t ~opname ~hashed ~per_node_read ~per_node_net ~per_node_write =
  let a = t.account in
  let hw = t.hw in
  let reader = if hashed then Dms.Calibrate.Reader_hash else Dms.Calibrate.Reader_direct in
  (* the max over nodes of the components' times; every node and
     component that moved bytes leaves a sample *)
  let max_time components volumes =
    List.fold_left
      (fun m (bytes, rows) ->
         List.fold_left
           (fun m component ->
              let seconds = component_seconds hw component ~bytes ~rows in
              if bytes > 0. then
                a.samples <- { Dms.Calibrate.component; bytes; seconds } :: a.samples;
              Float.max m seconds)
           m components)
      0. volumes
  in
  (* max over nodes of max(read, net) = max(max reads, max nets), so the
     read and net volume lists need not be aligned per node *)
  let t_src =
    let t_read = max_time [ reader ] per_node_read in
    Float.max t_read (max_time [ Dms.Calibrate.Network ] per_node_net)
  in
  let t_tgt = max_time [ Dms.Calibrate.Writer; Dms.Calibrate.Blkcpy ] per_node_write in
  let step = Float.max t_src t_tgt in
  a.sim_time <- a.sim_time +. step;
  a.dms_time <- a.dms_time +. step;
  a.moves <- a.moves + 1;
  List.iter
    (fun (nb, nr) ->
       if nb > 0. then begin
         a.bytes_moved <- a.bytes_moved +. nb;
         a.rows_moved <- a.rows_moved +. nr
       end)
    per_node_net;
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
  end

let project_stream (d : dstream) (cols : int list) : dstream =
  if cols = d.layout then d
  else begin
    let proj rs = Rset.project (Rset.with_layout rs d.layout) cols in
    let parts =
      match d.dist with
      | Dms.Distprop.Replicated -> Array.make (Array.length d.parts) (proj d.parts.(0))
      | Dms.Distprop.Hashed _ | Dms.Distprop.Single_node -> Array.map proj d.parts
    in
    { d with layout = cols; parts }
  end

(** Execute one DMS operation on a stream (routing + accounting). *)
let run_move_inner ~obs (t : t) (kind : Dms.Op.kind) ~(cols : int list) (input : dstream) :
    dstream =
  let n = t.nodes in
  let input = project_stream input cols in
  let vol = Rset.vol in
  let zero = (0., 0.) in
  let concat parts = Rset.concat ~layout:cols parts in
  (* [Dms.Op.output_dist] admits each move only on the input shapes it
     reads: every source below is a slot [input.dist] fills *)
  match kind with
  | Dms.Op.Shuffle hash_cols ->
    (* a hashed input's nodes, or the control node's one payload *)
    let sources = Array.to_list (Array.map (fun s -> Rset.with_layout s cols) input.parts) in
    (* each source partitions independently; destination shards append the
       sources' contributions in source order (same row order as the row
       engine's single cons-and-reverse pass over all sources) *)
    let kpos = Rset.positions (List.hd sources) hash_cols in
    let out = Rset.shuffle sources ~layout:cols ~kpos ~parts:n in
    let vols = List.map vol sources in
    account_move ~obs t ~opname:(Dms.Op.name kind) ~hashed:true
      ~per_node_read:vols ~per_node_net:vols
      ~per_node_write:(Array.to_list (Array.map vol out));
    { layout = cols; dist = Dms.Distprop.Hashed hash_cols; parts = out }
  | Dms.Op.Partition_move ->
    let all = concat (Array.to_list input.parts) in
    let vols = Array.to_list (Array.map vol input.parts) in
    account_move ~obs t ~opname:(Dms.Op.name kind) ~hashed:false
      ~per_node_read:vols ~per_node_net:vols
      ~per_node_write:[ vol all ];
    { layout = cols; dist = Dms.Distprop.Single_node; parts = [| all |] }
  | Dms.Op.Control_node_move | Dms.Op.Replicated_broadcast ->
    let rs = input.parts.(0) in
    let v = vol rs in
    account_move ~obs t ~opname:(Dms.Op.name kind) ~hashed:false
      ~per_node_read:[ v ] ~per_node_net:[ v ]
      ~per_node_write:(List.init n (fun _ -> v));
    { layout = cols; dist = Dms.Distprop.Replicated; parts = Array.make n rs }
  | Dms.Op.Broadcast ->
    let all = concat (Array.to_list input.parts) in
    let v = vol all in
    account_move ~obs t ~opname:(Dms.Op.name kind) ~hashed:false
      ~per_node_read:(Array.to_list (Array.map vol input.parts))
      ~per_node_net:[ v ]
      ~per_node_write:(List.init n (fun _ -> v));
    { layout = cols; dist = Dms.Distprop.Replicated; parts = Array.make n all }
  | Dms.Op.Trim hash_cols ->
    let out =
      Array.mapi
        (fun i rs ->
           let rs = Rset.with_layout rs cols in
           Rset.trim rs ~kpos:(Rset.positions rs hash_cols) ~node:i ~parts:n)
        input.parts
    in
    account_move ~obs t ~opname:(Dms.Op.name kind) ~hashed:true
      ~per_node_read:(Array.to_list (Array.map vol input.parts))
      ~per_node_net:[ zero ]
      ~per_node_write:(Array.to_list (Array.map vol out));
    { layout = cols; dist = Dms.Distprop.Hashed hash_cols; parts = out }
  | Dms.Op.Remote_copy ->
    let all, reads =
      match input.dist with
      | Dms.Distprop.Replicated ->
        let all = Rset.with_layout input.parts.(0) cols in
        (all, [ vol all ])
      | _ -> (concat (Array.to_list input.parts), Array.to_list (Array.map vol input.parts))
    in
    account_move ~obs t ~opname:(Dms.Op.name kind) ~hashed:false ~per_node_read:reads
      ~per_node_net:reads ~per_node_write:[ vol all ];
    { layout = cols; dist = Dms.Distprop.Single_node; parts = [| all |] }

(** {!run_move_inner} plus, at [draw], the DMS injection sites: a
    transfer can fail mid-move, or the destination temp-table write can
    fail. Both fire after accounting — the failed attempt's work is on the
    clock, and the recovery wrapper's retry re-runs (and re-charges) the
    move. *)
let run_move ?(obs = Obs.null) ?draw (t : t) (kind : Dms.Op.kind) ~(cols : int list)
    (input : dstream) : dstream =
  let out = run_move_inner ~obs t kind ~cols input in
  Option.iter
    (fun d ->
       inject_point ~obs t d Fault.Dms_transfer;
       inject_point ~obs t d Fault.Temp_write)
    draw;
  out

(* -- serial step execution -- *)

let serial_step_time t (op : Memo.Physop.t) (out_rows : float) (in_rows : float list) =
  let work = Serialopt.Cost.local_cost op ~out:out_rows ~inputs:in_rows in
  work *. t.hw.serial_unit

(* the one reader of [t.engine] on the execution path: run one operator
   of one shard on the selected engine; [stats] (when observability is
   on) is private to this shard, so the pool fan-out stays race-free and
   merging happens in the caller domain *)
let shard_exec (t : t) ?stats ?need ~(read_table : string -> Rset.t) (op : Memo.Physop.t)
    (inputs : Rset.t list) : Rset.t =
  match t.engine with
  | Rset.Row ->
    Rset.Rows
      (Local.exec_op ?stats
         ~read_table:(fun name -> (Rset.to_local (read_table name)).Local.rows)
         op (List.map Rset.to_local inputs))
  | Rset.Columnar ->
    Rset.Cols
      (Batch.exec_op ?stats ?need ~read_table:(fun name -> Rset.to_batch (read_table name))
         op (List.map Rset.to_batch inputs))

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
let run_serial ?(obs = Obs.null) ?need (t : t) (d : draw) (op : Memo.Physop.t)
    (children : dstream list) : dstream =
  let on_control = List.exists (fun c -> c.dist = Dms.Distprop.Single_node) children in
  if on_control then begin
    (* all children must be on the control node (or replicated) *)
    let inputs =
      List.map
        (fun c ->
           match c.dist with
           | Dms.Distprop.Single_node | Dms.Distprop.Replicated ->
             Rset.with_layout c.parts.(0) c.layout
           | Dms.Distprop.Hashed _ ->
             raise (Local.Exec_error "mixed control/distributed serial step"))
        children
    in
    let stats = if Obs.enabled obs then Some (Local.fresh_stats ()) else None in
    let r = shard_exec t ?stats ?need ~read_table:(node_rset t 0) op inputs in
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
    inject_point ~obs t d Fault.Control_transient;
    { layout = Rset.layout r; dist = Dms.Distprop.Single_node; parts = [| r |] }
  end
  else begin
    crash_point ~obs t d;
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
             List.map (fun c -> Rset.with_layout c.parts.(node) c.layout) children
           in
           let stats = if want_stats then Some (Local.fresh_stats ()) else None in
           let r = shard_exec t ?stats ?need ~read_table:(node_rset t node) op inputs in
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
           match straggle ~obs t d node with Some factor -> step *. factor | None -> step
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
    { layout = Rset.layout outs.(0); dist = Dms.Distprop.Hashed [] (* refined by caller *);
      parts = outs }
  end

(* -- full distributed plan execution -- *)

module Col_set = Algebra.Registry.Col_set

(* Late materialization: the columns child [k] of a Serial [op] must
   deliver when [op]'s own consumers read [need] ([None]: every column,
   in layout order). Joins, filters and sorts pass [need] down plus what
   they read themselves; computes and aggregates read a fixed set; a union
   concatenates positionally, so its inputs stay whole. *)
let child_need (op : Memo.Physop.t) (need : Col_set.t option) (k : int) :
  Col_set.t option =
  let plus cs = Option.map (Col_set.union cs) need in
  match op with
  | Memo.Physop.Filter pred -> plus (Algebra.Expr.cols pred)
  | Memo.Physop.Sort_op { keys; _ } ->
    plus (Algebra.Expr.cols_of_list (List.map (fun k -> k.Algebra.Relop.key) keys))
  | Memo.Physop.Compute defs -> Some (Algebra.Expr.cols_of_list (List.map snd defs))
  | Memo.Physop.Hash_agg { keys; aggs } | Memo.Physop.Stream_agg { keys; aggs } ->
    Some
      (Col_set.union (Col_set.of_list keys)
         (Algebra.Expr.cols_of_list (List.filter_map (fun a -> a.Algebra.Expr.agg_arg) aggs)))
  | Memo.Physop.Hash_join { kind; pred }
  | Memo.Physop.Merge_join { kind; pred }
  | Memo.Physop.Nl_join { kind; pred } ->
    let p = Algebra.Expr.cols pred in
    (* a semi join outputs only its left input *)
    if k = 1 && (kind = Algebra.Relop.Semi || kind = Algebra.Relop.Anti_semi) then Some p
    else plus p
  | Memo.Physop.Union_op | Memo.Physop.Table_scan _ | Memo.Physop.Const_empty _ -> None

(* An executed operator's observed global row count: the rows of the
   stream's logical contents (a hashed stream's rows sum across nodes, a
   replicated stream counts one copy). *)
let observed_rows (d : dstream) =
  match d.dist with
  | Dms.Distprop.Hashed _ ->
    Array.fold_left (fun a r -> a +. float_of_int (Rset.count r)) 0. d.parts
  | Dms.Distprop.Replicated | Dms.Distprop.Single_node -> float_of_int (Rset.count d.parts.(0))

(* a serial step's stream under the distribution the plan gives it; a
   child-less step placed on the control node (an empty constant) ran on
   every node like any scan, and keeps node 0's payload *)
let with_dist (d : dstream) (dist : Dms.Distprop.t) =
  match dist with
  | Dms.Distprop.Single_node when Array.length d.parts > 1 ->
    { d with dist; parts = [| d.parts.(0) |] }
  | _ -> { d with dist }

(** Execute a PDW plan on the appliance. Returns the final client result
    (rows + layout); accounting accumulates in [t.account]. The statement's
    state comes in as values: [obs] receives the executor, DMS and fault
    counters, [token] is polled once per injectable step, [fault] (default
    {!Fault.none}) is the plan its steps draw from, and [observe]
    is called after each (recovered) Serial/Move operator with the
    operator and its observed global rows — in the caller domain, in
    bottom-up plan order, so the call sequence is deterministic at any
    [--jobs].

    Unless {!set_check} disabled it, the plan is first passed through the
    static analyzer's execution-soundness rules; an invalid plan raises
    {!Check.Invalid} instead of executing — the simulated substrate would
    otherwise silently run it and return wrong rows (the real engine
    rejects such plans). *)
let run_pplan ?(obs = Obs.null) ?(token = Governor.none) ?fault ?observe (t : t)
    (p : Pdwopt.Pplan.t) : Local.rset =
  if t.check then begin
    match Check.validate_exec ~obs ~shell:t.shell p with
    | [] -> ()
    | vs -> raise (Check.Invalid vs)
  end;
  begin_statement t;
  let step f = with_recovery ~obs ~token ?fault t f in
  let observed (p : Pdwopt.Pplan.t) (d : dstream) =
    (match observe with Some f -> f p (observed_rows d) | None -> ());
    d
  in
  (* [need]: the columns this node's consumer reads ([None]: all), passed
     down top-down. A Move reads its [cols] and the Return reads its whole
     input, so every byte that reaches a Move or the client is computed
     as before; only join columns nobody reads are never gathered. *)
  let rec exec_node need (p : Pdwopt.Pplan.t) : dstream =
    match p.Pdwopt.Pplan.op, p.Pdwopt.Pplan.children with
    | Pdwopt.Pplan.Serial op, children ->
      let children = List.mapi (fun k c -> exec_node (child_need op need k) c) children in
      (* serial steps and moves recompute over immutable input streams, so
         re-execution after a failure is idempotent with no cleanup *)
      let d =
        Obs.with_span obs ("engine.op." ^ Memo.Physop.name op) @@ fun () ->
        step (fun draw -> run_serial ~obs ?need t draw op children)
      in
      observed p (with_dist d p.Pdwopt.Pplan.dist)
    | Pdwopt.Pplan.Move { kind; cols }, [ c ] ->
      let child = exec_node (Some (Col_set.of_list cols)) c in
      observed p (step (fun draw -> run_move ~obs ~draw t kind ~cols child))
    | Pdwopt.Pplan.Move _, _ -> raise (Local.Exec_error "Move expects one child")
    | Pdwopt.Pplan.Return _, _ -> raise (Local.Exec_error "nested Return")
  in
  match p.Pdwopt.Pplan.op with
  | Pdwopt.Pplan.Return { sort; limit } ->
    let child =
      match p.Pdwopt.Pplan.children with
      | [ c ] -> exec_node None c
      | _ -> raise (Local.Exec_error "Return expects one child")
    in
    (* the gather is itself an injectable step (control-node transient);
       it is pure over [child], so a retry just recomputes the result *)
    step @@ fun draw ->
    let parts = stream_parts child in
    (* streamed gather: network accounting only, no temp table; the
       volumes are integer-valued, so summing them per node is exact *)
    (match child.dist with
     | Dms.Distprop.Single_node -> ()
     | _ ->
       let b, r =
         List.fold_left
           (fun (b, r) p -> let pb, pr = Rset.vol p in (b +. pb, r +. pr))
           (0., 0.) parts
       in
       let step = (b *. t.hw.network_byte) +. (r *. t.hw.network_row) in
       t.account.sim_time <- t.account.sim_time +. step;
       t.account.bytes_moved <- t.account.bytes_moved +. b;
       Obs.addf obs "engine.return.bytes" b;
       Obs.addf obs "engine.return.rows" r);
    inject_point ~obs t draw Fault.Control_transient;
    let rset = { Local.layout = child.layout; rows = Rset.client_rows parts } in
    if sort = [] then
      (match limit with
       | Some n -> { rset with Local.rows = Local.take n rset.Local.rows }
       | None -> rset)
    else Local.sort_rows ~keys:sort ?limit rset
  | _ ->
    let d = exec_node None p in
    { Local.layout = d.layout; rows = stream_rows d }

(* -- topology moves: node loss, grow and re-key (DESIGN.md §8, §14) -- *)

(* the reader+network+writer pipeline rates of this appliance's hardware,
   in the shape {!Dms.Cost.repartition_seconds} prices every table copy of
   a topology move with *)
let move_rates (hw : hw) : Dms.Cost.move_rates =
  { Dms.Cost.r_reader_byte = hw.reader_byte; r_reader_row = hw.reader_row;
    r_network_byte = hw.network_byte; r_network_row = hw.network_row;
    r_writer_byte = hw.writer_byte; r_writer_row = hw.writer_row }

(** An in-flight phased topology move: the new layout is copy-built into a
    shadow appliance ([m_target]) one table per priced, injectable step
    while [m_source] keeps serving statements against the old layout.
    {!flip_move} commits the new topology atomically; {!abort_move}
    discards the shadow and leaves the source (catalog and storage)
    bit-identical to its pre-move state — there is never a torn layout. *)
type move = {
  m_source : t;
  m_target : t;
  m_fault : Fault.plan;   (** what the copy and flip steps draw from *)
  m_obs : Obs.t;          (** where the copy and flip steps report faults *)
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
    copy step whose faults [fault] (default {!Fault.none}) draws and whose
    [fault.*] counters go to [obs]. [t] itself is not mutated. *)
let begin_move ?(obs = Obs.null) ?(fault = Fault.none) (t : t) ~(node_count : int)
    ~(dist_of : Catalog.Shell_db.table -> Catalog.Distribution.t) : move =
  if node_count < 1 then
    invalid_arg "Appliance.begin_move: need at least one compute node";
  let tables = Catalog.Shell_db.sorted_tables t.shell in
  let shell' = Catalog.Shell_db.derive ~node_count ~dist_of t.shell in
  let t' = create ~hw:t.hw ~pool:t.pool ~check:t.check ~engine:t.engine shell' in
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
  { m_source = t; m_target = t'; m_fault = fault; m_obs = obs; m_pending = pending;
    m_bytes = 0.; m_rows = 0.; m_seconds = 0. }

(** Copy-build the next pending table into the move's shadow appliance as
    one injectable step of the source appliance, drawn from the move's
    plan. All the fault plane's sites can fire here: a node crash
    escalates to the caller ({!Fault.Injected}, compose with
    {!decommission} and restart the move), a DMS-transfer or temp-write failure drops the half-built
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
    let obs = m.m_obs in
    with_recovery ~obs ~fault:m.m_fault ts ~on_retry:drop_half_built (fun d ->
        (* node-crash decisions first, as in [run_serial] *)
        crash_point ~obs ts d;
        match table_contents ts name with
        | None -> ()  (* table was never loaded; nothing to copy *)
        | Some all ->
          inject_point ~obs ts d Fault.Dms_transfer;
          let b, r = Rset.vol all in
          let seconds =
            Dms.Cost.repartition_seconds (move_rates ts.hw) ~bytes:b ~rows:r
          in
          (* stragglers slow the copy pipeline down: the worst per-node
             factor inflates this step's accrued seconds *)
          let factor = ref 1. in
          for node = 0 to ts.nodes - 1 do
            Option.iter (fun f -> if f > !factor then factor := f)
              (straggle ~obs ts d node)
          done;
          let seconds = seconds *. !factor in
          load_rset tt name all;
          inject_point ~obs ts d Fault.Temp_write;
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
  with_recovery ~obs:m.m_obs ~fault:m.m_fault ts (fun d ->
      inject_point ~obs:m.m_obs ts d Fault.Control_transient);
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
  | Lose of int

let change_to_string = function
  | Grow nodes -> Printf.sprintf "grow to %d nodes" nodes
  | Rekey { table; cols } -> Printf.sprintf "re-key %s [%s]" table (String.concat "," cols)
  | Lose node -> Printf.sprintf "lose node %d" node

(* the one place topology moves are built: validate, then open the
   phased move (a re-key keeps every other table's layout) *)
let begin_change ?obs ?fault (t : t) (change : change) : move =
  let same_dist (tbl : Catalog.Shell_db.table) = tbl.Catalog.Shell_db.dist in
  match change with
  | Grow nodes ->
    if nodes <= t.nodes then invalid_arg "Appliance.begin_change: node count must grow";
    begin_move ?obs ?fault t ~node_count:nodes ~dist_of:same_dist
  | Lose node ->
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
    if node < 0 || node >= t.nodes then invalid_arg "Appliance.begin_change: no such node";
    (* every node keeps a mirrored copy in the simulated substrate, so which
       node died does not change what the survivors load *)
    begin_move ?obs ?fault t ~node_count:(t.nodes - 1) ~dist_of:same_dist
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
    begin_move ?obs ?fault t ~node_count:t.nodes ~dist_of:(fun (x : Catalog.Shell_db.table) ->
        if String.lowercase_ascii x.Catalog.Shell_db.schema.Catalog.Schema.name = key
        then Catalog.Distribution.Hash_partitioned cols
        else x.Catalog.Shell_db.dist)

(** A change as one complete move: every copy step, then the flip; a
    failed step aborts the move and re-raises. *)
let complete ?obs ?fault t change =
  let m = begin_change ?obs ?fault t change in
  (try while m.m_pending <> [] do copy_step m done
   with e -> abort_move m; raise e);
  flip_move m

(** [decommission t ~node] replans onto the survivors after compute node
    [node] died: the fault-free move {!Lose}[ node], whose copy steps
    re-partition every hash-distributed table mod the surviving count,
    counted as one replan. The [fault.replans] and
    [fault.recovery_seconds] (the move's copy cost) counters go to
    [obs]. *)
let decommission ?(obs = Obs.null) (t : t) ~(node : int) : t =
  let m = begin_change ~obs t (Lose node) in
  while m.m_pending <> [] do copy_step m done;
  let t' = flip_move m in
  t'.account.replans <- t'.account.replans + 1;
  if Obs.enabled obs then begin
    Obs.add obs "fault.replans" 1;
    Obs.addf obs "fault.recovery_seconds" m.m_seconds
  end;
  t'

(** Single-node oracle: run a serial plan over the full (unpartitioned)
    tables. *)
let run_reference (t : t) (p : Serialopt.Plan.t) : Local.rset =
  let read_table name =
    match table_contents t name with
    | Some all -> (Rset.to_local all).Local.rows
    | None -> raise (Local.Exec_error (Printf.sprintf "table %s not loaded" name))
  in
  Local.exec_plan ~read_table p
