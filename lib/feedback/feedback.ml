(** Feedback-driven cost calibration (ISSUE 9).

    This library holds the pure, engine-independent pieces of the
    execution -> calibration -> plan-store loop:

    - {!Log}: persistent records of what each executed plan actually did
      (per-operator cardinalities, per-DMS-component byte/second samples,
      observed simulated and wall cost);
    - {!Misses}: which catalog columns the optimizer's estimates missed on,
      by more than a threshold factor — the candidates for histogram
      refinement;
    - {!Lambda}: re-fitting the DMS λ table from observed volumes;
    - {!Store}: a last-known-good plan store with hysteresis-based
      regression detection, quarantine and automatic fallback.

    Everything here is deterministic: records are kept in append order,
    fits fold samples in canonical log order, and persistence uses hex
    float literals so [save]/[load] round-trips are bit-exact. The
    engine-facing driver that harvests observations and applies
    calibration to a live shell catalog lives in [Opdw.Feedback]. *)

module Log = struct
  type op_obs = {
    o_group : int;                     (** MEMO group of the operator *)
    o_op : string;                     (** physical operator name *)
    o_table : string option;           (** scanned table, for scans *)
    o_cols : (string * string) list;   (** (table, column) pairs constrained *)
    o_est : float;                     (** optimizer's global row estimate *)
    o_actual : float;                  (** observed global rows *)
  }

  type dms_obs = {
    d_component : Dms.Calibrate.component;
    d_bytes : float;
    d_seconds : float;
  }

  type record = {
    r_statement : string;   (** statement key (normalized SQL) *)
    r_fingerprint : string; (** plan-cache fingerprint of the executed plan *)
    r_ops : op_obs list;
    r_dms : dms_obs list;
    r_sim : float;          (** observed simulated seconds *)
    r_wall : float;         (** observed wall-clock seconds (informational) *)
    r_degraded : bool;      (** executed under a degraded (Anytime/Fallback) result *)
  }

  type t = { mutable rev_records : record list }

  let create () = { rev_records = [] }

  let append t r = t.rev_records <- r :: t.rev_records

  (** Records in append order (oldest first) — the canonical fold order. *)
  let records t = List.rev t.rev_records

  let length t = List.length t.rev_records

  let clear t = t.rev_records <- []

  (* -- persistence --

     Line-oriented text, one [record]/[op]/[dms] line per item and an [end]
     sentinel per record. Floats are printed with %h (hex literals) so the
     round-trip is bit-exact; statement/fingerprint/operator strings use %S.
     Column lists are encoded [tbl:col,tbl:col] ("-" when empty): table and
     column names are identifiers, so ':' and ',' cannot appear in them. *)

  let component_of_name s =
    let open Dms.Calibrate in
    List.find_opt
      (fun c -> component_name c = s)
      [ Reader_direct; Reader_hash; Network; Writer; Blkcpy ]

  let encode_cols = function
    | [] -> "-"
    | cols -> String.concat "," (List.map (fun (t, c) -> t ^ ":" ^ c) cols)

  let decode_cols s =
    if s = "-" then []
    else
      String.split_on_char ',' s
      |> List.map (fun pair ->
          match String.index_opt pair ':' with
          | Some i ->
            (String.sub pair 0 i, String.sub pair (i + 1) (String.length pair - i - 1))
          | None -> (pair, ""))

  let save_record buf r =
    Buffer.add_string buf
      (Printf.sprintf "record %S %S %h %h %d\n" r.r_statement r.r_fingerprint r.r_sim
         r.r_wall (if r.r_degraded then 1 else 0));
    List.iter
      (fun o ->
         Buffer.add_string buf
           (Printf.sprintf "op %d %S %S %h %h %s\n" o.o_group o.o_op
              (Option.value o.o_table ~default:"") o.o_est o.o_actual
              (encode_cols o.o_cols)))
      r.r_ops;
    List.iter
      (fun d ->
         Buffer.add_string buf
           (Printf.sprintf "dms %s %h %h\n" (Dms.Calibrate.component_name d.d_component)
              d.d_bytes d.d_seconds))
      r.r_dms;
    Buffer.add_string buf "end\n"

  let to_string t =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "# opdw feedback log v1\n";
    List.iter (save_record buf) (records t);
    Buffer.contents buf

  exception Parse_error of string

  let of_string text =
    let t = create () in
    let cur = ref None in
    let finish () =
      match !cur with
      | None -> ()
      | Some (r, ops, dms) ->
        append t { r with r_ops = List.rev ops; r_dms = List.rev dms };
        cur := None
    in
    let lineno = ref 0 in
    let fail fmt =
      Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "line %d: %s" !lineno m))) fmt
    in
    (* Scanf raises End_of_file on a truncated line *)
    let scan what f =
      try f () with
      | Scanf.Scan_failure m | Failure m -> fail "bad %s: %s" what m
      | End_of_file -> fail "bad %s: truncated line" what
    in
    String.split_on_char '\n' text
    |> List.iter (fun line ->
        incr lineno;
        let line = String.trim line in
        if line = "" || line.[0] = '#' then ()
        else if line = "end" then finish ()
        else
          match String.index_opt line ' ' with
          | None -> fail "malformed line %S" line
          | Some i ->
            let kw = String.sub line 0 i in
            (match kw with
             | "record" ->
               finish ();
               scan "record" (fun () ->
                   Scanf.sscanf line "record %S %S %h %h %d"
                     (fun stmt fp sim wall deg ->
                        cur :=
                          Some
                            ( { r_statement = stmt; r_fingerprint = fp; r_ops = [];
                                r_dms = []; r_sim = sim; r_wall = wall;
                                r_degraded = deg <> 0 },
                              [], [] )))
             | "op" ->
               (match !cur with
                | None -> fail "op line outside a record"
                | Some (r, ops, dms) ->
                  scan "op" (fun () ->
                      Scanf.sscanf line "op %d %S %S %h %h %s"
                        (fun group op table est actual cols ->
                           let o =
                             { o_group = group; o_op = op;
                               o_table = (if table = "" then None else Some table);
                               o_cols = decode_cols cols; o_est = est; o_actual = actual }
                           in
                           cur := Some (r, o :: ops, dms))))
             | "dms" ->
               (match !cur with
                | None -> fail "dms line outside a record"
                | Some (r, ops, dms) ->
                  scan "dms" (fun () ->
                      Scanf.sscanf line "dms %s %h %h"
                        (fun comp bytes seconds ->
                           match component_of_name comp with
                           | None -> fail "unknown DMS component %S" comp
                           | Some c ->
                             let d = { d_component = c; d_bytes = bytes; d_seconds = seconds } in
                             cur := Some (r, ops, d :: dms))))
             | _ -> fail "unknown keyword %S" kw));
    finish ();
    t

  let save t file =
    let oc = open_out file in
    output_string oc (to_string t);
    close_out oc

  let load file =
    let ic = open_in file in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    of_string text
end

module Misses = struct
  (** Symmetric estimation error of one operator observation, always >= 1.
      Both sides are offset by one row so empty streams do not divide by
      zero and tiny absolute misses do not explode the ratio. *)
  let ratio (o : Log.op_obs) =
    let e = o.Log.o_est +. 1. and a = o.Log.o_actual +. 1. in
    Float.max (e /. a) (a /. e)

  type miss = {
    m_table : string;
    m_column : string;
    m_worst : float;   (** worst observed estimation ratio involving the column *)
    m_ops : int;       (** number of missed operator observations involved *)
  }

  (** Columns whose operator estimates missed by more than [threshold]
      (default 2x), over the given records. Deterministic: the result is
      sorted by (table, column) and deduplicated, independent of record
      order. *)
  let columns ?(threshold = 2.0) recs =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (r : Log.record) ->
         List.iter
           (fun (o : Log.op_obs) ->
              let rt = ratio o in
              if rt > threshold then
                List.iter
                  (fun (t, c) ->
                     let key = (String.lowercase_ascii t, String.lowercase_ascii c) in
                     let worst, ops =
                       try Hashtbl.find tbl key with Not_found -> (1., 0)
                     in
                     Hashtbl.replace tbl key (Float.max worst rt, ops + 1))
                  o.Log.o_cols)
           r.Log.r_ops)
      recs;
    Hashtbl.fold
      (fun (t, c) (worst, ops) acc ->
         { m_table = t; m_column = c; m_worst = worst; m_ops = ops } :: acc)
      tbl []
    |> List.sort (fun a b ->
        match compare a.m_table b.m_table with
        | 0 -> compare a.m_column b.m_column
        | n -> n)

  (** Worst per-operator misses across the records, most severe first
      (for reporting). *)
  let worst_ops ?(limit = 10) recs =
    List.concat_map (fun (r : Log.record) -> r.Log.r_ops) recs
    |> List.map (fun o -> (ratio o, o))
    |> List.stable_sort (fun (a, _) (b, _) -> compare b a)
    |> List.filteri (fun i _ -> i < limit)
end

module Lambda = struct
  type fit = {
    f_component : Dms.Calibrate.component;
    f_lambda : float;
    f_error : float;    (** relative RMS residual of the fit *)
    f_samples : int;
  }

  (** Re-fit the DMS λ table from the observed per-component volumes in the
      records. Components with no observations keep their value from
      [base] (default {!Dms.Cost.default_lambdas}). Samples are folded in
      canonical log order, so the same log yields bit-identical λs at any
      [--jobs]. *)
  let fit ?(base = Dms.Cost.default_lambdas) recs =
    let open Dms.Calibrate in
    let samples_for comp =
      List.concat_map
        (fun (r : Log.record) ->
           List.filter_map
             (fun (d : Log.dms_obs) ->
                if d.Log.d_component = comp then
                  Some { bytes = d.Log.d_bytes; seconds = d.Log.d_seconds }
                else None)
             r.Log.r_dms)
        recs
    in
    let fit_one comp fallback =
      match samples_for comp with
      | [] -> (fallback, { f_component = comp; f_lambda = fallback; f_error = 0.; f_samples = 0 })
      | samples ->
        let l = fit_lambda samples in
        let l = if Float.is_finite l && l > 0. then l else fallback in
        (l, { f_component = comp; f_lambda = l; f_error = fit_error l samples;
              f_samples = List.length samples })
    in
    let rd, f1 = fit_one Reader_direct base.Dms.Cost.l_reader_direct in
    let rh, f2 = fit_one Reader_hash base.Dms.Cost.l_reader_hash in
    let nw, f3 = fit_one Network base.Dms.Cost.l_network in
    let wr, f4 = fit_one Writer base.Dms.Cost.l_writer in
    let bc, f5 = fit_one Blkcpy base.Dms.Cost.l_blkcpy in
    ( { Dms.Cost.l_reader_direct = rd; l_reader_hash = rh; l_network = nw;
        l_writer = wr; l_blkcpy = bc },
      [ f1; f2; f3; f4; f5 ] )
end

module Store = struct
  (** Per-fingerprint observed cost record. *)
  type cost_rec = {
    mutable cr_runs : int;
    mutable cr_best_sim : float;
    mutable cr_last_sim : float;
    mutable cr_last_wall : float;
  }

  type 'p entry = {
    e_statement : string;
    mutable e_runs : int;
    mutable e_lkg : (string * 'p * float) option;
        (** (fingerprint, payload, best observed sim) of the last-known-good plan *)
    mutable e_streak : (string * int) option;
        (** consecutive regressed runs of one non-LKG fingerprint *)
    mutable e_quarantined : string list;  (** newest first *)
    mutable e_costs : (string * cost_rec) list;  (** first-seen order *)
  }

  type outcome =
    | Recorded            (** observed, within the hysteresis band *)
    | Lkg_set             (** first good run: plan becomes LKG *)
    | Lkg_improved        (** strictly better than LKG: promoted *)
    | Regressed of int    (** regression streak length so far (< threshold) *)
    | Quarantined         (** streak hit the threshold: fingerprint quarantined *)
    | Ignored_degraded    (** degraded result: never recorded as LKG *)

  let outcome_name = function
    | Recorded -> "recorded"
    | Lkg_set -> "lkg-set"
    | Lkg_improved -> "lkg-improved"
    | Regressed n -> Printf.sprintf "regressed(%d)" n
    | Quarantined -> "quarantined"
    | Ignored_degraded -> "ignored-degraded"

  type 'p t = {
    regress_factor : float;   (** observed sim > factor * LKG sim counts as a regression *)
    streak_limit : int;       (** consecutive regressed runs before quarantine *)
    entries : (string, 'p entry) Hashtbl.t;
    mutable regressions : int;  (** total regressed observations *)
    mutable fallbacks : int;    (** total LKG substitutions served by {!resolve} *)
  }

  let create ?(regress_factor = 1.2) ?(streak_limit = 2) () =
    { regress_factor; streak_limit; entries = Hashtbl.create 16; regressions = 0;
      fallbacks = 0 }

  let entry t statement =
    match Hashtbl.find_opt t.entries statement with
    | Some e -> e
    | None ->
      let e =
        { e_statement = statement; e_runs = 0; e_lkg = None; e_streak = None;
          e_quarantined = []; e_costs = [] }
      in
      Hashtbl.add t.entries statement e;
      e

  let find t statement = Hashtbl.find_opt t.entries statement

  (** Statements in sorted order (deterministic iteration for dumps). *)
  let statements t =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.entries [] |> List.sort compare

  let lkg t statement = Option.bind (find t statement) (fun e -> e.e_lkg)

  let quarantined t statement =
    match find t statement with Some e -> List.rev e.e_quarantined | None -> []

  let is_quarantined t ~statement ~fingerprint =
    match find t statement with
    | Some e -> List.mem fingerprint e.e_quarantined
    | None -> false

  let regressions t = t.regressions
  let fallbacks t = t.fallbacks

  let record_cost e fingerprint ~sim ~wall =
    match List.assoc_opt fingerprint e.e_costs with
    | Some c ->
      c.cr_runs <- c.cr_runs + 1;
      c.cr_best_sim <- Float.min c.cr_best_sim sim;
      c.cr_last_sim <- sim;
      c.cr_last_wall <- wall
    | None ->
      e.e_costs <-
        e.e_costs
        @ [ (fingerprint,
             { cr_runs = 1; cr_best_sim = sim; cr_last_sim = sim; cr_last_wall = wall }) ]

  (** Record one observed execution. Degraded results are never recorded:
      an Anytime/Fallback plan must not become LKG, nor count as evidence
      against the current plan. The hysteresis state machine (DESIGN.md
      §13): a non-LKG plan observed worse than [regress_factor] times the
      LKG's best sim cost on [streak_limit] {e consecutive} runs is
      quarantined; any in-band run resets the streak; a strictly better
      run promotes the plan to LKG. *)
  let observe t ~statement ~fingerprint ~degraded ~sim ~wall payload =
    if degraded then Ignored_degraded
    else begin
      let e = entry t statement in
      e.e_runs <- e.e_runs + 1;
      record_cost e fingerprint ~sim ~wall;
      match e.e_lkg with
      | None ->
        e.e_lkg <- Some (fingerprint, payload, sim);
        e.e_streak <- None;
        Lkg_set
      | Some (lkg_fp, _, lkg_sim) when fingerprint = lkg_fp ->
        if sim < lkg_sim then e.e_lkg <- Some (fingerprint, payload, sim);
        e.e_streak <- None;
        Recorded
      | Some (_, _, lkg_sim) ->
        if sim < lkg_sim then begin
          e.e_lkg <- Some (fingerprint, payload, sim);
          e.e_streak <- None;
          Lkg_improved
        end
        else if sim <= lkg_sim *. t.regress_factor then begin
          e.e_streak <- None;
          Recorded
        end
        else begin
          t.regressions <- t.regressions + 1;
          let streak =
            match e.e_streak with
            | Some (fp, n) when fp = fingerprint -> n + 1
            | _ -> 1
          in
          if streak >= t.streak_limit then begin
            e.e_streak <- None;
            if not (List.mem fingerprint e.e_quarantined) then
              e.e_quarantined <- fingerprint :: e.e_quarantined;
            Quarantined
          end
          else begin
            e.e_streak <- Some (fingerprint, streak);
            Regressed streak
          end
        end
    end

  (** Pre-execution check: if the plan the optimizer just produced is
      quarantined for this statement, return the LKG payload to execute
      instead (the automatic fallback). Counts [fallbacks]. *)
  let resolve t ~statement ~fingerprint =
    match find t statement with
    | None -> None
    | Some e ->
      if List.mem fingerprint e.e_quarantined then
        match e.e_lkg with
        | Some (_, payload, _) ->
          t.fallbacks <- t.fallbacks + 1;
          Some payload
        | None -> None
      else None
end
