type site =
  | Dms_transfer
  | Node_crash
  | Straggler
  | Temp_write
  | Control_transient

let all_sites = [ Dms_transfer; Node_crash; Straggler; Temp_write; Control_transient ]

let site_name = function
  | Dms_transfer -> "dms_transfer"
  | Node_crash -> "node_crash"
  | Straggler -> "straggler"
  | Temp_write -> "temp_write"
  | Control_transient -> "control_transient"

let site_of_name s =
  List.find_opt (fun site -> site_name site = s) all_sites

let site_index = function
  | Dms_transfer -> 0
  | Node_crash -> 1
  | Straggler -> 2
  | Temp_write -> 3
  | Control_transient -> 4

type event = {
  e_site : site;
  e_step : int;
  e_node : int option;
  e_attempt : int;
  e_epoch : int;
  e_factor : float;
}

let straggle_factor = 4.0

let event ?node ?(attempt = 0) ?(epoch = 0) ?(factor = straggle_factor) site step =
  { e_site = site; e_step = step; e_node = node; e_attempt = attempt;
    e_epoch = epoch; e_factor = factor }

let retries = 4

let backoff attempt = 0.05 *. (2.0 ** float_of_int (max 0 (attempt - 1)))

type plan =
  | Off
  | Probabilistic of { seed : int; rate : float }
  | Schedule of event list

let none = Off

let seeded ?(rate = 0.05) ~seed () = Probabilistic { seed; rate }

let schedule events = Schedule events

exception Schedule_error of string

let parse_schedule text =
  let parse_line lineno raw =
    let line =
      match String.index_opt raw '#' with
      | Some i -> String.sub raw 0 i
      | None -> raw
    in
    let line = String.trim line in
    if line = "" then None
    else begin
      let fields =
        String.split_on_char ' ' line
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun s -> s <> "")
      in
      let err fmt =
        (* report where AND what: the line number plus the raw offending
           text, so a bad --fault-schedule line is findable at a glance *)
        Printf.ksprintf
          (fun m ->
             raise
               (Schedule_error (Printf.sprintf "line %d: %s, in %S" lineno m (String.trim raw))))
          fmt
      in
      let kvs =
        List.map
          (fun f ->
             match String.index_opt f '=' with
             | Some i ->
               (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
             | None -> err "expected key=value, got %S" f)
          fields
      in
      let get k = List.assoc_opt k kvs in
      let int_of k v =
        match int_of_string_opt v with
        | Some n -> n
        | None -> err "field %s: expected an integer, got %S" k v
      in
      let site =
        match get "site" with
        | None -> err "missing site= field"
        | Some s ->
          (match site_of_name s with
           | Some site -> site
           | None ->
             err "unknown site %S (one of: %s)" s
               (String.concat ", " (List.map site_name all_sites)))
      in
      let step =
        match get "step" with
        | None -> err "missing step= field"
        | Some s -> int_of "step" s
      in
      let node = Option.map (int_of "node") (get "node") in
      let attempt = Option.fold ~none:0 ~some:(int_of "attempt") (get "attempt") in
      let epoch = Option.fold ~none:0 ~some:(int_of "epoch") (get "epoch") in
      let factor =
        match get "factor" with
        | None -> straggle_factor
        | Some v ->
          (match float_of_string_opt v with
           | Some f -> f
           | None -> err "field factor: expected a number, got %S" v)
      in
      List.iter
        (fun (k, _) ->
           if not (List.mem k [ "site"; "step"; "node"; "attempt"; "epoch"; "factor" ])
           then err "unknown field %S" k)
        kvs;
      Some { e_site = site; e_step = step; e_node = node; e_attempt = attempt;
             e_epoch = epoch; e_factor = factor }
    end
  in
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> parse_line (i + 1) line)
  |> List.filter_map Fun.id

let load_schedule file =
  let ic =
    try open_in file
    with Sys_error msg -> raise (Schedule_error msg)
  in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  let events =
    try parse_schedule text
    with Schedule_error msg -> raise (Schedule_error (Printf.sprintf "%s: %s" file msg))
  in
  schedule events

(* -- deterministic draws --

   splitmix64 finalizer over a fold of the coordinates: every decision is
   an independent pure function of (seed, site, epoch, step, node, attempt),
   so the fault pattern cannot depend on domain scheduling or --jobs. *)

let sm64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform ~seed (coords : int list) =
  let mix acc v =
    sm64 (Int64.add (Int64.mul acc 0x9e3779b97f4a7c15L) (Int64.of_int v))
  in
  let h = List.fold_left mix (sm64 (Int64.of_int seed)) coords in
  (* top 53 bits -> uniform float in [0, 1) *)
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.

let draw ~seed ~site ~epoch ~step ~node ~attempt =
  uniform ~seed [ site_index site; epoch; step; node; attempt ]

let event_matches ~site ~epoch ~step ~node ~attempt e =
  e.e_site = site && e.e_step = step && e.e_epoch = epoch
  && e.e_attempt = attempt
  && (match e.e_node with None -> true | Some n -> n = node)

(* a node crash is rarer than a transient: it fires at an eighth of the
   plan's rate *)
let site_rate rate = function
  | Node_crash -> rate /. 8.
  | Dms_transfer | Straggler | Temp_write | Control_transient -> rate

let fires plan ~site ~epoch ~step ~node ~attempt =
  match plan with
  | Off -> false
  | Probabilistic { seed; rate } ->
    let rate = site_rate rate site in
    rate > 0. && draw ~seed ~site ~epoch ~step ~node ~attempt < rate
  | Schedule events ->
    List.exists (event_matches ~site ~epoch ~step ~node ~attempt) events

let straggle plan ~epoch ~step ~node ~attempt =
  match plan with
  | Off -> None
  | Probabilistic _ ->
    if fires plan ~site:Straggler ~epoch ~step ~node ~attempt then Some straggle_factor
    else None
  | Schedule events ->
    List.find_opt (event_matches ~site:Straggler ~epoch ~step ~node ~attempt) events
    |> Option.map (fun e -> e.e_factor)

type failure = { site : site; epoch : int; step : int; node : int }

let failure_to_string f =
  Printf.sprintf "%s at step %d%s (epoch %d)" (site_name f.site) f.step
    (if f.node >= 0 then Printf.sprintf " on node %d" f.node else "")
    f.epoch

exception Injected of failure
exception Exhausted of { failure : failure; attempts : int }

let () =
  Printexc.register_printer (function
      | Injected f -> Some (Printf.sprintf "Fault.Injected(%s)" (failure_to_string f))
      | Exhausted { failure; attempts } ->
        Some
          (Printf.sprintf "Fault.Exhausted(%s after %d attempts)"
             (failure_to_string failure) attempts)
      | _ -> None)
