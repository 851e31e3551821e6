type span = {
  name : string;
  mutable elapsed : float;
  mutable calls : int;
  mutable metrics : (string * float) list;
  mutable children : span list;
}

type event =
  | Span_open of string list
  | Span_close of string list * float
  | Metric of string list * string * float

type sink = event -> unit

type ctx = {
  clock : unit -> float;
  sink : sink;
  root : span;               (* implicit container, never reported itself *)
  mutable stack : span list; (* innermost first; root at the bottom *)
}

type t = Null | Ctx of ctx

let fresh_span name = { name; elapsed = 0.; calls = 0; metrics = []; children = [] }

(* Unix.gettimeofday without the unix dependency: the stdlib exposes no
   monotonic clock before effects-era mtime libraries, so we fall back to
   Sys.time (CPU seconds) only if gettimeofday is unavailable.  In this
   codebase unix ships with the compiler, so use it directly. *)
let default_clock = Unix.gettimeofday

let null = Null

let create ?(clock = default_clock) ?(sink = fun _ -> ()) () =
  let root = fresh_span "" in
  Ctx { clock; sink; root; stack = [ root ] }

let enabled = function Null -> false | Ctx _ -> true

(* outermost-first path of the current stack, root elided *)
let path_of c =
  List.rev_map (fun s -> s.name) (List.filter (fun s -> s != c.root) c.stack)

let with_span t name f =
  match t with
  | Null -> f ()
  | Ctx c ->
    let parent = List.hd c.stack in
    let sp =
      match List.find_opt (fun s -> s.name = name) parent.children with
      | Some s -> s
      | None ->
        let s = fresh_span name in
        parent.children <- parent.children @ [ s ];
        s
    in
    c.stack <- sp :: c.stack;
    c.sink (Span_open (path_of c));
    let t0 = c.clock () in
    Fun.protect
      ~finally:(fun () ->
          let dt = c.clock () -. t0 in
          sp.elapsed <- sp.elapsed +. dt;
          sp.calls <- sp.calls + 1;
          c.sink (Span_close (path_of c, dt));
          c.stack <- List.tl c.stack)
      f

let update t name f =
  match t with
  | Null -> ()
  | Ctx c ->
    let sp = List.hd c.stack in
    let v =
      match List.assoc_opt name sp.metrics with
      | Some old -> f old
      | None -> f 0.
    in
    sp.metrics <-
      (if List.mem_assoc name sp.metrics then
         List.map (fun (k, old) -> if k = name then (k, v) else (k, old)) sp.metrics
       else sp.metrics @ [ (name, v) ]);
    c.sink (Metric (path_of c, name, v))

let addf t name v = update t name (fun old -> old +. v)
let add t name n = addf t name (float_of_int n)
let set t name v = update t name (fun _ -> v)

let roots = function Null -> [] | Ctx c -> c.root.children

let find t names =
  match t with
  | Null -> None
  | Ctx c ->
    let rec go sp = function
      | [] -> Some sp
      | n :: rest ->
        (match List.find_opt (fun s -> s.name = n) sp.children with
         | Some child -> go child rest
         | None -> None)
    in
    (match names with [] -> None | _ -> go c.root names)

let span_metric sp name = List.assoc_opt name sp.metrics

let rec span_counter sp name =
  (match span_metric sp name with Some v -> v | None -> 0.)
  +. List.fold_left (fun acc c -> acc +. span_counter c name) 0. sp.children

let counter t name =
  match t with Null -> 0. | Ctx c -> span_counter c.root name

let counters_prefixed t prefix =
  match t with
  | Null -> []
  | Ctx c ->
    let matches name =
      String.length name >= String.length prefix
      && String.sub name 0 (String.length prefix) = prefix
    in
    let totals : (string, float) Hashtbl.t = Hashtbl.create 8 in
    let note (name, v) =
      if matches name then
        Hashtbl.replace totals name
          (v +. Option.value ~default:0. (Hashtbl.find_opt totals name))
    in
    let rec walk sp =
      List.iter note sp.metrics;
      List.iter walk sp.children
    in
    walk c.root;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

(* -- reporting -- *)

let metric_to_string (k, v) =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%s=%.0f" k v
  else Printf.sprintf "%s=%.4g" k v

let time_to_string s =
  if s >= 1. then Printf.sprintf "%8.3f s " s
  else if s >= 1e-3 then Printf.sprintf "%8.3f ms" (s *. 1e3)
  else Printf.sprintf "%8.1f us" (s *. 1e6)

let report t =
  match t with
  | Null -> ""
  | Ctx c ->
    let buf = Buffer.create 512 in
    let rec render depth sp =
      Buffer.add_string buf
        (Printf.sprintf "%-32s %s%s\n"
           (String.make (2 * depth) ' ' ^ sp.name)
           (time_to_string sp.elapsed)
           (if sp.calls > 1 then Printf.sprintf "  (%d calls)" sp.calls else ""));
      List.iter
        (fun m ->
           Buffer.add_string buf
             (Printf.sprintf "%s%s\n" (String.make (2 * depth + 4) ' ')
                (metric_to_string m)))
        sp.metrics;
      List.iter (render (depth + 1)) sp.children
    in
    List.iter (render 0) c.root.children;
    if c.root.metrics <> [] then begin
      Buffer.add_string buf "(global)\n";
      List.iter
        (fun m -> Buffer.add_string buf ("    " ^ metric_to_string m ^ "\n"))
        c.root.metrics
    end;
    Buffer.contents buf
