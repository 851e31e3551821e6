(** Cost calibration (paper §3.3.3): "The constant lambda is calculated via
    targeted performance tests after a meticulous instrumentation of the
    source code."

    Given instrumented measurements — (component, bytes processed, seconds)
    samples — we fit each lambda by least squares through the origin:
    lambda = sum(x*y) / sum(x^2). The engine's DMS runtime produces such
    samples with per-row and fixed overheads on top of the linear term, so
    the fit (and its residual) quantifies how much the constant-lambda
    simplification gives up, which is exactly the trade-off the paper
    discusses. *)

type component = Reader_direct | Reader_hash | Network | Writer | Blkcpy

let components = [ Reader_direct; Reader_hash; Network; Writer; Blkcpy ]

let component_name = function
  | Reader_direct -> "reader_direct"
  | Reader_hash -> "reader_hash"
  | Network -> "network"
  | Writer -> "writer"
  | Blkcpy -> "blkcpy"

let component_of_name s = List.find_opt (fun c -> component_name c = s) components

let lambda_of (l : Cost.lambdas) = function
  | Reader_direct -> l.Cost.l_reader_direct
  | Reader_hash -> l.Cost.l_reader_hash
  | Network -> l.Cost.l_network
  | Writer -> l.Cost.l_writer
  | Blkcpy -> l.Cost.l_blkcpy

type sample = { component : component; bytes : float; seconds : float }

(** Least-squares slope through the origin. *)
let fit_lambda (samples : sample list) : float =
  let sxy, sxx =
    List.fold_left
      (fun (sxy, sxx) s -> (sxy +. (s.bytes *. s.seconds), sxx +. (s.bytes *. s.bytes)))
      (0., 0.) samples
  in
  if sxx <= 0. then 0. else sxy /. sxx

(** Relative RMS residual of the fitted linear model against the samples. *)
let fit_error (lambda : float) (samples : sample list) : float =
  match samples with
  | [] -> 0.
  | _ ->
    let n = float_of_int (List.length samples) in
    let mse =
      List.fold_left
        (fun acc s ->
           let predicted = lambda *. s.bytes in
           let rel =
             if s.seconds > 0. then (predicted -. s.seconds) /. s.seconds else 0.
           in
           acc +. (rel *. rel))
        0. samples
      /. n
    in
    sqrt mse

type fit = {
  f_component : component;
  f_lambda : float;
  f_error : float;
  f_samples : int;
}

(** Fit every component's λ from its samples, in list order. *)
let fit ?(base = Cost.default_lambdas) (samples : sample list) : Cost.lambdas * fit list =
  let fit_one c =
    let fallback = lambda_of base c in
    match List.filter (fun s -> s.component = c) samples with
    | [] -> { f_component = c; f_lambda = fallback; f_error = 0.; f_samples = 0 }
    | mine ->
      let l = fit_lambda mine in
      let l = if Float.is_finite l && l > 0. then l else fallback in
      { f_component = c; f_lambda = l; f_error = fit_error l mine;
        f_samples = List.length mine }
  in
  let fits = List.map fit_one components in
  let l c = (List.find (fun f -> f.f_component = c) fits).f_lambda in
  ( { Cost.l_reader_direct = l Reader_direct; l_reader_hash = l Reader_hash;
      l_network = l Network; l_writer = l Writer; l_blkcpy = l Blkcpy },
    fits )
