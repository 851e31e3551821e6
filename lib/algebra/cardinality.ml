(** Cardinality estimation over logical operators, driven by the shell
    database's global statistics (paper Fig. 2 step 2c: "estimation of the
    size of intermediate results ... based on the size of base tables and
    statistics on the column values"). *)

type props = {
  card : float;            (** estimated output rows (global, appliance-wide) *)
}

let default_eq_sel = 0.005
let default_range_sel = 1. /. 3.
let default_like_sel = 0.05

type env = {
  reg : Registry.t;
  shell : Catalog.Shell_db.t;
}

let col_stats env c = Registry.stats env.reg c

let ndv env c =
  match col_stats env c with
  | Some s when s.Catalog.Col_stats.ndv > 0. -> s.Catalog.Col_stats.ndv
  | _ -> 100.

(* Selectivity of one conjunct against an input of [card] rows. *)
let rec conjunct_sel env card conj =
  match conj with
  | Expr.Lit (Catalog.Value.Bool true) -> 1.0
  | Expr.Lit (Catalog.Value.Bool false) -> 0.0
  | Expr.Bin (Expr.And, a, b) -> conjunct_sel env card a *. conjunct_sel env card b
  | Expr.Bin (Expr.Or, a, b) ->
    let sa = conjunct_sel env card a and sb = conjunct_sel env card b in
    Float.min 1. (sa +. sb -. (sa *. sb))
  | Expr.Un (Expr.Not, a) -> Float.max 0. (1. -. conjunct_sel env card a)
  | Expr.Bin (op, Expr.Col c, Expr.Lit v) -> cmp_sel env op c v
  | Expr.Bin (op, Expr.Lit v, Expr.Col c) -> cmp_sel env (flip op) c v
  | Expr.Bin (Expr.Eq, Expr.Col a, Expr.Col b) ->
    1. /. Float.max 1. (Float.max (ndv env a) (ndv env b))
  | Expr.Bin ((Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge), _, _) -> default_range_sel
  | Expr.Bin (Expr.Ne, _, _) -> 0.9
  | Expr.Bin (Expr.Eq, _, _) -> default_eq_sel
  | Expr.Like (Expr.Col c, pattern, negated) ->
    let s = like_sel env c pattern in
    if negated then 1. -. s else s
  | Expr.Like (_, _, negated) -> if negated then 1. -. default_like_sel else default_like_sel
  | Expr.In_list (Expr.Col c, items, negated) ->
    let s =
      Float.min 1. (float_of_int (List.length items) /. Float.max 1. (ndv env c))
    in
    if negated then 1. -. s else s
  | Expr.In_list (_, items, negated) ->
    let s = Float.min 1. (float_of_int (List.length items) *. default_eq_sel) in
    if negated then 1. -. s else s
  | Expr.Is_null (Expr.Col c, negated) ->
    let nf =
      match col_stats env c with
      | Some s -> s.Catalog.Col_stats.null_frac
      | None -> 0.01
    in
    if negated then 1. -. nf else nf
  | Expr.Is_null (_, negated) -> if negated then 0.99 else 0.01
  | _ -> default_range_sel

and flip = function
  | Expr.Lt -> Expr.Gt | Expr.Le -> Expr.Ge | Expr.Gt -> Expr.Lt | Expr.Ge -> Expr.Le
  | op -> op

and cmp_sel env op c v =
  match col_stats env c with
  | Some { Catalog.Col_stats.histogram = Some h; _ } when Catalog.Histogram.non_null_rows h > 0. ->
    let total = Catalog.Histogram.non_null_rows h in
    let rows =
      match op with
      | Expr.Eq -> Catalog.Histogram.rows_eq h v
      | Expr.Ne -> total -. Catalog.Histogram.rows_eq h v
      | Expr.Lt -> Catalog.Histogram.rows_le ~strict:true h v
      | Expr.Le -> Catalog.Histogram.rows_le h v
      | Expr.Gt -> Catalog.Histogram.rows_ge ~strict:true h v
      | Expr.Ge -> Catalog.Histogram.rows_ge h v
      | _ -> total *. default_range_sel
    in
    Float.max 0. (Float.min 1. (rows /. total))
  | Some s when op = Expr.Eq && s.Catalog.Col_stats.ndv > 0. ->
    1. /. s.Catalog.Col_stats.ndv
  | _ ->
    (match op with
     | Expr.Eq -> default_eq_sel
     | Expr.Ne -> 1. -. default_eq_sel
     | _ -> default_range_sel)

and like_sel env c pattern =
  (* prefix patterns become a range probe: [abc%] -> [abc, abd) *)
  let prefix =
    match String.index_opt pattern '%' with
    | Some i when i > 0 && not (String.contains (String.sub pattern 0 i) '_')
                  && i = String.length pattern - 1 ->
      Some (String.sub pattern 0 i)
    | _ -> None
  in
  match prefix, col_stats env c with
  | Some p, Some { Catalog.Col_stats.histogram = Some h; _ }
    when Catalog.Histogram.non_null_rows h > 0. ->
    let hi =
      let b = Bytes.of_string p in
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (min 255 (Char.code (Bytes.get b last) + 1)));
      Bytes.to_string b
    in
    let total = Catalog.Histogram.non_null_rows h in
    let n =
      Catalog.Histogram.rows_le ~strict:true h (Catalog.Value.String hi)
      -. Catalog.Histogram.rows_le ~strict:true h (Catalog.Value.String p)
    in
    Float.max (1. /. Float.max 1. total) (Float.min 1. (n /. total))
  | _ -> default_like_sel

let select_sel env pred card =
  List.fold_left (fun acc c -> acc *. conjunct_sel env card c) 1. (Expr.conjuncts pred)

(* NDV capped by current cardinality. *)
let key_ndv env card c = Float.min (Float.max 1. card) (ndv env c)

(* Selectivity of a residual conjunct of an inner/cross join between
   inputs with columns [lcols] and [rcols]. When the conjunct is a
   disjunction, the normalizer pushed its implied per-side filters
   ({!Expr.implied_disjunction}) below the join, where they were already
   charged; the disjunction implies them, so its selectivity here is
   conditioned on theirs: P(or | implied) = P(or) / P(implied), at most 1. *)
let residual_sel env card ~lcols ~rcols conj =
  let s = conjunct_sel env card conj in
  let implied_sel cols =
    match
      Expr.implied_disjunction (fun e -> Registry.Col_set.subset (Expr.cols e) cols) conj
    with
    | Some d -> conjunct_sel env card d
    | None -> 1.
  in
  let below = implied_sel lcols *. implied_sel rcols in
  if below > 0. then Float.min 1. (s /. below) else s

let join_card env ~kind ~pred ~left ~right ~lcols ~rcols =
  let equi = Expr.equi_pairs pred in
  let lcard = Float.max left 1. and rcard = Float.max right 1. in
  let other_conjs =
    List.filter (fun c -> Expr.as_col_eq c = None) (Expr.conjuncts pred)
  in
  let other_sel =
    let sel =
      match kind with
      | Relop.Inner | Relop.Cross -> residual_sel env ~lcols ~rcols
      | Relop.Semi | Relop.Anti_semi | Relop.Left_outer -> conjunct_sel env
    in
    List.fold_left (fun acc c -> acc *. sel (lcard *. rcard) c) 1. other_conjs
  in
  match kind with
  | Relop.Inner | Relop.Cross ->
    let eq_sel =
      List.fold_left
        (fun acc (a, b) -> acc /. Float.max 1. (Float.max (ndv env a) (ndv env b)))
        1. equi
    in
    Float.max 1. (lcard *. rcard *. eq_sel *. other_sel)
  | Relop.Semi ->
    let frac =
      match equi with
      | [] -> Float.min 1. (0.5 *. other_sel *. rcard)
      | _ ->
        List.fold_left
          (fun acc (a, b) ->
             let da = ndv env a and db = ndv env b in
             acc *. Float.min 1. (Float.min da db /. Float.max 1. da))
          1. equi
    in
    Float.max 1. (lcard *. Float.min 1. (frac *. other_sel))
  | Relop.Anti_semi ->
    let semi =
      match equi with
      | [] -> Float.min 1. (0.5 *. other_sel)
      | _ ->
        List.fold_left
          (fun acc (a, b) ->
             let da = ndv env a and db = ndv env b in
             acc *. Float.min 1. (Float.min da db /. Float.max 1. da))
          1. equi
    in
    Float.max 1. (lcard *. Float.max 0. (1. -. semi))
  | Relop.Left_outer ->
    let inner =
      let eq_sel =
        List.fold_left
          (fun acc (a, b) -> acc /. Float.max 1. (Float.max (ndv env a) (ndv env b)))
          1. equi
      in
      lcard *. rcard *. eq_sel *. other_sel
    in
    Float.max lcard inner

let group_card env ~keys ~input =
  match keys with
  | [] -> 1.
  | _ ->
    let prod =
      List.fold_left (fun acc k -> acc *. key_ndv env input k) 1. keys
    in
    Float.max 1. (Float.min prod (Float.max 1. (input /. 2.)))

(** Estimate the cardinality of an operator given its children's estimates
    and output column sets. *)
let of_op env (op : Relop.op) ~(child_cols : Registry.Col_set.t list)
    (children : props list) : props =
  let child n = (List.nth children n).card in
  match op with
  | Relop.Get { table; _ } ->
    (match Catalog.Shell_db.find env.shell table with
     | Some t -> { card = Float.max 1. (Catalog.Shell_db.row_count t) }
     | None -> { card = 1000. })
  | Relop.Select pred -> { card = Float.max 1. (child 0 *. select_sel env pred (child 0)) }
  | Relop.Project _ -> { card = child 0 }
  | Relop.Join { kind; pred } ->
    { card =
        join_card env ~kind ~pred ~left:(child 0) ~right:(child 1)
          ~lcols:(List.nth child_cols 0) ~rcols:(List.nth child_cols 1) }
  | Relop.Group_by { keys; _ } -> { card = group_card env ~keys ~input:(child 0) }
  | Relop.Sort { limit = Some n; _ } -> { card = Float.min (child 0) (float_of_int n) }
  | Relop.Sort _ -> { card = child 0 }
  | Relop.Union_all -> { card = child 0 +. child 1 }
  | Relop.Empty _ -> { card = 0. }

(** Estimate over a whole tree (used outside the MEMO). *)
let rec of_tree env (t : Relop.t) : props =
  of_op env t.op ~child_cols:(List.map Relop.output_col_set t.children)
    (List.map (of_tree env) t.children)

(** Row width in bytes of a projected column set. *)
let width_of_cols reg cols =
  List.fold_left (fun acc c -> acc +. Registry.width reg c) 0. cols
