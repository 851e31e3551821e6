(** Simplification / normalization of logical trees (paper Fig. 2 step 2a:
    "simplification of the input operator tree into a normalized form",
    and §5: contradiction detection, redundant join elimination).

    Passes, in order:
    1. constant folding,
    1b. common-conjunct factoring of disjunctions
       ([(A AND B) OR (A AND C)] -> [A AND (B OR C)], absorption
       [A OR (A AND B)] -> [A]), so a join key repeated in every disjunct
       (TPC-H Q19) becomes an equi-join conjunct,
    2. predicate pushdown (splitting conjuncts across joins, turning cross
       products with residual equality predicates into inner joins),
    2b. implied per-side disjunctions: below an inner/cross join whose
       residual is [OR_i D_i], each side also gets [OR_i (D_i's conjuncts
       on that side)] as an extra filter (Q7's nation pair, Q19's part and
       lineitem ranges),
    3. equality transitivity closure + constant propagation (the paper's
       "join transitivity closure detection" that enables the early
       filtering of lineitem by part in Q20),
    4. contradiction detection (empty-range predicates -> Empty),
    5. redundant join elimination (FK -> PK join to an unused table). *)

open Relop

let true_lit = Expr.Lit (Catalog.Value.Bool true)

let is_true = function Expr.Lit (Catalog.Value.Bool true) -> true | _ -> false
let is_false = function Expr.Lit (Catalog.Value.Bool false) -> true | _ -> false

(* -- 1. constant folding -- *)

let rec fold_expr (e : Expr.t) : Expr.t =
  let no_cols e = Registry.Col_set.is_empty (Expr.cols e) in
  let try_eval e =
    if no_cols e then
      match Expr.eval (fun _ -> Catalog.Value.Null) e with
      | v -> Expr.Lit v
      | exception _ -> e
    else e
  in
  match e with
  | Expr.Col _ | Expr.Lit _ -> e
  | Expr.Bin (Expr.And, a, b) ->
    let a = fold_expr a and b = fold_expr b in
    if is_true a then b else if is_true b then a
    else if is_false a || is_false b then Expr.Lit (Catalog.Value.Bool false)
    else Expr.Bin (Expr.And, a, b)
  | Expr.Bin (Expr.Or, a, b) ->
    let a = fold_expr a and b = fold_expr b in
    if is_false a then b else if is_false b then a
    else if is_true a || is_true b then true_lit
    else Expr.Bin (Expr.Or, a, b)
  | Expr.Bin (op, a, b) -> try_eval (Expr.Bin (op, fold_expr a, fold_expr b))
  | Expr.Un (op, a) -> try_eval (Expr.Un (op, fold_expr a))
  | Expr.Is_null (a, n) -> try_eval (Expr.Is_null (fold_expr a, n))
  | Expr.Like (a, p, n) -> try_eval (Expr.Like (fold_expr a, p, n))
  | Expr.In_list (a, items, n) -> try_eval (Expr.In_list (fold_expr a, items, n))
  | Expr.Case (branches, else_) ->
    Expr.Case (List.map (fun (c, v) -> (fold_expr c, fold_expr v)) branches,
               Option.map fold_expr else_)
  | Expr.Func (fn, args) -> try_eval (Expr.Func (fn, List.map fold_expr args))
  | Expr.Cast (a, ty) -> try_eval (Expr.Cast (fold_expr a, ty))

let rec fold_tree t =
  let children = List.map fold_tree t.children in
  let op =
    match t.op with
    | Select p -> Select (fold_expr p)
    | Join { kind; pred } -> Join { kind; pred = fold_expr pred }
    | Project defs -> Project (List.map (fun (c, e) -> (c, fold_expr e)) defs)
    | Group_by { keys; aggs } ->
      Group_by
        { keys;
          aggs =
            List.map
              (fun a -> { a with Expr.agg_arg = Option.map fold_expr a.Expr.agg_arg })
              aggs }
    | Sort { keys; limit } ->
      Sort { keys = List.map (fun k -> { k with key = fold_expr k.key }) keys; limit }
    | (Get _ | Empty _ | Union_all) as op -> op
  in
  { op; children }

(* -- 1b. common-conjunct factoring --

   [(A AND B) OR (A AND C)] -> [A AND (B OR C)], and absorption when a
   disjunct is only the shared part: [A OR (A AND B)] -> [A]. Both are
   identities of Kleene three-valued logic, so they hold with NULLs and may
   be applied to any predicate, at any join kind. A disjunction with no
   shared conjunct keeps its shape. *)

let mem_expr c cs = List.exists (Expr.equal c) cs

(* First occurrence of each structurally-equal conjunct, in order. *)
let dedup conjs =
  List.rev (List.fold_left (fun acc c -> if mem_expr c acc then acc else c :: acc) [] conjs)

let rec factor_expr (e : Expr.t) : Expr.t =
  match e with
  | Expr.Bin (Expr.And, a, b) -> Expr.Bin (Expr.And, factor_expr a, factor_expr b)
  | Expr.Bin (Expr.Or, _, _) ->
    let ds = List.map Expr.conjuncts (Expr.disjuncts e) in
    let common =
      dedup (List.filter (fun c -> List.for_all (mem_expr c) ds) (List.hd ds))
    in
    if common = [] then map_disjuncts e
    else begin
      let rests = List.map (List.filter (fun c -> not (mem_expr c common))) ds in
      let common = List.map factor_expr common in
      if List.mem [] rests then Expr.conjoin common
      else
        Expr.conjoin (common @ [ factor_expr (Expr.disjoin (List.map Expr.conjoin rests)) ])
    end
  | _ -> e

and map_disjuncts = function
  | Expr.Bin (Expr.Or, a, b) -> Expr.Bin (Expr.Or, map_disjuncts a, map_disjuncts b)
  | d -> factor_expr d

let rec factor_tree t =
  let children = List.map factor_tree t.children in
  let op =
    match t.op with
    | Select p -> Select (factor_expr p)
    | Join { kind; pred } -> Join { kind; pred = factor_expr pred }
    | op -> op
  in
  { op; children }

(* -- 2. predicate pushdown -- *)

let covered set e = Registry.Col_set.subset (Expr.cols e) set

(** Push the pending conjuncts [conjs] into [t] as deep as possible;
    conjuncts that cannot descend materialize as a Select on top. Repeated
    conjuncts are kept once, so re-running [push] never stacks a filter.

    With [~imply:true] (pass 2b), an inner/cross join whose residual holds
    a disjunction also pushes the disjunction's implied per-side filter
    ({!Expr.implied_disjunction}) into each side; the disjunction itself
    stays at the join. Semi, anti-semi and left-outer joins get no implied
    filters; anti-semi and left-outer joins keep the left rows that fail
    their predicate, so a left filter would be unsound there. *)
let rec push ?(imply = false) t conjs : Relop.t =
  let push = push ~imply in
  let conjs = dedup conjs in
  match t.op, t.children with
  | Select p, [ child ] -> push child (Expr.conjuncts p @ conjs)
  | Join { kind = Inner | Cross; pred }, [ l; r ] ->
    let all =
      dedup (List.filter (fun c -> not (is_true c)) (Expr.conjuncts pred @ conjs))
    in
    let lcols = output_col_set l and rcols = output_col_set r in
    let to_l, rest = List.partition (covered lcols) all in
    let to_r, residual = List.partition (covered rcols) rest in
    let implied cols =
      if imply then List.filter_map (Expr.implied_disjunction (covered cols)) residual
      else []
    in
    let l' = push l (to_l @ implied lcols) and r' = push r (to_r @ implied rcols) in
    let kind' = if residual = [] then Cross else Inner in
    mk (Join { kind = kind'; pred = Expr.conjoin residual }) [ l'; r' ]
  | Join { kind = (Semi | Anti_semi) as kind; pred }, [ l; r ] ->
    (* Pending conjuncts only ever reference left outputs here. Split the
       join predicate's single-side conjuncts into the children: valid for
       both semi and anti-semi because per-side filters do not change the
       match relation (see DESIGN.md). *)
    let lcols = output_col_set l and rcols = output_col_set r in
    let pred_conjs = List.filter (fun c -> not (is_true c)) (Expr.conjuncts pred) in
    let to_l0, rest = List.partition (covered lcols) pred_conjs in
    let to_r, residual = List.partition (covered rcols) rest in
    let pending_l, stay_above = List.partition (covered lcols) conjs in
    let l' = push l (to_l0 @ pending_l) and r' = push r to_r in
    let joined = mk (Join { kind; pred = Expr.conjoin residual }) [ l'; r' ] in
    (match Expr.conjoin_opt stay_above with
     | Some p -> select p joined
     | None -> joined)
  | Join { kind = Left_outer; pred }, [ l; r ] ->
    (* Only the ON predicate's right-side conjuncts may be pushed (into the
       right input); everything pending stays above. *)
    let rcols = output_col_set r in
    let pred_conjs = List.filter (fun c -> not (is_true c)) (Expr.conjuncts pred) in
    let to_r, keep = List.partition (covered rcols) pred_conjs in
    let joined =
      mk (Join { kind = Left_outer; pred = Expr.conjoin keep }) [ push l []; push r to_r ]
    in
    (match Expr.conjoin_opt conjs with
     | Some p -> select p joined
     | None -> joined)
  | Group_by { keys; _ }, [ child ] ->
    let keyset = Registry.Col_set.of_list keys in
    let below, above = List.partition (covered keyset) conjs in
    let t' = mk t.op [ push child below ] in
    (match Expr.conjoin_opt above with Some p -> select p t' | None -> t')
  | Project defs, [ child ] ->
    (* Rewrite conjuncts through the projection, then push below. *)
    let env = List.fold_left (fun m (c, e) -> Registry.Col_map.add c e m)
        Registry.Col_map.empty defs in
    let rewrite c =
      Expr.map_cols
        (fun id -> match Registry.Col_map.find_opt id env with
           | Some e -> e
           | None -> Expr.Col id)
        c
    in
    let ccols = output_col_set child in
    let pushable, above =
      List.partition (fun c -> covered ccols (rewrite c)) conjs
    in
    let t' = mk t.op [ push child (List.map rewrite pushable) ] in
    (match Expr.conjoin_opt above with Some p -> select p t' | None -> t')
  | Sort _, [ child ] ->
    (* filters commute with sort *)
    mk t.op [ push child conjs ]
  | Union_all, [ l; r ] ->
    (* a filter over a union applies to every branch; the right branch's
       leading Project rewrites the column references *)
    mk Union_all [ push l conjs; push r conjs ]
  | (Get _ | Empty _), _ ->
    (match Expr.conjoin_opt (List.filter (fun c -> not (is_true c)) conjs) with
     | Some p -> select p t
     | None -> t)
  | _ -> invalid_arg "Normalize.push: malformed tree"

(* -- 3. transitivity closure + constant propagation -- *)

module UF = struct
  type t = (int, int) Hashtbl.t
  let create () : t = Hashtbl.create 32
  let rec find t x =
    match Hashtbl.find_opt t x with
    | None -> x
    | Some p -> let r = find t p in if r <> p then Hashtbl.replace t x r; r
  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then Hashtbl.replace t ra rb
end

(* A "region" is a maximal subtree connected by Inner/Cross/Semi joins,
   Selects and Sorts. Equality facts are sound within a region (for Semi:
   per-side implied filters never change the match relation). Anti-semi and
   Left-outer joins, Group-bys and Projects delimit regions; their inputs
   are processed recursively as fresh regions. *)

type facts = {
  uf : UF.t;
  mutable consts : (int * Expr.t) list;
      (** (col, unary predicate template with the col) *)
  mutable equalities : (int * int) list;
}

let is_unary_const_pred = function
  | Expr.Bin ((Expr.Eq | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge | Expr.Ne), Expr.Col c, Expr.Lit _)
  | Expr.Bin ((Expr.Eq | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge | Expr.Ne), Expr.Lit _, Expr.Col c) ->
    Some c
  | Expr.Like (Expr.Col c, _, _) -> Some c
  | Expr.In_list (Expr.Col c, _, _) -> Some c
  | _ -> None

let retarget_const_pred pred ~from_col ~to_col =
  Expr.map_cols (fun id -> Expr.Col (if id = from_col then to_col else id)) pred

let rec collect_facts facts t =
  match t.op, t.children with
  | Select p, [ child ] ->
    List.iter (record_fact facts) (Expr.conjuncts p);
    collect_facts facts child
  | Join { kind = Inner | Cross | Semi; pred }, [ l; r ] ->
    List.iter (record_fact facts) (Expr.conjuncts pred);
    collect_facts facts l;
    collect_facts facts r
  | Sort _, [ child ] -> collect_facts facts child
  | _ -> () (* region boundary *)

and record_fact facts conj =
  match Expr.as_col_eq conj with
  | Some (a, b) ->
    UF.union facts.uf a b;
    facts.equalities <- (a, b) :: facts.equalities
  | None ->
    (match is_unary_const_pred conj with
     | Some c -> facts.consts <- (c, conj) :: facts.consts
     | None -> ())

(* All conjuncts present anywhere in the region (for dedup). *)
let rec region_conjuncts t =
  match t.op, t.children with
  | Select p, [ child ] -> Expr.conjuncts p @ region_conjuncts child
  | Join { kind = Inner | Cross | Semi; pred }, [ l; r ] ->
    Expr.conjuncts pred @ region_conjuncts l @ region_conjuncts r
  | Sort _, [ child ] -> region_conjuncts child
  | _ -> []

let derived_conjuncts facts existing =
  let out = ref [] in
  let exists c = List.exists (Expr.equal c) existing || List.exists (Expr.equal c) !out in
  (* constant propagation across equivalence classes *)
  let classes = Hashtbl.create 16 in
  let note col =
    let r = UF.find facts.uf col in
    let cur = try Hashtbl.find classes r with Not_found -> [] in
    if not (List.mem col cur) then Hashtbl.replace classes r (col :: cur)
  in
  List.iter (fun (a, b) -> note a; note b) facts.equalities;
  List.iter
    (fun (col, pred) ->
       let r = UF.find facts.uf col in
       match Hashtbl.find_opt classes r with
       | None -> ()
       | Some members ->
         List.iter
           (fun m ->
              if m <> col then begin
                let p = retarget_const_pred pred ~from_col:col ~to_col:m in
                if not (exists p) then out := p :: !out
              end)
           members)
    facts.consts;
  (* pairwise equalities within each class (bounded: classes are small) *)
  Hashtbl.iter
    (fun _ members ->
       let members = List.sort_uniq Int.compare members in
       let rec pairs = function
         | [] -> ()
         | a :: rest ->
           List.iter
             (fun b ->
                let p = Expr.eq (Expr.Col a) (Expr.Col b) in
                let p' = Expr.eq (Expr.Col b) (Expr.Col a) in
                if not (exists p) && not (exists p') then out := p :: !out)
             rest;
           pairs rest
       in
       pairs members)
    classes;
  !out

(** Place each derived conjunct at the deepest point of the region where its
    columns are available; drop it if nowhere placeable (it is implied). *)
let rec sprinkle t conjs =
  if conjs = [] then descend_boundaries t
  else
    match t.op, t.children with
    | Select p, [ child ] ->
      let ccols = output_col_set child in
      let down, _dropped = List.partition (covered ccols) conjs in
      mk (Select p) [ sprinkle child down ]
    | Join { kind = (Inner | Cross | Semi) as kind; pred }, [ l; r ] ->
      let lcols = output_col_set l and rcols = output_col_set r in
      let to_l, rest = List.partition (covered lcols) conjs in
      let to_r, rest = List.partition (covered rcols) rest in
      (* both-side conjuncts join the predicate (available at the join) *)
      let here =
        List.filter (covered (Registry.Col_set.union lcols rcols)) rest
      in
      let existing = Expr.conjuncts pred in
      let here = List.filter (fun c -> not (List.exists (Expr.equal c) existing)) here in
      let pred' = if here = [] then pred else fold_expr (Expr.conjoin (existing @ here)) in
      let kind' = if kind = Cross && here <> [] then Inner else kind in
      mk (Join { kind = kind'; pred = pred' }) [ sprinkle l to_l; sprinkle r to_r ]
    | Sort s, [ child ] -> mk (Sort s) [ sprinkle child conjs ]
    | (Get _ | Empty _), _ ->
      let existing = [] in
      let fresh = List.filter (fun c -> not (List.exists (Expr.equal c) existing)) conjs in
      (match Expr.conjoin_opt fresh with
       | Some p -> select p t
       | None -> t)
    | _, _ -> descend_boundaries t

(* Recurse into sub-regions at region boundaries. *)
and descend_boundaries t =
  match t.op, t.children with
  | (Join { kind = Anti_semi | Left_outer; _ } | Group_by _ | Project _), _ ->
    mk t.op (List.map close_region t.children)
  | _, [] -> t
  | _, children -> mk t.op (List.map descend_boundaries children)

and close_region t =
  let facts = { uf = UF.create (); consts = []; equalities = [] } in
  collect_facts facts t;
  let existing = region_conjuncts t in
  let derived = derived_conjuncts facts existing in
  sprinkle t derived

(* -- 4. contradiction detection -- *)

(* Detect unsatisfiable conjunct sets on a single column: empty ranges,
   conflicting equalities, or a literal FALSE. *)
let contradictory conjs =
  if List.exists is_false conjs then true
  else begin
    let ranges : (int, Catalog.Value.t option * Catalog.Value.t option * Catalog.Value.t option) Hashtbl.t =
      Hashtbl.create 8
    in
    (* per col: (lower bound, upper bound, required equality) *)
    let get c = try Hashtbl.find ranges c with Not_found -> (None, None, None) in
    let tighten_lo c v =
      let lo, hi, eq = get c in
      let lo = match lo with Some l when Catalog.Value.compare l v >= 0 -> Some l | _ -> Some v in
      Hashtbl.replace ranges c (lo, hi, eq)
    in
    let tighten_hi c v =
      let lo, hi, eq = get c in
      let hi = match hi with Some h when Catalog.Value.compare h v <= 0 -> Some h | _ -> Some v in
      Hashtbl.replace ranges c (lo, hi, eq)
    in
    let conflict = ref false in
    let set_eq c v =
      let lo, hi, eq = get c in
      (match eq with
       | Some v' when not (Catalog.Value.equal v v') -> conflict := true
       | _ -> Hashtbl.replace ranges c (lo, hi, Some v))
    in
    List.iter
      (fun conj ->
         match conj with
         | Expr.Bin (op, Expr.Col c, Expr.Lit v) when not (Catalog.Value.is_null v) ->
           (match op with
            | Expr.Eq -> set_eq c v
            | Expr.Lt | Expr.Le -> tighten_hi c v
            | Expr.Gt | Expr.Ge -> tighten_lo c v
            | _ -> ())
         | Expr.Bin (op, Expr.Lit v, Expr.Col c) when not (Catalog.Value.is_null v) ->
           (match op with
            | Expr.Eq -> set_eq c v
            | Expr.Gt | Expr.Ge -> tighten_hi c v
            | Expr.Lt | Expr.Le -> tighten_lo c v
            | _ -> ())
         | _ -> ())
      conjs;
    (* strictness refinement: treat < and > as <=/>= for the emptiness test,
       except when the bounds touch and either side is strict *)
    let strict_pairs = Hashtbl.create 8 in
    List.iter
      (fun conj ->
         match conj with
         | Expr.Bin (Expr.Lt, Expr.Col c, Expr.Lit _) | Expr.Bin (Expr.Gt, Expr.Lit _, Expr.Col c) ->
           Hashtbl.replace strict_pairs (c, `Hi) ()
         | Expr.Bin (Expr.Gt, Expr.Col c, Expr.Lit _) | Expr.Bin (Expr.Lt, Expr.Lit _, Expr.Col c) ->
           Hashtbl.replace strict_pairs (c, `Lo) ()
         | _ -> ())
      conjs;
    Hashtbl.iter
      (fun c (lo, hi, eq) ->
         (match lo, hi with
          | Some l, Some h ->
            let cmp = Catalog.Value.compare l h in
            if cmp > 0 then conflict := true
            else if cmp = 0
                 && (Hashtbl.mem strict_pairs (c, `Lo) || Hashtbl.mem strict_pairs (c, `Hi))
            then conflict := true
          | _ -> ());
         (match eq, lo with
          | Some v, Some l when Catalog.Value.compare v l < 0 -> conflict := true
          | _ -> ());
         (match eq, hi with
          | Some v, Some h when Catalog.Value.compare v h > 0 -> conflict := true
          | _ -> ()))
      ranges;
    !conflict
  end

let rec detect_contradictions t =
  let t = mk t.op (List.map detect_contradictions t.children) in
  let empty_of t = mk (Empty (output_cols t)) [] in
  match t.op, t.children with
  | Select p, [ child ] ->
    if contradictory (Expr.conjuncts p) then empty_of t
    else (match child.op with Empty _ -> empty_of t | _ -> t)
  | Join { kind; pred }, [ l; r ] ->
    let l_empty = (match l.op with Empty _ -> true | _ -> false) in
    let r_empty = (match r.op with Empty _ -> true | _ -> false) in
    let pred_contra =
      (match kind with
       | Inner | Cross | Semi -> contradictory (Expr.conjuncts pred)
       | Anti_semi | Left_outer -> false)
    in
    (match kind with
     | Inner | Cross ->
       if l_empty || r_empty || pred_contra then empty_of t else t
     | Semi -> if l_empty || r_empty || pred_contra then empty_of t else t
     | Anti_semi -> if l_empty then empty_of t else if r_empty then l else t
     | Left_outer ->
       if l_empty then empty_of t
       else if r_empty then begin
         (* left rows, right columns null-extended *)
         let defs =
           List.map (fun c -> (c, Expr.Col c)) (output_cols l)
           @ List.map (fun c -> (c, Expr.Lit Catalog.Value.Null)) (output_cols r)
         in
         project defs l
       end
       else t)
  | Group_by { keys; _ }, [ child ] ->
    (match child.op, keys with
     | Empty _, _ :: _ -> empty_of t
     | _ -> t) (* scalar aggregate over empty input still yields one row *)
  | Union_all, [ l; r ] ->
    (match l.op, r.op with
     | Empty _, Empty _ -> empty_of t
     | Empty _, _ -> r   (* right branch is already projected onto the union's ids *)
     | _, Empty _ -> l
     | _ -> t)
  | _ -> t

(* -- 4b. semi-join relocation (paper §4, DSQL steps 0-1 of Q20) --

   Two rules that together let a selective semi-join filter reach the fact
   table early, producing Fig. 7's shape where part filters lineitem before
   the aggregation:

   S3 (semi-join through group-by):
     semijoin_p(GB_{keys}(X), Y) -> GB_{keys}(semijoin_p(X, Y))
     valid when p's left-side columns are all group-by keys.

   S2 (semi-join transfer across an inner-join equality):
     innerjoin_P(semijoin_Q(A, B), C)
       -> innerjoin_P(semijoin_Q(A, B), semijoin_Q'(C, B))
     where Q' rewrites Q's A-side columns to their P-equivalent C-side
     columns. The added filter is implied (transitivity), so the rewrite is
     always sound; we guard it to selective filtered-base-table B's to avoid
     duplicating heavy subtrees. *)

let rec small_filtered_base t =
  match t.op, t.children with
  | Get _, _ -> true
  | (Select _ | Project _), [ c ] -> small_filtered_base c
  | _ -> false

(* S3 *)
let rec push_semi_through_gb t =
  let t = mk t.op (List.map push_semi_through_gb t.children) in
  match t.op, t.children with
  | Join { kind = (Semi | Anti_semi) as kind; pred }, [ l; r ] ->
    (match l.op, l.children with
     | Group_by { keys; _ }, [ x ] ->
       let left_refs =
         Registry.Col_set.inter (Expr.cols pred) (output_col_set l)
       in
       if Registry.Col_set.subset left_refs (Registry.Col_set.of_list keys) then
         mk l.op [ mk (Join { kind; pred }) [ x; r ] ]
       else t
     | _ -> t)
  | _ -> t

(* S2 *)
let rec transfer_semi t =
  let t = mk t.op (List.map transfer_semi t.children) in
  match t.op, t.children with
  | Join { kind = Inner; pred }, [ l; r ] ->
    let try_transfer semi_side other ~semi_on_left =
      match semi_side.op, semi_side.children with
      | Join { kind = Semi; pred = q }, [ a; b ] when small_filtered_base b ->
        (* already transferred? detect an existing semijoin(other, b). *)
        let already =
          match other.op, other.children with
          | Join { kind = Semi; _ }, [ _; b' ] -> b' = b
          | Group_by _, [ { op = Join { kind = Semi; _ }; children = [ _; b' ] } ] -> b' = b
          | _ -> false
        in
        if already then None
        else begin
          let a_cols = output_col_set a and other_cols = output_col_set other in
          let equiv =
            List.filter_map
              (fun (x, y) ->
                 if Registry.Col_set.mem x a_cols && Registry.Col_set.mem y other_cols
                 then Some (x, y)
                 else if Registry.Col_set.mem y a_cols && Registry.Col_set.mem x other_cols
                 then Some (y, x)
                 else None)
              (Expr.equi_pairs pred)
          in
          if equiv = [] then None
          else begin
            let q_left_refs = Registry.Col_set.inter (Expr.cols q) a_cols in
            let mappable =
              Registry.Col_set.for_all
                (fun c -> List.mem_assoc c equiv)
                q_left_refs
            in
            if not mappable || Registry.Col_set.is_empty q_left_refs then None
            else begin
              let q' =
                Expr.map_cols
                  (fun c ->
                     match List.assoc_opt c equiv with
                     | Some c' -> Expr.Col c'
                     | None -> Expr.Col c)
                  q
              in
              let other' = mk (Join { kind = Semi; pred = q' }) [ other; b ] in
              let children =
                if semi_on_left then [ semi_side; other' ] else [ other'; semi_side ]
              in
              Some (mk (Join { kind = Inner; pred }) children)
            end
          end
        end
      | _ -> None
    in
    (match try_transfer l r ~semi_on_left:true with
     | Some t' -> t'
     | None ->
       (match try_transfer r l ~semi_on_left:false with
        | Some t' -> t'
        | None -> t))
  | _ -> t

(* -- 5. redundant join elimination -- *)

(* Eliminate [L inner-join Get(T)] when the predicate is exactly an equality
   of a left column against T's declared single-column primary key, the left
   column is declared as a foreign key referencing T, and no column of T is
   referenced above the join. Validity relies on declared referential
   integrity and non-null FKs, which hold for the TPC-H substrate. *)

let rec eliminate_joins reg shell required t =
  match t.op, t.children with
  | Join { kind = Inner; pred }, [ l0; r0 ] ->
    let pred_cols = Expr.cols pred in
    let l = eliminate_joins reg shell (Registry.Col_set.union required pred_cols) l0 in
    let r = eliminate_joins reg shell (Registry.Col_set.union required pred_cols) r0 in
    let try_drop (keep : Relop.t) (drop : Relop.t) =
      match drop.op with
      | Get { table; cols; _ } ->
        (match Catalog.Shell_db.find shell table with
         | None -> None
         | Some tbl ->
           let schema = tbl.Catalog.Shell_db.schema in
           let drop_cols = output_col_set drop in
           (* no dropped column may be needed above the join *)
           if not (Registry.Col_set.is_empty (Registry.Col_set.inter required drop_cols))
           then None
           else
             match Expr.conjuncts pred with
             | [ Expr.Bin (Expr.Eq, Expr.Col a, Expr.Col b) ] ->
               let keep_col, drop_col =
                 if Registry.Col_set.mem a drop_cols then (b, a) else (a, b)
               in
               if not (Registry.Col_set.mem drop_col drop_cols) then None
               else begin
                 (* drop_col must be the dropped table's single-column PK *)
                 let pos = ref (-1) in
                 Array.iteri (fun i c -> if c = drop_col then pos := i) cols;
                 if !pos < 0 then None
                 else
                   let col_def = schema.Catalog.Schema.columns.(!pos) in
                   let pk_cols =
                     Array.to_list schema.Catalog.Schema.columns
                     |> List.filter (fun c -> c.Catalog.Schema.is_pk)
                   in
                   if not (col_def.Catalog.Schema.is_pk && List.length pk_cols = 1)
                   then None
                   else
                     (* keep_col must be a declared FK referencing that PK *)
                     match (Registry.info reg keep_col).Registry.source with
                     | Registry.Base { table = kt; column = kc; _ } ->
                       (match Catalog.Shell_db.find shell kt with
                        | None -> None
                        | Some ktbl ->
                          (match Catalog.Schema.find_col ktbl.Catalog.Shell_db.schema kc with
                           | None -> None
                           | Some ki ->
                             let kdef = ktbl.Catalog.Shell_db.schema.Catalog.Schema.columns.(ki) in
                             (match kdef.Catalog.Schema.references with
                              | Some (rt, rc)
                                when String.lowercase_ascii rt = String.lowercase_ascii table
                                  && String.lowercase_ascii rc
                                     = String.lowercase_ascii col_def.Catalog.Schema.col_name
                                  && not kdef.Catalog.Schema.nullable ->
                                Some keep
                              | _ -> None)))
                     | Registry.Derived _ -> None
               end
             | _ -> None)
      | _ -> None
    in
    (match try_drop l r with
     | Some kept -> kept
     | None ->
       (match try_drop r l with
        | Some kept -> kept
        | None -> mk t.op [ l; r ]))
  | _, _ ->
    let required' = Registry.Col_set.union required (local_refs t) in
    mk t.op (List.map (eliminate_joins reg shell required') t.children)

(** Full normalization pipeline. Each rewrite pass that changes the tree
    bumps its [normalize.rule.<name>] counter on [obs]. *)
let normalize ?(obs = Obs.null) ?(eliminate = true) (reg : Registry.t)
    (shell : Catalog.Shell_db.t) (t : Relop.t) : Relop.t =
  let pass name f t =
    let t' = f t in
    if t' <> t then Obs.add obs ("normalize.rule." ^ name) 1;
    t'
  in
  let t = pass "fold_constants" fold_tree t in
  let t = pass "factor_disjunction" factor_tree t in
  let t = pass "push_predicates" (fun t -> push t []) t in
  let t = pass "imply_disjunction" (fun t -> push ~imply:true t []) t in
  let t = pass "derive_predicates" close_region t in
  (* place newly derived predicates deeply *)
  let t = pass "push_predicates" (fun t -> push t []) t in
  let t = pass "transfer_semijoin" transfer_semi t in
  let t = pass "semijoin_through_groupby" push_semi_through_gb t in
  let t = pass "push_predicates" (fun t -> push t []) t in
  let t = pass "fold_constants" fold_tree t in
  let t = pass "detect_contradictions" detect_contradictions t in
  let t =
    if eliminate then
      pass "eliminate_joins"
        (eliminate_joins reg shell (Registry.Col_set.of_list (output_cols t)))
        t
    else t
  in
  t
