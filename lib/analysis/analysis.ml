(** Abstract-interpretation plan analyzer (DESIGN.md §12): typed-expression
    checking, an interval/null abstract domain per column, and per-node
    cardinality bounds with contradiction detection.

    Every derivation is an over-approximation of the exact query semantics
    on any database consistent with the shell catalog (whose min/max/null
    statistics the simulator computes exactly from the loaded data); the
    optimizer's own estimates are never trusted. *)

open Catalog
open Algebra

(* ===================== typed expressions ===================== *)

type ty = { base : Types.t option; nullable : bool }

type type_error = { expr : string; reason : string }

let top_ty = { base = None; nullable = true }

let base_str = function
  | Some t -> Types.to_string t
  | None -> "null"

(* Render an expression defensively: registry lookups may fail on corrupt
   plans, which is exactly when we are producing an error message. *)
let estr reg e = try Expr.to_string reg e with Invalid_argument _ -> "<expr>"

let numeric_base = function
  | Some (Types.Tstring | Types.Tbool) -> false
  | Some (Types.Tint | Types.Tfloat | Types.Tdate) | None -> true

let compatible_base a b =
  match a, b with
  | None, _ | _, None -> true
  | Some x, Some y -> Types.compatible x y

(* Bottom-up type inference with error collection. Ill-typed subterms
   degrade to [top_ty] so one mistake reports once, not transitively. *)
let rec infer_acc reg errs (e : Expr.t) : ty =
  let err fmt =
    Printf.ksprintf
      (fun reason -> errs := { expr = estr reg e; reason } :: !errs)
      fmt
  in
  let sub x = infer_acc reg errs x in
  match e with
  | Expr.Col c ->
    (try { base = Some (Registry.ty reg c); nullable = true }
     with Invalid_argument _ ->
       err "reference to unknown column #%d" c;
       top_ty)
  | Expr.Lit Value.Null -> { base = None; nullable = true }
  | Expr.Lit v -> { base = Value.type_of v; nullable = false }
  | Expr.Bin (((Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Mod) as op), a, b) ->
    let ta = sub a and tb = sub b in
    if not (numeric_base ta.base) then
      err "arithmetic over %s operand %s" (base_str ta.base) (estr reg a);
    if not (numeric_base tb.base) then
      err "arithmetic over %s operand %s" (base_str tb.base) (estr reg b);
    let date t = t.base = Some Types.Tdate in
    let base =
      match op with
      | Expr.Div -> Some Types.Tfloat
      | Expr.Mod -> Some Types.Tint
      | Expr.Add | Expr.Sub ->
        if date ta && date tb then Some Types.Tint (* day difference *)
        else if date ta || date tb then Some Types.Tdate
        else if ta.base = Some Types.Tfloat || tb.base = Some Types.Tfloat then
          Some Types.Tfloat
        else Some Types.Tint
      | _ ->
        if ta.base = Some Types.Tfloat || tb.base = Some Types.Tfloat then
          Some Types.Tfloat
        else Some Types.Tint
    in
    { base;
      nullable =
        ta.nullable || tb.nullable || op = Expr.Div || op = Expr.Mod }
  | Expr.Bin (((Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as _op), a, b) ->
    let ta = sub a and tb = sub b in
    if not (compatible_base ta.base tb.base) then
      err "comparison between incompatible types %s and %s" (base_str ta.base)
        (base_str tb.base);
    { base = Some Types.Tbool; nullable = ta.nullable || tb.nullable }
  | Expr.Bin ((Expr.And | Expr.Or), a, b) ->
    let ta = sub a and tb = sub b in
    let bool_side s t =
      match t.base with
      | Some Types.Tbool | None -> ()
      | Some other ->
        err "logical operand %s has type %s" (estr reg s) (Types.to_string other)
    in
    bool_side a ta;
    bool_side b tb;
    { base = Some Types.Tbool; nullable = ta.nullable || tb.nullable }
  | Expr.Un (Expr.Neg, a) ->
    let ta = sub a in
    if not (numeric_base ta.base) then
      err "negation of %s operand %s" (base_str ta.base) (estr reg a);
    { ta with base = (match ta.base with Some Types.Tfloat -> ta.base | _ -> Some Types.Tint) }
  | Expr.Un (Expr.Not, a) ->
    let ta = sub a in
    (match ta.base with
     | Some Types.Tbool | None -> ()
     | Some other -> err "NOT over type %s" (Types.to_string other));
    { base = Some Types.Tbool; nullable = ta.nullable }
  | Expr.Is_null (a, _) ->
    ignore (sub a);
    { base = Some Types.Tbool; nullable = false }
  | Expr.Like (a, _, _) ->
    let ta = sub a in
    (match ta.base with
     | Some Types.Tstring | None -> ()
     | Some other -> err "LIKE over type %s" (Types.to_string other));
    { base = Some Types.Tbool; nullable = ta.nullable }
  | Expr.In_list (a, items, _) ->
    let ta = sub a in
    List.iter
      (fun v ->
         if not (compatible_base ta.base (Value.type_of v)) then
           err "IN list item %s incompatible with type %s" (Value.to_string v)
             (base_str ta.base))
      items;
    { base = Some Types.Tbool; nullable = ta.nullable }
  | Expr.Case (branches, else_) ->
    let vts =
      List.map
        (fun (cond, v) ->
           let tc = sub cond in
           (match tc.base with
            | Some Types.Tbool | None -> ()
            | Some other -> err "CASE condition has type %s" (Types.to_string other));
           sub v)
        branches
    in
    let vts = vts @ (match else_ with Some e -> [ sub e ] | None -> []) in
    let base =
      List.fold_left
        (fun acc t ->
           match acc, t.base with
           | None, b -> b
           | b, None -> b
           | Some x, Some y ->
             if not (Types.compatible x y) then
               err "CASE branches mix types %s and %s" (Types.to_string x)
                 (Types.to_string y);
             if x = Types.Tfloat || y = Types.Tfloat then Some Types.Tfloat
             else Some x)
        None vts
    in
    { base;
      nullable = else_ = None || List.exists (fun t -> t.nullable) vts }
  | Expr.Func (f, args) ->
    let tas = List.map sub args in
    let arity n = if List.length args <> n then err "wrong arity for %s" (Expr.string_of_func f) in
    let expect i want =
      match List.nth_opt tas i with
      | Some t when not (compatible_base t.base (Some want)) ->
        err "%s argument %d has type %s, expected %s" (Expr.string_of_func f)
          (i + 1) (base_str t.base) (Types.to_string want)
      | _ -> ()
    in
    let nullable = List.exists (fun t -> t.nullable) tas in
    (match f with
     | Expr.F_dateadd_year | Expr.F_dateadd_month | Expr.F_dateadd_day ->
       arity 2; expect 0 Types.Tint; expect 1 Types.Tdate;
       { base = Some Types.Tdate; nullable }
     | Expr.F_year ->
       arity 1; expect 0 Types.Tdate;
       { base = Some Types.Tint; nullable }
     | Expr.F_substring ->
       arity 3; expect 0 Types.Tstring; expect 1 Types.Tint; expect 2 Types.Tint;
       { base = Some Types.Tstring; nullable }
     | Expr.F_abs ->
       arity 1;
       (match tas with
        | [ t ] when not (numeric_base t.base) ->
          err "ABS over type %s" (base_str t.base)
        | _ -> ());
       { base = (match tas with [ t ] -> t.base | _ -> None); nullable })
  | Expr.Cast (a, ty) ->
    let ta = sub a in
    { base = Some ty; nullable = ta.nullable }

let infer_ty reg e =
  let errs = ref [] in
  infer_acc reg errs e

let check_expr reg e =
  let errs = ref [] in
  ignore (infer_acc reg errs e);
  List.rev !errs

(* A predicate position: type errors of the expression, plus it must be
   boolean. *)
let check_pred reg e =
  let errs = ref [] in
  let t = infer_acc reg errs e in
  (match t.base with
   | Some Types.Tbool | None -> ()
   | Some other ->
     errs :=
       { expr = estr reg e;
         reason = Printf.sprintf "predicate has type %s, expected bool" (Types.to_string other) }
       :: !errs);
  List.rev !errs

let declared_compat reg id (t : ty) what =
  match (try Some (Registry.ty reg id) with Invalid_argument _ -> None) with
  | None ->
    [ { expr = Printf.sprintf "#%d" id;
        reason = Printf.sprintf "%s writes to unknown column #%d" what id } ]
  | Some want ->
    if compatible_base (Some want) t.base then []
    else
      [ { expr = (try Registry.label reg id with Invalid_argument _ -> Printf.sprintf "#%d" id);
          reason =
            Printf.sprintf "%s of type %s assigned to column declared %s" what
              (base_str t.base) (Types.to_string want) } ]

let check_agg reg (a : Expr.agg_def) =
  let errs = ref [] in
  let arg_ty =
    match a.Expr.agg_arg with
    | None -> top_ty
    | Some e -> infer_acc reg errs e
  in
  let name = Expr.string_of_agg a.Expr.agg_func in
  (match a.Expr.agg_func with
   | Expr.Sum | Expr.Avg ->
     (match arg_ty.base with
      | Some (Types.Tint | Types.Tfloat) | None -> ()
      | Some other ->
        errs :=
          { expr =
              (match a.Expr.agg_arg with Some e -> estr reg e | None -> name);
            reason = Printf.sprintf "%s over non-numeric type %s" name (Types.to_string other) }
          :: !errs)
   | Expr.Count_star | Expr.Count | Expr.Min | Expr.Max -> ());
  let out_ty =
    match a.Expr.agg_func with
    | Expr.Count_star | Expr.Count -> { base = Some Types.Tint; nullable = false }
    | Expr.Avg -> { base = Some Types.Tfloat; nullable = true }
    | Expr.Sum | Expr.Min | Expr.Max -> { arg_ty with nullable = true }
  in
  List.rev !errs @ declared_compat reg a.Expr.agg_out out_ty name

let check_key reg k =
  match (try Some (Registry.ty reg k) with Invalid_argument _ -> None) with
  | Some _ -> []
  | None ->
    [ { expr = Printf.sprintf "#%d" k;
        reason = Printf.sprintf "grouping key is unknown column #%d" k } ]

let check_physop reg (op : Memo.Physop.t) : type_error list =
  match op with
  | Memo.Physop.Table_scan _ | Memo.Physop.Union_op | Memo.Physop.Const_empty _ -> []
  | Memo.Physop.Filter p -> check_pred reg p
  | Memo.Physop.Compute defs ->
    List.concat_map
      (fun (id, e) ->
         let errs = ref [] in
         let t = infer_acc reg errs e in
         List.rev !errs @ declared_compat reg id t "computed expression")
      defs
  | Memo.Physop.Hash_join { pred; _ }
  | Memo.Physop.Merge_join { pred; _ }
  | Memo.Physop.Nl_join { pred; _ } -> check_pred reg pred
  | Memo.Physop.Hash_agg { keys; aggs } | Memo.Physop.Stream_agg { keys; aggs } ->
    List.concat_map (check_key reg) keys @ List.concat_map (check_agg reg) aggs
  | Memo.Physop.Sort_op { keys; _ } ->
    List.concat_map (fun k -> check_expr reg k.Relop.key) keys

let check_temp_cols reg (cols : (int * string) list) : type_error list =
  let errs = ref [] in
  let seen : (string, Types.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (id, nm) ->
       match (try Some (Registry.ty reg id) with Invalid_argument _ -> None) with
       | None ->
         errs :=
           { expr = nm; reason = Printf.sprintf "temp column %s maps to unknown column #%d" nm id }
           :: !errs
       | Some t ->
         (match Hashtbl.find_opt seen nm with
          | Some prev when not (Types.compatible prev t) ->
            errs :=
              { expr = nm;
                reason =
                  Printf.sprintf "temp column %s emitted with conflicting types %s and %s" nm
                    (Types.to_string prev) (Types.to_string t) }
              :: !errs
          | Some _ -> ()
          | None -> Hashtbl.add seen nm t))
    cols;
  List.rev !errs

(* ===================== interval domain ===================== *)

type iv = {
  lo : Value.t option;
  hi : Value.t option;
  nullable : bool;
  valued : bool;
}

let top_iv = { lo = None; hi = None; nullable = true; valued = true }

let vmin a b = if Value.compare a b <= 0 then a else b
let vmax a b = if Value.compare a b >= 0 then a else b

(* An interval whose endpoints cross holds no value. *)
let norm_iv iv =
  match iv.lo, iv.hi with
  | Some l, Some h when Value.compare l h > 0 -> { iv with valued = false }
  | _ -> iv

let meet_iv a b =
  norm_iv
    { lo =
        (match a.lo, b.lo with
         | Some x, Some y -> Some (vmax x y)
         | (Some _ as s), None | None, (Some _ as s) -> s
         | None, None -> None);
      hi =
        (match a.hi, b.hi with
         | Some x, Some y -> Some (vmin x y)
         | (Some _ as s), None | None, (Some _ as s) -> s
         | None, None -> None);
      nullable = a.nullable && b.nullable;
      valued = a.valued && b.valued }

let join_iv a b =
  { lo = (match a.lo, b.lo with Some x, Some y -> Some (vmin x y) | _ -> None);
    hi = (match a.hi, b.hi with Some x, Some y -> Some (vmax x y) | _ -> None);
    nullable = a.nullable || b.nullable;
    valued = a.valued || b.valued }

let iv_to_string iv =
  if not iv.valued && iv.nullable then "NULL"
  else if not iv.valued then "(none)"
  else
    Printf.sprintf "[%s, %s]%s"
      (match iv.lo with Some v -> Value.to_string v | None -> "-inf")
      (match iv.hi with Some v -> Value.to_string v | None -> "+inf")
      (if iv.nullable then "?" else "")

type env = { ivs : iv Registry.Col_map.t; lo : float; hi : float }

let top_env = { ivs = Registry.Col_map.empty; lo = 0.; hi = Float.infinity }

let is_empty env = env.hi <= 0.

let bottom env = { env with lo = 0.; hi = 0. }

let lookup env c =
  match Registry.Col_map.find_opt c env.ivs with Some iv -> iv | None -> top_iv

let set_iv env c iv = { env with ivs = Registry.Col_map.add c iv env.ivs }

let meet_env a b =
  { ivs =
      Registry.Col_map.merge
        (fun _ x y ->
           match x, y with
           | Some x, Some y -> Some (meet_iv x y)
           | (Some _ as s), None | None, (Some _ as s) -> s
           | None, None -> None)
        a.ivs b.ivs;
    lo = Float.max a.lo b.lo;
    hi = Float.min a.hi b.hi }

(* Join of two refinements of the same base env (an OR's branches): keep
   only constraints established by both. *)
let join_env a b =
  if is_empty a then b
  else if is_empty b then a
  else
    { ivs =
        Registry.Col_map.merge
          (fun _ x y ->
             match x, y with Some x, Some y -> Some (join_iv x y) | _ -> None)
          a.ivs b.ivs;
      lo = Float.min a.lo b.lo;
      hi = Float.max a.hi b.hi }

(* ===================== abstract evaluation ===================== *)

let num_endpoint = function
  | (Value.Int _ | Value.Float _ | Value.Date _) as v -> Some (Value.to_float v)
  | Value.Bool _ | Value.String _ | Value.Null -> None

let is_date_iv (iv : iv) =
  match iv.lo, iv.hi with
  | Some (Value.Date _), _ | _, Some (Value.Date _) -> true
  | _ -> false

(* Float endpoints; [None] = unbounded (or non-numeric, widened away). *)
let f_lo (iv : iv) = Option.bind iv.lo num_endpoint
let f_hi (iv : iv) = Option.bind iv.hi num_endpoint

let opt2 f a b = match a, b with Some x, Some y -> Some (f x y) | _ -> None

let bool_top ~nullable =
  { lo = Some (Value.Bool false); hi = Some (Value.Bool true); nullable; valued = true }

let rec aeval env (e : Expr.t) : iv =
  match e with
  | Expr.Col c -> lookup env c
  | Expr.Lit Value.Null -> { lo = None; hi = None; nullable = true; valued = false }
  | Expr.Lit v -> { lo = Some v; hi = Some v; nullable = false; valued = true }
  | Expr.Un (Expr.Neg, a) ->
    let x = aeval env a in
    { lo = Option.map (fun v -> Value.Float (-.v)) (f_hi x);
      hi = Option.map (fun v -> Value.Float (-.v)) (f_lo x);
      nullable = x.nullable;
      valued = x.valued }
  | Expr.Un (Expr.Not, a) -> bool_top ~nullable:(aeval env a).nullable
  | Expr.Bin (((Expr.Add | Expr.Sub | Expr.Mul) as op), a, b) ->
    let x = aeval env a and y = aeval env b in
    let lo, hi =
      match op with
      | Expr.Add -> (opt2 ( +. ) (f_lo x) (f_lo y), opt2 ( +. ) (f_hi x) (f_hi y))
      | Expr.Sub -> (opt2 ( -. ) (f_lo x) (f_hi y), opt2 ( -. ) (f_hi x) (f_lo y))
      | _ ->
        (match f_lo x, f_hi x, f_lo y, f_hi y with
         | Some xl, Some xh, Some yl, Some yh ->
           let ps = [ xl *. yl; xl *. yh; xh *. yl; xh *. yh ] in
           ( Some (List.fold_left Float.min (List.hd ps) ps),
             Some (List.fold_left Float.max (List.hd ps) ps) )
         | _ -> (None, None))
    in
    let as_date =
      match op with
      | Expr.Add -> is_date_iv x <> is_date_iv y
      | Expr.Sub -> is_date_iv x && not (is_date_iv y)
      | _ -> false
    in
    let mk round v = if as_date then Value.Date (int_of_float (round v)) else Value.Float v in
    { lo = Option.map (mk Float.floor) lo;
      hi = Option.map (mk Float.ceil) hi;
      nullable = x.nullable || y.nullable;
      valued = x.valued && y.valued }
  | Expr.Bin ((Expr.Div | Expr.Mod), a, b) ->
    let x = aeval env a and y = aeval env b in
    { lo = None; hi = None; nullable = true; valued = x.valued && y.valued }
  | Expr.Bin ((Expr.And | Expr.Or), a, b) ->
    bool_top ~nullable:((aeval env a).nullable || (aeval env b).nullable)
  | Expr.Bin (_, a, b) ->
    (* comparison *)
    bool_top ~nullable:((aeval env a).nullable || (aeval env b).nullable)
  | Expr.Is_null (_, _) -> bool_top ~nullable:false
  | Expr.Like (a, _, _) -> bool_top ~nullable:(aeval env a).nullable
  | Expr.In_list (a, _, _) -> bool_top ~nullable:(aeval env a).nullable
  | Expr.Case (branches, else_) ->
    let vs = List.map (fun (_, v) -> aeval env v) branches in
    let vs = vs @ (match else_ with Some e -> [ aeval env e ] | None -> []) in
    let hull =
      match vs with
      | [] -> top_iv
      | first :: rest -> List.fold_left join_iv first rest
    in
    if else_ = None then { hull with nullable = true } else hull
  | Expr.Func (f, args) -> func_iv env f args
  | Expr.Cast (a, ty) ->
    let x = aeval env a in
    let numeric_endpoints =
      match x.lo, x.hi with
      | (Some (Value.Int _ | Value.Float _) | None), (Some (Value.Int _ | Value.Float _) | None) ->
        true
      | _ -> false
    in
    (match ty with
     | Types.Tint | Types.Tfloat when numeric_endpoints -> x
     | Types.Tdate when is_date_iv x || (x.lo = None && x.hi = None) -> x
     | _ -> { top_iv with nullable = true; valued = x.valued })

and func_iv env f args =
  match f, args with
  | Expr.F_abs, [ a ] ->
    let x = aeval env a in
    let lo =
      match f_lo x, f_hi x with
      | Some l, _ when l >= 0. -> Some l
      | _, Some h when h <= 0. -> Some (-.h)
      | _ -> Some 0.
    in
    let hi =
      match f_lo x, f_hi x with
      | Some l, Some h -> Some (Float.max (Float.abs l) (Float.abs h))
      | _ -> None
    in
    { lo = Option.map (fun v -> Value.Float v) lo;
      hi = Option.map (fun v -> Value.Float v) hi;
      nullable = x.nullable;
      valued = x.valued }
  | Expr.F_year, [ a ] ->
    let x = aeval env a in
    let year = function Some (Value.Date d) -> Some (Value.Int (Value.year_of d)) | _ -> None in
    { lo = year x.lo; hi = year x.hi; nullable = x.nullable; valued = x.valued }
  | (Expr.F_dateadd_year | Expr.F_dateadd_month | Expr.F_dateadd_day), [ Expr.Lit (Value.Int n); d ] ->
    let x = aeval env d in
    let shift = function
      | Some (Value.Date z) ->
        Some
          (Value.Date
             (match f with
              | Expr.F_dateadd_year -> Value.add_years z n
              | Expr.F_dateadd_month -> Value.add_months z n
              | _ -> z + n))
      | _ -> None
    in
    (* add_years/add_months/(+) are monotone in the date argument *)
    { lo = shift x.lo; hi = shift x.hi; nullable = x.nullable; valued = x.valued }
  | _ -> top_iv

(* ===================== predicate refinement ===================== *)

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

let cmp_of = function
  | Expr.Eq -> Some Ceq
  | Expr.Ne -> Some Cne
  | Expr.Lt -> Some Clt
  | Expr.Le -> Some Cle
  | Expr.Gt -> Some Cgt
  | Expr.Ge -> Some Cge
  | _ -> None

let flip = function
  | Ceq -> Ceq
  | Cne -> Cne
  | Clt -> Cgt
  | Cle -> Cge
  | Cgt -> Clt
  | Cge -> Cle

(* Can [a op b] hold for some non-null pair drawn from the two intervals?
   Closed-interval over-approximation: strict bounds are widened, so "no"
   answers are definitive. *)
let sat op a b =
  if not (a.valued && b.valued) then false
  else
    let le x y = Value.compare x y <= 0 in
    let lt x y = Value.compare x y < 0 in
    match op with
    | Ceq ->
      (match a.lo, b.hi with Some l, Some h when not (le l h) -> false | _ -> true)
      && (match b.lo, a.hi with Some l, Some h when not (le l h) -> false | _ -> true)
    | Cne ->
      not
        (match a.lo, a.hi, b.lo, b.hi with
         | Some al, Some ah, Some bl, Some bh ->
           Value.equal al ah && Value.equal bl bh && Value.equal al bl
         | _ -> false)
    | Clt -> (match a.lo, b.hi with Some l, Some h -> lt l h | _ -> true)
    | Cle -> (match a.lo, b.hi with Some l, Some h -> le l h | _ -> true)
    | Cgt -> (match a.hi, b.lo with Some h, Some l -> lt l h | _ -> true)
    | Cge -> (match a.hi, b.lo with Some h, Some l -> le l h | _ -> true)

(* Constraint [c op rhs] contributes to column [c]'s interval. A satisfied
   comparison also proves the column non-null (SQL 3VL: NULL never passes
   a WHERE). *)
let constrain env c op (rhs : iv) =
  let iv = lookup env c in
  let bound =
    match op with
    | Ceq -> { top_iv with lo = rhs.lo; hi = rhs.hi }
    | Clt | Cle -> { top_iv with hi = rhs.hi }
    | Cgt | Cge -> { top_iv with lo = rhs.lo }
    | Cne -> top_iv
  in
  let iv' = { (meet_iv iv bound) with nullable = false } in
  if not iv'.valued then bottom env else set_iv env c iv'

let rec refine env pred =
  List.fold_left refine1 env (Expr.conjuncts pred)

and refine1 env c =
  if is_empty env then env
  else
    match c with
    | Expr.Lit (Value.Bool true) -> env
    | Expr.Lit (Value.Bool false) | Expr.Lit Value.Null -> bottom env
    | Expr.Bin (Expr.Or, a, b) -> join_env (refine env a) (refine env b)
    | Expr.Bin (op, a, b) ->
      (match cmp_of op with
       | None -> env
       | Some op ->
         let iva = aeval env a and ivb = aeval env b in
         if not (sat op iva ivb) then bottom env
         else
           let env = match a with Expr.Col ca -> constrain env ca op ivb | _ -> env in
           if is_empty env then env
           else (match b with Expr.Col cb -> constrain env cb (flip op) iva | _ -> env))
    | Expr.Is_null (Expr.Col c, false) ->
      let iv = lookup env c in
      if not iv.nullable then bottom env
      else set_iv env c { lo = None; hi = None; nullable = true; valued = false }
    | Expr.Is_null (Expr.Col c, true) ->
      let iv = lookup env c in
      if not iv.valued then bottom env else set_iv env c { iv with nullable = false }
    | Expr.In_list (Expr.Col c, items, false) ->
      let vals = List.filter (fun v -> not (Value.is_null v)) items in
      (match vals with
       | [] -> bottom env
       | first :: rest ->
         let lo = List.fold_left vmin first rest and hi = List.fold_left vmax first rest in
         constrain env c Ceq { lo = Some lo; hi = Some hi; nullable = false; valued = true })
    | _ -> env

(* ===================== transfer functions ===================== *)

type ctx = { shell : Shell_db.t; reg : Registry.t; nodes : int }

let context ~shell ~reg ~nodes = { shell; reg; nodes }

(* [infinity *. 0. = nan]; cardinality products must stay well-defined. *)
let mul_hi a b = if a <= 0. || b <= 0. then 0. else a *. b

let union_maps a b =
  Registry.Col_map.union (fun _ x _ -> Some x) a b

let iv_of_stats (cs : Col_stats.t) =
  { lo = cs.Col_stats.min_v;
    hi = cs.Col_stats.max_v;
    nullable = cs.Col_stats.null_frac > 0.;
    valued = cs.Col_stats.min_v <> None }

(* Seed a scan column's interval. The registry's stats can be NDV-only
   after the XML interchange round-trip (Memo_xml serializes ndv, not
   min/max), so prefer the shell catalog reached through the column's base
   source; fall back to registry stats, then top. *)
let seed_col ctx c =
  let reg_fallback () =
    match Registry.stats ctx.reg c with
    | Some cs when cs.Col_stats.min_v <> None || cs.Col_stats.null_frac > 0. ->
      iv_of_stats cs
    | _ -> top_iv
  in
  match (try Some (Registry.info ctx.reg c) with Invalid_argument _ -> None) with
  | Some { Registry.source = Registry.Base { table; column; _ }; _ } ->
    (match Shell_db.find ctx.shell table with
     | Some tbl ->
       (match Shell_db.col_stats tbl column with
        | Some cs -> iv_of_stats cs
        | None -> reg_fallback ())
     | None -> reg_fallback ())
  | _ -> reg_fallback ()

let seed_scan ctx ~table ~cols =
  match Shell_db.find ctx.shell table with
  | None ->
    { ivs =
        Array.fold_left (fun m c -> Registry.Col_map.add c (seed_col ctx c) m)
          Registry.Col_map.empty cols;
      lo = 0.;
      hi = Float.infinity }
  | Some tbl ->
    let rows = Shell_db.row_count tbl in
    { ivs =
        Array.fold_left (fun m c -> Registry.Col_map.add c (seed_col ctx c) m)
          Registry.Col_map.empty cols;
      lo = rows;
      hi = rows }

let group_out ctx keys aggs (c : env) ~partial =
  let agg_iv (a : Expr.agg_def) =
    let arg = match a.Expr.agg_arg with Some e -> aeval c e | None -> top_iv in
    match a.Expr.agg_func with
    | Expr.Count_star | Expr.Count ->
      { lo = Some (Value.Int 0);
        hi = (if Float.is_finite c.hi then Some (Value.Float c.hi) else None);
        nullable = false;
        valued = true }
    | Expr.Avg ->
      { lo = Option.map (fun v -> Value.Float v) (f_lo arg);
        hi = Option.map (fun v -> Value.Float v) (f_hi arg);
        nullable = true;
        valued = arg.valued }
    | Expr.Min | Expr.Max -> { arg with nullable = true }
    | Expr.Sum ->
      let n = c.hi in
      let lo =
        match f_lo arg with
        | Some l when l >= 0. -> Some l (* at least one term, each >= l *)
        | Some l when Float.is_finite n -> Some (n *. l)
        | _ -> None
      in
      let hi =
        match f_hi arg with
        | Some h when h <= 0. -> Some h
        | Some h when Float.is_finite n -> Some (n *. h)
        | _ -> None
      in
      { lo = Option.map (fun v -> Value.Float v) lo;
        hi = Option.map (fun v -> Value.Float v) hi;
        nullable = true;
        valued = arg.valued }
  in
  let ivs =
    List.fold_left (fun m a -> Registry.Col_map.add a.Expr.agg_out (agg_iv a) m) c.ivs aggs
  in
  match keys with
  | [] ->
    (* a scalar aggregate emits a row even over empty input (one per node
       when executed as the partial half of a split) *)
    if partial then { ivs; lo = 1.; hi = float_of_int ctx.nodes }
    else { ivs; lo = 1.; hi = 1. }
  | _ :: _ ->
    if is_empty c then { ivs; lo = 0.; hi = 0. }
    else { ivs; lo = (if c.lo >= 1. then 1. else 0.); hi = c.hi }

let join_out kind pred (l : env) (r : env) =
  match (kind : Relop.join_kind) with
  | Relop.Inner | Relop.Cross ->
    let combined = { ivs = union_maps l.ivs r.ivs; lo = 0.; hi = mul_hi l.hi r.hi } in
    if is_empty l || is_empty r then bottom combined
    else
      let rf = refine combined pred in
      if is_empty rf then bottom rf else { rf with lo = 0.; hi = mul_hi l.hi r.hi }
  | Relop.Semi ->
    let combined = { ivs = union_maps l.ivs r.ivs; lo = 0.; hi = l.hi } in
    if is_empty l || is_empty r then bottom combined
    else
      let rf = refine combined pred in
      if is_empty rf then bottom rf else { rf with lo = 0.; hi = l.hi }
  | Relop.Anti_semi ->
    (* negative information: no refinement from the predicate *)
    if is_empty l then bottom l
    else { l with lo = (if r.hi <= 0. then l.lo else 0.); hi = l.hi }
  | Relop.Left_outer ->
    let rn = Registry.Col_map.map (fun iv -> { iv with nullable = true }) r.ivs in
    let ivs = union_maps l.ivs rn in
    if is_empty l then bottom { l with ivs }
    else { ivs; lo = l.lo; hi = mul_hi l.hi (Float.max 1. r.hi) }

(* Did a filter/join become empty through its predicate rather than through
   an already-empty input? That subtree should have been folded. *)
let pred_contradiction reg kind pred children_envs result =
  let inputs_live = List.for_all (fun e -> not (is_empty e)) children_envs in
  let refutable =
    match kind with
    | `Filter -> true
    | `Join Relop.Inner | `Join Relop.Cross | `Join Relop.Semi -> true
    | `Join _ -> false
  in
  if refutable && inputs_live && is_empty result then Some (estr reg pred) else None

(* Unified operator shapes: logical and physical operators share the same
   abstract semantics. *)
type shape =
  | S_scan of { table : string; cols : int array }
  | S_filter of Expr.t
  | S_project of (int * Expr.t) list
  | S_join of Relop.join_kind * Expr.t
  | S_group of int list * Expr.agg_def list
  | S_sort of int option
  | S_union
  | S_empty

let shape_of_relop (op : Relop.op) =
  match op with
  | Relop.Get { table; cols; _ } -> S_scan { table; cols }
  | Relop.Select p -> S_filter p
  | Relop.Project defs -> S_project defs
  | Relop.Join { kind; pred } -> S_join (kind, pred)
  | Relop.Group_by { keys; aggs } -> S_group (keys, aggs)
  | Relop.Sort { limit; _ } -> S_sort limit
  | Relop.Union_all -> S_union
  | Relop.Empty _ -> S_empty

let shape_of_physop (op : Memo.Physop.t) =
  match op with
  | Memo.Physop.Table_scan { table; cols; _ } -> S_scan { table; cols }
  | Memo.Physop.Filter p -> S_filter p
  | Memo.Physop.Compute defs -> S_project defs
  | Memo.Physop.Hash_join { kind; pred }
  | Memo.Physop.Merge_join { kind; pred }
  | Memo.Physop.Nl_join { kind; pred } -> S_join (kind, pred)
  | Memo.Physop.Hash_agg { keys; aggs } | Memo.Physop.Stream_agg { keys; aggs } ->
    S_group (keys, aggs)
  | Memo.Physop.Sort_op { limit; _ } -> S_sort limit
  | Memo.Physop.Union_op -> S_union
  | Memo.Physop.Const_empty _ -> S_empty

let transfer ctx shape (cs : env list) ~sort_mult ~partial_agg : env =
  match shape, cs with
  | S_scan { table; cols }, _ -> seed_scan ctx ~table ~cols
  | S_filter p, [ c ] ->
    if is_empty c then bottom c
    else
      let r = refine c p in
      if is_empty r then bottom r else { r with lo = 0.; hi = c.hi }
  | S_project defs, [ c ] ->
    { c with
      ivs =
        List.fold_left (fun m (id, e) -> Registry.Col_map.add id (aeval c e) m) c.ivs defs }
  | S_join (kind, pred), [ l; r ] -> join_out kind pred l r
  | S_group (keys, aggs), [ c ] -> group_out ctx keys aggs c ~partial:partial_agg
  | S_sort limit, [ c ] ->
    (match limit with
     | None -> c
     | Some n ->
       let n = float_of_int n in
       { c with lo = Float.min c.lo n; hi = Float.min c.hi (n *. sort_mult) })
  | S_union, [ l; r ] ->
    (* the right input is pre-projected onto the left's column ids *)
    { ivs =
        Registry.Col_map.merge
          (fun _ x y -> match x, y with Some x, Some y -> Some (join_iv x y) | _ -> None)
          l.ivs r.ivs;
      lo = l.lo +. r.lo;
      hi = l.hi +. r.hi }
  | S_empty, _ -> { ivs = Registry.Col_map.empty; lo = 0.; hi = 0. }
  | _, _ -> top_env (* malformed arity: stay sound, claim nothing *)

(* ===================== MEMO-level analysis ===================== *)

(* The meet over every expression of a group: each one is a sound
   over-approximation of the same relation, so their meet is too. It is
   taken over the group's distinct (shape, canonical children) pairs: a
   logical join and its hash, merge and nested-loop variants are one pair,
   a repeat reads the same memoized child envs, and [meet_env] keeps its
   accumulator when met again with a term already in it, so evaluating
   each pair once changes nothing. A group reached again while in progress (a
   recursion back-edge) yields top. Returns the envs and the number of
   transfer evaluations. *)
let analyze_memo ctx (m : Memo.t) : (int, env) Hashtbl.t * int =
  let state : (int, env option) Hashtbl.t = Hashtbl.create 64 in
  let evals = ref 0 in
  let rec genv gid =
    let gid = Memo.find m gid in
    match Hashtbl.find_opt state gid with
    | Some (Some e) -> e
    | Some None -> top_env
    | None ->
      Hashtbl.replace state gid None;
      let seen = Hashtbl.create 16 in
      let acc = ref None in
      let visit shape ch =
        let ch = Array.to_list (Array.map (Memo.find m) ch) in
        if not (Hashtbl.mem seen (ch, shape)) then begin
          Hashtbl.add seen (ch, shape) ();
          incr evals;
          let e = transfer ctx shape (List.map genv ch) ~sort_mult:1. ~partial_agg:false in
          acc := Some (match !acc with None -> e | Some a -> meet_env a e)
        end
      in
      List.iter (fun (l, ch) -> visit (shape_of_relop l) ch) (Memo.logical_exprs m gid);
      List.iter (fun (p, ch) -> visit (shape_of_physop p) ch) (Memo.physical_exprs m gid);
      let e = Option.value !acc ~default:top_env in
      Hashtbl.replace state gid (Some e);
      e
  in
  Memo.iter_groups m (fun g -> ignore (genv g.Memo.gid));
  let out = Hashtbl.create (Hashtbl.length state) in
  Hashtbl.iter (fun gid e -> match e with Some e -> Hashtbl.add out gid e | None -> ()) state;
  (out, !evals)

let memo_env ctx m =
  let envs, _ = analyze_memo ctx m in
  fun gid ->
    match Hashtbl.find_opt envs (Memo.find m gid) with Some e -> e | None -> top_env

let memo_evals ctx m = snd (analyze_memo ctx m)

(* Computed eagerly and sequentially (Memo.find path-compresses, which must
   not race with enumeration workers); the closure only reads an immutable
   array, so it is safe to share across domains. *)
let empty_groups ctx (m : Memo.t) : int -> bool =
  let envs, _ = analyze_memo ctx m in
  let n = Memo.ngroups m in
  let arr = Array.make (Stdlib.max n 1) false in
  for gid = 0 to n - 1 do
    arr.(gid) <-
      (match Hashtbl.find_opt envs (Memo.find m gid) with
       | Some e -> is_empty e
       | None -> false)
  done;
  fun gid -> gid >= 0 && gid < n && arr.(gid)

(* ===================== plan operators ===================== *)

(* Serial operators execute per node: a local TOP under a hashed
   distribution can emit up to [limit] rows on each node, and the partial
   half of an aggregation split emits its groups per node (matching
   Enumerate.split_aggs and the executor's per-node semantics). *)
let physop_transfer ctx (op : Memo.Physop.t) (cenvs : env list) ~dist ~partial_agg =
  let sort_mult =
    match (dist : Dms.Distprop.t) with
    | Dms.Distprop.Hashed _ -> float_of_int ctx.nodes
    | Dms.Distprop.Replicated | Dms.Distprop.Single_node -> 1.
  in
  let out = transfer ctx (shape_of_physop op) cenvs ~sort_mult ~partial_agg in
  let contradiction =
    match op with
    | Memo.Physop.Filter p -> pred_contradiction ctx.reg `Filter p cenvs out
    | Memo.Physop.Hash_join { kind; pred }
    | Memo.Physop.Merge_join { kind; pred }
    | Memo.Physop.Nl_join { kind; pred } ->
      pred_contradiction ctx.reg (`Join kind) pred cenvs out
    | _ -> None
  in
  (out, contradiction)
