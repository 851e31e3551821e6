(** Resolved scalar expressions. Columns are {!Registry} ids. *)

open Catalog

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type unop = Neg | Not

type agg_kind = Count_star | Count | Sum | Avg | Min | Max

type func =
  | F_dateadd_year | F_dateadd_month | F_dateadd_day
  | F_year
  | F_substring
  | F_abs

type t =
  | Col of int
  | Lit of Value.t
  | Bin of binop * t * t
  | Un of unop * t
  | Is_null of t * bool              (** negated? *)
  | Like of t * string * bool        (** negated? *)
  | In_list of t * Value.t list * bool
  | Case of (t * t) list * t option
  | Func of func * t list
  | Cast of t * Types.t

(** Aggregate computed by a group-by operator. *)
type agg_def = {
  agg_out : int;                     (** output column id *)
  agg_func : agg_kind;
  agg_arg : t option;                (** [None] only for COUNT star *)
  agg_distinct : bool;
}

let col c = Col c
let lit v = Lit v
let eq a b = Bin (Eq, a, b)
let and_ a b = Bin (And, a, b)

let rec conjuncts = function
  | Bin (And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> Lit (Value.Bool true)
  | e :: rest -> List.fold_left and_ e rest

let conjoin_opt = function
  | [] -> None
  | l -> Some (conjoin l)

let rec disjuncts = function
  | Bin (Or, a, b) -> disjuncts a @ disjuncts b
  | e -> [ e ]

let disjoin = function
  | [] -> Lit (Value.Bool false)
  | e :: rest -> List.fold_left (fun acc d -> Bin (Or, acc, d)) e rest

(** [implied_disjunction covered e]: for [e = OR_i D_i], the weaker
    predicate [OR_i (conjuncts of D_i satisfying covered)], which [e]
    implies. [None] unless [e] is a disjunction and every disjunct keeps at
    least one conjunct. Used to push per-side filters below a join whose
    residual is [e], and to condition [e]'s selectivity on them. *)
let implied_disjunction covered e =
  match disjuncts e with
  | [] | [ _ ] -> None
  | ds ->
    let parts = List.map (fun d -> List.filter covered (conjuncts d)) ds in
    if List.mem [] parts then None else Some (disjoin (List.map conjoin parts))

(* The column ids an expression references, with repeats, onto [acc]. *)
let rec col_ids acc = function
  | Col c -> c :: acc
  | Lit _ -> acc
  | Bin (_, a, b) -> col_ids (col_ids acc a) b
  | Un (_, a) | Is_null (a, _) | Like (a, _, _) | In_list (a, _, _) | Cast (a, _) ->
    col_ids acc a
  | Case (branches, else_) ->
    let acc = List.fold_left (fun acc (c, v) -> col_ids (col_ids acc c) v) acc branches in
    (match else_ with Some e -> col_ids acc e | None -> acc)
  | Func (_, args) -> List.fold_left col_ids acc args

(** Set of column ids referenced by an expression. *)
let cols e = Registry.Col_set.of_list (col_ids [] e)

let cols_of_list es = Registry.Col_set.of_list (List.fold_left col_ids [] es)

(** Substitute column references via [f]. *)
let rec map_cols f = function
  | Col c -> f c
  | Lit v -> Lit v
  | Bin (op, a, b) -> Bin (op, map_cols f a, map_cols f b)
  | Un (op, a) -> Un (op, map_cols f a)
  | Is_null (a, n) -> Is_null (map_cols f a, n)
  | Like (a, p, n) -> Like (map_cols f a, p, n)
  | In_list (a, items, n) -> In_list (map_cols f a, items, n)
  | Case (branches, else_) ->
    Case (List.map (fun (c, v) -> (map_cols f c, map_cols f v)) branches,
          Option.map (map_cols f) else_)
  | Func (fn, args) -> Func (fn, List.map (map_cols f) args)
  | Cast (a, ty) -> Cast (map_cols f a, ty)

let rename mapping e =
  map_cols (fun c -> match Registry.Col_map.find_opt c mapping with
    | Some c' -> Col c'
    | None -> Col c) e

(* -- evaluation (shared by constant folding and the execution engine) -- *)

exception Type_error of string

let type_err fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let as_num = function
  | Value.Int x -> `I x
  | Value.Float x -> `F x
  | Value.Date d -> `I d
  | v -> type_err "expected number, got %s" (Value.to_string v)

let arith op a b =
  (* date +/- days yields a date; date - date yields days *)
  match op, a, b with
  | Add, Value.Date d, Value.Int n | Add, Value.Int n, Value.Date d ->
    Value.Date (d + n)
  | Sub, Value.Date d, Value.Int n -> Value.Date (d - n)
  | _ ->
  match as_num a, as_num b with
  | `I x, `I y ->
    (match op with
     | Add -> Value.Int (x + y) | Sub -> Value.Int (x - y) | Mul -> Value.Int (x * y)
     | Div -> if y = 0 then Value.Null else Value.Float (float_of_int x /. float_of_int y)
     | Mod -> if y = 0 then Value.Null else Value.Int (x mod y)
     | _ -> assert false)
  | a, b ->
    let x = (match a with `I v -> float_of_int v | `F v -> v) in
    let y = (match b with `I v -> float_of_int v | `F v -> v) in
    (match op with
     | Add -> Value.Float (x +. y) | Sub -> Value.Float (x -. y)
     | Mul -> Value.Float (x *. y)
     | Div -> if y = 0. then Value.Null else Value.Float (x /. y)
     | Mod -> if y = 0. then Value.Null else Value.Float (Float.rem x y)
     | _ -> assert false)

(* does pattern[a, b) match [s] at [p], [_] matching any character *)
let like_seg_at pattern s a b p =
  let j = ref a in
  while
    !j < b
    && (let c = String.unsafe_get pattern !j in
        c = '_' || c = String.unsafe_get s (p + !j - a))
  do incr j done;
  !j = b

(* the first [%] of [pattern] at or after [i], or its length *)
let like_next_pct pattern i =
  let i = ref i in
  while !i < String.length pattern && String.unsafe_get pattern !i <> '%' do incr i done;
  !i

(* SQL LIKE with % and _ wildcards, allocating nothing. A pattern is its
   [%]-separated segments, each of fixed length: the first must match a
   prefix, the last a suffix, and each middle one is placed leftmost after
   the previous one. No placement is ever revisited, because matching a
   fixed-length segment leftmost leaves the most subject for the rest. *)
let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  let e0 = like_next_pct pattern 0 in
  if e0 = np then ns = np && like_seg_at pattern s 0 np 0
  else begin
    (* the last segment is pattern[l0, np), after the last [%] *)
    let l0 = ref np in
    while String.unsafe_get pattern (!l0 - 1) <> '%' do decr l0 done;
    let l0 = !l0 in
    let limit = ns - (np - l0) in
    limit >= e0 && like_seg_at pattern s 0 e0 0 && like_seg_at pattern s l0 np limit
    && begin
      (* each middle segment pattern[a, b), leftmost in [pos, limit) *)
      let a = ref (e0 + 1) and pos = ref e0 in
      while !a < l0 && !pos >= 0 do
        let b = like_next_pct pattern !a in
        let m = b - !a in
        let p = ref !pos in
        while !p + m <= limit && not (like_seg_at pattern s !a b !p) do incr p done;
        pos := (if !p + m <= limit then !p + m else -1);
        a := b + 1
      done;
      !pos >= 0
    end
  end

(* Three-valued-logic comparison: None = UNKNOWN. *)
let compare3 op a b =
  if Value.is_null a || Value.is_null b then None
  else
    let c = Value.compare a b in
    Some (match op with
        | Eq -> c = 0 | Ne -> c <> 0
        | Lt -> c < 0 | Le -> c <= 0 | Gt -> c > 0 | Ge -> c >= 0
        | _ -> assert false)

(* SUBSTRING(s, start, len) with 1-based [start], clamped to the string *)
let substring s start len =
  let start = max 1 start in
  let avail = String.length s - (start - 1) in
  let len = max 0 (min len avail) in
  if avail <= 0 then "" else String.sub s (start - 1) len

let apply_func fn args =
  match fn, args with
  | _, _ when List.exists Value.is_null args -> Value.Null
  | F_dateadd_year, [ Value.Int n; Value.Date d ] -> Value.Date (Value.add_years d n)
  | F_dateadd_month, [ Value.Int n; Value.Date d ] -> Value.Date (Value.add_months d n)
  | F_dateadd_day, [ Value.Int n; Value.Date d ] -> Value.Date (d + n)
  | F_year, [ Value.Date d ] -> Value.Int (Value.year_of d)
  | F_substring, [ Value.String s; Value.Int start; Value.Int len ] ->
    Value.String (substring s start len)
  | F_abs, [ Value.Int x ] -> Value.Int (abs x)
  | F_abs, [ Value.Float x ] -> Value.Float (Float.abs x)
  | _ -> type_err "bad arguments to function"

let cast_value ty v =
  match ty, v with
  | _, Value.Null -> Value.Null
  | Types.Tint, Value.Int _ -> v
  | Types.Tint, Value.Float f -> Value.Int (int_of_float f)
  | Types.Tint, Value.String s -> (try Value.Int (int_of_string (String.trim s)) with _ -> Value.Null)
  | Types.Tint, Value.Bool b -> Value.Int (if b then 1 else 0)
  | Types.Tint, Value.Date d -> Value.Int d
  | Types.Tfloat, (Value.Int _ | Value.Float _ | Value.Date _ | Value.Bool _) ->
    Value.Float (Value.to_float v)
  | Types.Tfloat, Value.String s -> (try Value.Float (float_of_string (String.trim s)) with _ -> Value.Null)
  | Types.Tstring, _ -> Value.String (Value.to_string v)
  | Types.Tdate, Value.Date _ -> v
  | Types.Tdate, Value.String s ->
    (match Value.date_of_string s with Some d -> Value.Date d | None -> Value.Null)
  | Types.Tdate, Value.Int d -> Value.Date d
  | Types.Tbool, Value.Bool _ -> v
  | Types.Tbool, Value.Int n -> Value.Bool (n <> 0)
  | _ -> type_err "cannot cast %s" (Value.to_string v)

(** Evaluate under an environment mapping column id -> value.
    SQL three-valued logic: UNKNOWN is represented as [Null]. *)
let rec eval env e : Value.t =
  match e with
  | Col c -> env c
  | Lit v -> v
  | Cast (a, ty) -> cast_value ty (eval env a)
  | Bin (And, a, b) ->
    (match eval env a with
     | Value.Bool false -> Value.Bool false
     | Value.Bool true -> eval env b
     | Value.Null ->
       (match eval env b with Value.Bool false -> Value.Bool false | _ -> Value.Null)
     | v -> type_err "AND on %s" (Value.to_string v))
  | Bin (Or, a, b) ->
    (match eval env a with
     | Value.Bool true -> Value.Bool true
     | Value.Bool false -> eval env b
     | Value.Null ->
       (match eval env b with Value.Bool true -> Value.Bool true | _ -> Value.Null)
     | v -> type_err "OR on %s" (Value.to_string v))
  | Bin ((Eq | Ne | Lt | Le | Gt | Ge) as op, a, b) ->
    (match compare3 op (eval env a) (eval env b) with
     | Some b -> Value.Bool b
     | None -> Value.Null)
  | Bin (op, a, b) ->
    let x = eval env a and y = eval env b in
    if Value.is_null x || Value.is_null y then Value.Null else arith op x y
  | Un (Neg, a) ->
    (match eval env a with
     | Value.Int x -> Value.Int (-x)
     | Value.Float x -> Value.Float (-.x)
     | Value.Null -> Value.Null
     | v -> type_err "negate %s" (Value.to_string v))
  | Un (Not, a) ->
    (match eval env a with
     | Value.Bool b -> Value.Bool (not b)
     | Value.Null -> Value.Null
     | v -> type_err "NOT %s" (Value.to_string v))
  | Is_null (a, negated) ->
    let n = Value.is_null (eval env a) in
    Value.Bool (if negated then not n else n)
  | Like (a, pattern, negated) ->
    (match eval env a with
     | Value.Null -> Value.Null
     | Value.String s ->
       let m = like_match ~pattern s in
       Value.Bool (if negated then not m else m)
     | v -> type_err "LIKE on %s" (Value.to_string v))
  | In_list (a, items, negated) ->
    (match eval env a with
     | Value.Null -> Value.Null
     | v ->
       let m = List.exists (fun it -> (not (Value.is_null it)) && Value.equal v it) items in
       let has_null = List.exists Value.is_null items in
       if m then Value.Bool (not negated)
       else if has_null then Value.Null
       else Value.Bool negated)
  | Case (branches, else_) ->
    let rec go = function
      | [] -> (match else_ with Some e -> eval env e | None -> Value.Null)
      | (c, v) :: rest ->
        (match eval env c with
         | Value.Bool true -> eval env v
         | _ -> go rest)
    in
    go branches
  | Func (fn, args) -> apply_func fn (List.map (eval env) args)

(** Evaluate a predicate to a boolean (UNKNOWN -> false, per WHERE). *)
let eval_pred env e =
  match eval env e with
  | Value.Bool b -> b
  | Value.Null -> false
  | v -> type_err "predicate evaluated to %s" (Value.to_string v)

(* -- typing -- *)

let rec type_of reg e : Types.t =
  match e with
  | Col c -> Registry.ty reg c
  | Lit v -> (match Value.type_of v with Some t -> t | None -> Types.Tint)
  | Cast (_, ty) -> ty
  | Bin ((Add | Sub | Mul | Div | Mod), a, b) ->
    let ta = type_of reg a and tb = type_of reg b in
    if ta = Types.Tfloat || tb = Types.Tfloat then Types.Tfloat
    else if ta = Types.Tdate || tb = Types.Tdate then Types.Tdate
    else Types.Tint
  | Bin (_, _, _) | Un (Not, _) | Is_null _ | Like _ | In_list _ -> Types.Tbool
  | Un (Neg, a) -> type_of reg a
  | Case (branches, else_) ->
    (match branches, else_ with
     | (_, v) :: _, _ -> type_of reg v
     | [], Some e -> type_of reg e
     | [], None -> Types.Tint)
  | Func ((F_dateadd_year | F_dateadd_month | F_dateadd_day), _) -> Types.Tdate
  | Func (F_year, _) -> Types.Tint
  | Func (F_substring, _) -> Types.Tstring
  | Func (F_abs, args) ->
    (match args with [ a ] -> type_of reg a | _ -> Types.Tfloat)

let width_of reg e : float =
  match e with
  | Col c -> Registry.width reg c
  | _ ->
    (match (try Some (type_of reg e) with _ -> None) with
     | Some ty -> float_of_int (Types.default_width ty)
     | None -> 8.)

(* -- printing -- *)

let string_of_binop = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "AND" | Or -> "OR"

let string_of_agg = function
  | Count_star | Count -> "COUNT" | Sum -> "SUM" | Avg -> "AVG"
  | Min -> "MIN" | Max -> "MAX"

let string_of_func = function
  | F_dateadd_year -> "DATEADD_YEAR" | F_dateadd_month -> "DATEADD_MONTH"
  | F_dateadd_day -> "DATEADD_DAY" | F_year -> "YEAR" | F_substring -> "SUBSTRING"
  | F_abs -> "ABS"

(** A function call in the internal spelling, e.g. [DATEADD_DAY(1, d)]. *)
let call_to_string fn args =
  Printf.sprintf "%s(%s)" (string_of_func fn) (String.concat ", " args)

(** Render with a column naming function (label or SQL-qualified name);
    [func] spells a call from its rendered arguments (default
    {!call_to_string}; DSQL passes T-SQL's spelling). *)
let rec to_string_with ?(func = call_to_string) f e =
  let p = to_string_with ~func f in
  match e with
  | Col c -> f c
  | Lit v -> Value.to_sql v
  | Bin (op, a, b) -> Printf.sprintf "(%s %s %s)" (p a) (string_of_binop op) (p b)
  | Un (Neg, a) -> Printf.sprintf "(-%s)" (p a)
  | Un (Not, a) -> Printf.sprintf "(NOT %s)" (p a)
  | Is_null (a, false) -> Printf.sprintf "(%s IS NULL)" (p a)
  | Is_null (a, true) -> Printf.sprintf "(%s IS NOT NULL)" (p a)
  | Like (a, pat, false) -> Printf.sprintf "(%s LIKE '%s')" (p a) pat
  | Like (a, pat, true) -> Printf.sprintf "(%s NOT LIKE '%s')" (p a) pat
  | In_list (a, items, neg) ->
    Printf.sprintf "(%s %sIN (%s))" (p a) (if neg then "NOT " else "")
      (String.concat ", " (List.map Value.to_sql items))
  | Case (branches, else_) ->
    let bs = List.map (fun (c, v) -> Printf.sprintf "WHEN %s THEN %s" (p c) (p v)) branches in
    Printf.sprintf "CASE %s%s END" (String.concat " " bs)
      (match else_ with Some e -> " ELSE " ^ p e | None -> "")
  | Func (fn, args) -> func fn (List.map p args)
  | Cast (a, ty) ->
    Printf.sprintf "CAST (%s AS %s)" (p a) (String.uppercase_ascii (Types.to_string ty))

let to_string reg e = to_string_with (Registry.label reg) e

let agg_to_string_with ?func f (a : agg_def) =
  match a.agg_func, a.agg_arg with
  | Count_star, _ -> "COUNT(*)"
  | agg, Some arg ->
    Printf.sprintf "%s(%s%s)" (string_of_agg agg)
      (if a.agg_distinct then "DISTINCT " else "") (to_string_with ?func f arg)
  | agg, None -> Printf.sprintf "%s(*)" (string_of_agg agg)

(** Structural equality (literal-level). *)
let equal (a : t) (b : t) = a = b

(** Decompose an equality predicate between two single columns. *)
let as_col_eq = function
  | Bin (Eq, Col a, Col b) -> Some (a, b)
  | _ -> None

(** All column-equality pairs among the conjuncts of a predicate. *)
let equi_pairs pred = List.filter_map as_col_eq (conjuncts pred)
