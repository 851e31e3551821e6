(** Top-down property derivation over the imported MEMO (paper Fig. 4
    step 04: "Derive interesting properties of groups (top-down)").

    Two properties are derived per group:
    - {b interesting columns} (§3.2): candidate hash-distribution column
      lists — columns referenced in equality join predicates (they make
      local and directed joins possible) and group-by columns (they allow
      local aggregation without a local/global split);
    - {b required columns}: the columns a group's output must physically
      carry for the operators above it — this determines the row width [w]
      of any data movement of that group's stream (DMS extracts only the
      needed columns, as in the paper's Fig. 7 SQL). *)

open Algebra
open Memo

(* Indexed by group id; a non-canonical id reads as empty. [required] is
   [None] until something is required of the group. *)
type t = {
  interesting : int list list array;  (** group -> hash col lists *)
  required : Registry.Col_set.t option array;
}

let interesting t gid =
  if gid >= 0 && gid < Array.length t.interesting then t.interesting.(gid) else []

let required t gid =
  if gid >= 0 && gid < Array.length t.required then
    Option.value t.required.(gid) ~default:Registry.Col_set.empty
  else Registry.Col_set.empty

let local_refs_of_op (op : Memo.op) : Registry.Col_set.t =
  match op with
  | Logical l -> Relop.local_refs { Relop.op = l; children = [] }
  | Physical p ->
    (match p with
     | Physop.Table_scan _ | Physop.Const_empty _ -> Registry.Col_set.empty
     | Physop.Filter e -> Expr.cols e
     | Physop.Compute defs -> Expr.cols_of_list (List.map snd defs)
     | Physop.Hash_join { pred; _ } | Physop.Merge_join { pred; _ }
     | Physop.Nl_join { pred; _ } -> Expr.cols pred
     | Physop.Hash_agg { keys; aggs } | Physop.Stream_agg { keys; aggs } ->
       List.fold_left
         (fun acc a ->
            match a.Expr.agg_arg with
            | Some e -> Registry.Col_set.union acc (Expr.cols e)
            | None -> acc)
         (Registry.Col_set.of_list keys) aggs
     | Physop.Sort_op { keys; _ } -> Expr.cols_of_list (List.map (fun k -> k.Relop.key) keys)
     | Physop.Union_op -> Registry.Col_set.empty)

(* The join's equi columns, per side: each one alone, then (with more
   than one) all of them in predicate order. *)
let join_interesting (m : Memo.t) pred l r : (int * int list list) list =
  let lcols = (Memo.props m l).cols and rcols = (Memo.props m r).cols in
  let equi = Physop.oriented_equi_pairs pred ~left_cols:lcols ~right_cols:rcols in
  if equi = [] then []
  else begin
    let singles_l = List.map (fun (a, _) -> [ a ]) equi in
    let singles_r = List.map (fun (_, b) -> [ b ]) equi in
    let full_l = if List.length equi > 1 then [ List.map fst equi ] else [] in
    let full_r = if List.length equi > 1 then [ List.map snd equi ] else [] in
    [ (l, singles_l @ full_l); (r, singles_r @ full_r) ]
  end

(* The predicate of a two-child join expression, logical or physical. *)
let join_pred (e : gexpr) =
  match e.op with
  | Logical (Relop.Join { pred; _ })
  | Physical (Physop.Hash_join { pred; _ } | Physop.Merge_join { pred; _ }
             | Physop.Nl_join { pred; _ })
    when Array.length e.children = 2 ->
    Some pred
  | _ -> None

(* The group-by keys an aggregate contributes to its child: each one
   alone, then (with more than one) all of them. Joins go through
   [join_interesting]. *)
let agg_interesting (m : Memo.t) (e : gexpr) : (int * int list list) list =
  match e.op with
  | Logical (Relop.Group_by { keys; _ })
  | Physical (Physop.Hash_agg { keys; _ } | Physop.Stream_agg { keys; _ })
    when Array.length e.children = 1 && keys <> [] ->
    let c = Memo.find m e.children.(0) in
    let singles = List.map (fun k -> [ k ]) keys in
    let full = if List.length keys > 1 then [ keys ] else [] in
    [ (c, singles @ full) ]
  | _ -> []

(* Derivation runs as one program per live group, built once before the
   fixpoint from the group's expressions in MEMO order. The expressions of
   a group (a join, its commuted copy, its hash/merge/NL variants) mostly
   share their children and their interesting lists, and a repeat of a
   step already taken earlier in the same visit is a no-op, so the
   program keeps only each step's first occurrence, in the original
   order. The interesting lists therefore grow in exactly the order the
   per-expression walk produces (that order feeds the enforcer's target
   order and the tie-breaking between equal-cost options). *)
type step =
  | Add of int * int list
      (** an expression's own interesting list for a child *)
  | Pass of int * Registry.Col_set.t
      (** the group's lists down to a child, filtered by the child's
          columns *)

type program = {
  gid : int;
  steps : step array;
  kids : (int * Registry.Col_set.t * Registry.Col_set.t) array;
      (** per distinct child: the local column refs of every expression
          above it, and its columns *)
}

(* The join variants of one predicate over one pair of children share
   their interesting lists and local column refs, computed at the first. *)
type join_info = {
  pred : Expr.t;
  lists : (int * int list list) list;
  refs : Registry.Col_set.t;
}

(* A repeated [Pass] to a child reads the group's own lists again, which
   only an [Add] into the group itself (a group that is its own child) can
   have grown since the first one: after such an [Add], the next [Pass] to
   every child is emitted anew. *)
let program (m : Memo.t) (g : Memo.group) : program =
  let gid = g.Memo.gid in
  let added = Hashtbl.create 16 and passed = Hashtbl.create 8 in
  let kid_refs = Hashtbl.create 8 in
  let steps = ref [] and kids = ref [] in
  let emit per_child refs (children : int array) =
    List.iter
      (fun (child, lists) ->
         List.iter
           (fun l ->
              if not (Hashtbl.mem added (child, l)) then begin
                Hashtbl.add added (child, l) ();
                steps := Add (child, l) :: !steps;
                if child = gid then Hashtbl.reset passed
              end)
           lists)
      per_child;
    Array.iter
      (fun c ->
         let c = Memo.find m c in
         if not (Hashtbl.mem passed c) then begin
           Hashtbl.add passed c ();
           steps := Pass (c, (Memo.props m c).cols) :: !steps
         end;
         match Hashtbl.find_opt kid_refs c with
         | Some r -> Hashtbl.replace kid_refs c (Registry.Col_set.union r refs)
         | None ->
           Hashtbl.add kid_refs c refs;
           kids := c :: !kids)
      children
  in
  (* (left, right) -> the joins over them *)
  let joins = Hashtbl.create 16 in
  List.iter
    (fun (e : gexpr) ->
       match join_pred e with
       | None -> emit (agg_interesting m e) (local_refs_of_op e.op) e.children
       | Some pred ->
         let l = Memo.find m e.children.(0) and r = Memo.find m e.children.(1) in
         let over = Option.value (Hashtbl.find_opt joins (l, r)) ~default:[] in
         (match List.find_opt (fun j -> j.pred == pred) over with
          | Some j -> emit j.lists j.refs e.children
          | None ->
            let lists = join_interesting m pred l r and refs = Expr.cols pred in
            emit lists refs e.children;
            Hashtbl.replace joins (l, r) ({ pred; lists; refs } :: over)))
    (Memo.exprs m gid);
  { gid;
    steps = Array.of_list (List.rev !steps);
    kids =
      Array.of_list
        (List.rev_map
           (fun c -> (c, Hashtbl.find kid_refs c, (Memo.props m c).cols))
           !kids) }

(** Run the full derivation (fixpoint over the DAG). Each sweep visits the
    programs in MEMO order. A program's steps read only its group's
    interesting lists and its child loop only the group's required set, so
    each half runs only when what it reads changed since the start of its
    last run: otherwise every write it makes is a no-op now, and the lists
    grow by the same additions in the same order as when every program
    runs in full. *)
let derive (m : Memo.t) : t =
  let n = Memo.ngroups m in
  let t = { interesting = Array.make n []; required = Array.make n None } in
  (* bumped on every change to a group's interesting lists, and to its
     required set *)
  let iversion = Array.make n 0 and rversion = Array.make n 0 in
  (* seed: root must deliver all its output columns *)
  let root = Memo.root m in
  t.required.(root) <- Some (Memo.props m root).cols;
  let programs = ref [] in
  Memo.iter_groups m (fun g -> programs := program m g :: !programs);
  let programs = Array.of_list (List.rev !programs) in
  let steps_at = Array.make (Array.length programs) (-1) in
  let kids_at = Array.make (Array.length programs) (-1) in
  let changed = ref true in
  let add c l =
    let cur = t.interesting.(c) in
    if not (List.exists (List.equal Int.equal l) cur) then begin
      t.interesting.(c) <- l :: cur;
      iversion.(c) <- iversion.(c) + 1;
      changed := true
    end
  in
  let run_steps p =
    Array.iter
      (function
        | Add (c, l) -> add c l
        (* interesting properties of this group flow to children that
           cover them (movement below a pass-through is equivalent) *)
        | Pass (c, ccols) ->
          List.iter
            (fun l -> if List.for_all (fun x -> Registry.Col_set.mem x ccols) l then add c l)
            t.interesting.(p.gid))
      p.steps
  in
  (* required columns: the group's own plus what its operators read *)
  let run_kids p =
    let req_here = required t p.gid in
    Array.iter
      (fun (c, refs, ccols) ->
         let down = Registry.Col_set.inter (Registry.Col_set.union req_here refs) ccols in
         let cur = required t c in
         if not (Registry.Col_set.subset down cur) then begin
           t.required.(c) <- Some (Registry.Col_set.union cur down);
           rversion.(c) <- rversion.(c) + 1;
           changed := true
         end)
      p.kids
  in
  while !changed do
    changed := false;
    Array.iteri
      (fun i p ->
         let iv = iversion.(p.gid) in
         if iv <> steps_at.(i) then begin
           steps_at.(i) <- iv;
           run_steps p
         end;
         let rv = rversion.(p.gid) in
         if rv <> kids_at.(i) then begin
           kids_at.(i) <- rv;
           run_kids p
         end)
      programs
  done;
  t

(** Size of the interesting-property map: (groups with at least one
    interesting column list, total column lists). *)
let interesting_size t =
  Array.fold_left
    (fun (g, n) lists -> if lists = [] then (g, n) else (g + 1, n + List.length lists))
    (0, 0) t.interesting

(** Number of groups with a derived required-column set. *)
let required_size t =
  Array.fold_left (fun n r -> if Option.is_some r then n + 1 else n) 0 t.required

(** Row width (bytes) of the columns a moved stream of group [gid] carries. *)
let moved_width (m : Memo.t) t gid : float * int list =
  let req = Registry.Col_set.inter (required t gid) (Memo.props m gid).cols in
  let cols =
    if Registry.Col_set.is_empty req then Registry.Col_set.elements (Memo.props m gid).cols
    else Registry.Col_set.elements req
  in
  let w = List.fold_left (fun acc c -> acc +. Registry.width m.Memo.reg c) 0. cols in
  (Float.max 1. w, cols)
