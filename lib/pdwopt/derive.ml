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

type t = {
  interesting : (int, int list list) Hashtbl.t;  (** group -> hash col lists *)
  required : (int, Registry.Col_set.t) Hashtbl.t;
}

let interesting t gid =
  match Hashtbl.find_opt t.interesting gid with Some l -> l | None -> []

let required t gid =
  match Hashtbl.find_opt t.required gid with
  | Some s -> s
  | None -> Registry.Col_set.empty

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

(** Join equi columns and group-by keys contributed by one expression, per
    child. *)
let expr_interesting (m : Memo.t) (e : gexpr) : (int * int list list) list =
  match e.op with
  | Logical (Relop.Join { pred; _ })
  | Physical (Physop.Hash_join { pred; _ } | Physop.Merge_join { pred; _ }
             | Physop.Nl_join { pred; _ })
    when Array.length e.children = 2 ->
    let l = Memo.find m e.children.(0) and r = Memo.find m e.children.(1) in
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

(* A repeated [Pass] to a child reads the group's own lists again, which
   only an [Add] into the group itself (a group that is its own child) can
   have grown since the first one: after such an [Add], the next [Pass] to
   every child is emitted anew. *)
let program (m : Memo.t) (g : Memo.group) : program =
  let gid = g.Memo.gid in
  let added = Hashtbl.create 16 and passed = Hashtbl.create 8 in
  let kid_refs = Hashtbl.create 8 in
  let steps = ref [] and kids = ref [] in
  List.iter
    (fun (e : gexpr) ->
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
         (expr_interesting m e);
       let refs = local_refs_of_op e.op in
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
         e.children)
    (Memo.exprs m gid);
  { gid;
    steps = Array.of_list (List.rev !steps);
    kids =
      Array.of_list
        (List.rev_map
           (fun c -> (c, Hashtbl.find kid_refs c, (Memo.props m c).cols))
           !kids) }

(** Run the full derivation (fixpoint over the DAG). *)
let derive (m : Memo.t) : t =
  let t = { interesting = Hashtbl.create 64; required = Hashtbl.create 64 } in
  (* seed: root must deliver all its output columns *)
  let root = Memo.root m in
  Hashtbl.replace t.required root (Memo.props m root).cols;
  let programs = ref [] in
  Memo.iter_groups m (fun g -> programs := program m g :: !programs);
  let programs = Array.of_list (List.rev !programs) in
  let changed = ref true in
  let add c l =
    let cur = interesting t c in
    if not (List.mem l cur) then begin
      Hashtbl.replace t.interesting c (l :: cur);
      changed := true
    end
  in
  let run p =
    let req_here = required t p.gid in
    Array.iter
      (function
        | Add (c, l) -> add c l
        (* interesting properties of this group flow to children that
           cover them (movement below a pass-through is equivalent) *)
        | Pass (c, ccols) ->
          List.iter
            (fun l -> if List.for_all (fun x -> Registry.Col_set.mem x ccols) l then add c l)
            (interesting t p.gid))
      p.steps;
    (* required columns: the group's own plus what its operators read *)
    Array.iter
      (fun (c, refs, ccols) ->
         let down = Registry.Col_set.inter (Registry.Col_set.union req_here refs) ccols in
         let cur = required t c in
         if not (Registry.Col_set.subset down cur) then begin
           Hashtbl.replace t.required c (Registry.Col_set.union cur down);
           changed := true
         end)
      p.kids
  in
  while !changed do
    changed := false;
    Array.iter run programs
  done;
  t

(** Size of the interesting-property map: (groups with at least one
    interesting column list, total column lists). *)
let interesting_size t =
  Hashtbl.fold (fun _ lists (g, l) -> (g + 1, l + List.length lists)) t.interesting (0, 0)

(** Number of groups with a derived required-column set. *)
let required_size t = Hashtbl.length t.required

(** Row width (bytes) of the columns a moved stream of group [gid] carries. *)
let moved_width (m : Memo.t) t gid : float * int list =
  let req = Registry.Col_set.inter (required t gid) (Memo.props m gid).cols in
  let cols =
    if Registry.Col_set.is_empty req then Registry.Col_set.elements (Memo.props m gid).cols
    else Registry.Col_set.elements req
  in
  let w = List.fold_left (fun acc c -> acc +. Registry.width m.Memo.reg c) 0. cols in
  (Float.max 1. w, cols)
