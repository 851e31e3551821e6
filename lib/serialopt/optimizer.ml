(** The serial (single-node) Cascades-lite optimizer (paper Fig. 2 step 2):
    inserts the normalized plan into the MEMO, applies logical
    transformations (join commutativity / associativity) to populate the
    space of alternatives, adds physical implementations, and extracts the
    best serial plan under a required-ordering physical property.

    A task budget reproduces the paper's timeout mechanism (§3.1: "for very
    large search spaces, the SQL Server optimizer uses a timeout mechanism
    and does not generate all possible plans ... the initial execution
    alternatives placed in the MEMO have a big influence"). *)

open Algebra
open Memo

type options = {
  task_budget : int;         (** max transformation-rule applications *)
}

let default_options = { task_budget = 20_000 }

type result = {
  memo : Memo.t;
  best : Plan.t option;      (** best serial plan *)
  tasks_used : int;
  budget_exhausted : bool;   (** the ordinary task budget (§3.1 timeout) *)
  interrupted : Governor.reason option;
      (** a governor deadline/cancel or memo-size budget cut exploration
          short; the plan is anytime best-so-far and must not be cached *)
}

(* -- exploration -- *)

let is_true_pred = function
  | Expr.Lit (Catalog.Value.Bool true) -> true
  | _ -> false

let classify_join conjs =
  if conjs = [] then Relop.Cross else Relop.Inner

let nontrivial_conjuncts pred =
  List.filter (fun c -> not (is_true_pred c)) (Expr.conjuncts pred)

type rule = Commute | Assoc

(* Identity of a rule application: the rule, the canonical group, the
   interned operator ([Memo.intern] keys operators by structural equality,
   so distinct expressions never share an oid) and the canonical child
   groups. Oids are assigned only by [Memo.insert], which runs in the
   sequential apply phase, so discovery reads them without writing. *)
type applied_key = rule * int * int * int * int

(* Exploration runs in generations, each split into two phases so the rule
   *matching* parallelizes on the domain pool while every memo mutation
   stays sequential and deterministic:

   - {b discovery} (parallel, read-only): each live group is scanned
     against the generation-start snapshot of the memo — pattern matches,
     canonical child ids, applied keys. The union-find is fully
     path-compressed before the fan-out, so worker-side [Memo.find] calls
     are pure reads. Each group yields its candidate list; flattening in
     group order gives the same candidate order at any pool size.
   - {b apply} (sequential): candidates run in that order under the same
     per-candidate applied-key / task-budget / governor checks the old
     interleaved sweep performed. Inserts made by earlier candidates are
     visible to later ones, exactly as before; candidates those inserts
     would newly enable are picked up by the next generation's snapshot.

   The rule set is monotone and keyed, so the fixpoint closure is the
   sequential one; only the insertion interleaving across generations can
   differ from the old single-phase sweep — and it is identical at any
   [jobs]. *)
let explore (m : Memo.t) ~pool ~budget ~(token : Governor.token)
    ~max_memo_groups : int * bool * Governor.reason option =
  let tasks = ref 0 in
  let exhausted = ref false in
  let interrupted = ref None in
  (* Anytime cut: a tripped token or a memo-size budget stops exploration
     between rule applications — the MEMO stays consistent, and
     implement/extract below still yield the best plan found so far. *)
  let governor_cut () =
    (match Governor.state token with
     | Some r -> interrupted := Some r
     | None ->
       (match max_memo_groups with
        | Some g when Memo.ngroups m >= g -> interrupted := Some Governor.Memo_budget
        | _ -> ()));
    !interrupted <> None
  in
  let applied : (applied_key, unit) Hashtbl.t = Hashtbl.create 256 in
  (* Discovery for one group: candidates as (applied key, apply closure).
     Read-only against the memo; the closures only touch the memo when the
     sequential apply phase runs them. *)
  let discover g : (applied_key * (unit -> unit)) list =
    let out = ref [] in
    List.iter
      (fun (e : gexpr) ->
         match e.op with
         | Logical (Relop.Join { kind = (Relop.Inner | Relop.Cross) as kind; pred })
           when Array.length e.children = 2 ->
           let g1 = Memo.find m e.children.(0) and g2 = Memo.find m e.children.(1) in
           let candidate rule (f : unit -> unit) =
             let k = (rule, g, e.oid, g1, g2) in
             if not (Hashtbl.mem applied k) then out := (k, f) :: !out
           in
           (* commutativity *)
           candidate Commute (fun () ->
               ignore
                 (Memo.insert ~target:g m
                    (Logical (Relop.Join { kind; pred }))
                    [| g2; g1 |]));
           (* left associativity: (A x B) x C -> A x (B x C) *)
           candidate Assoc (fun () ->
               List.iter
                 (fun (lop, lchildren) ->
                    match lop with
                    | Relop.Join { kind = Relop.Inner | Relop.Cross; pred = q }
                      when Array.length lchildren = 2 ->
                      let ga = Memo.find m lchildren.(0)
                      and gb = Memo.find m lchildren.(1) in
                      if ga <> g2 && gb <> g2 then begin
                        let cols_b = (Memo.props m gb).cols
                        and cols_c = (Memo.props m g2).cols in
                        let bc = Registry.Col_set.union cols_b cols_c in
                        let all = nontrivial_conjuncts pred @ nontrivial_conjuncts q in
                        let lower, upper =
                          List.partition
                            (fun c -> Registry.Col_set.subset (Expr.cols c) bc)
                            all
                        in
                        (* avoid generating pure cross products *)
                        if lower <> [] then begin
                          let lower_join =
                            Memo.insert m
                              (Logical
                                 (Relop.Join
                                    { kind = classify_join lower;
                                      pred = Expr.conjoin lower }))
                              [| gb; g2 |]
                          in
                          ignore
                            (Memo.insert ~target:g m
                               (Logical
                                  (Relop.Join
                                     { kind = classify_join upper;
                                       pred = Expr.conjoin upper }))
                               [| ga; lower_join |])
                        end
                      end
                    | _ -> ())
                 (Memo.logical_exprs m g1))
         | _ -> ())
      (Memo.exprs m g);
    List.rev !out
  in
  let changed = ref true in
  while !changed && not !exhausted && !interrupted = None do
    changed := false;
    let before = Hashtbl.length m.dedup in
    (* path-compress so discovery-side finds never write *)
    for g = 0 to Memo.ngroups m - 1 do
      ignore (Memo.find m g)
    done;
    let live =
      Array.of_list
        (List.filter
           (fun g -> m.groups.(g).merged_into = None)
           (List.init (Memo.ngroups m) Fun.id))
    in
    let per_group = Par.parallel_map pool discover live in
    (* apply phase: sequential, in discovery order *)
    (try
       Array.iter
         (List.iter (fun (k, f) ->
              if not (Hashtbl.mem applied k) then begin
                Hashtbl.replace applied k ();
                if !tasks >= budget then begin
                  exhausted := true;
                  raise Exit
                end
                else if governor_cut () then raise Exit
                else begin
                  incr tasks;
                  f ()
                end
              end))
         per_group
     with Exit -> ());
    if Hashtbl.length m.dedup > before then changed := true
  done;
  (!tasks, !exhausted, !interrupted)

(* -- implementation -- *)

let implement_group (m : Memo.t) gid =
  List.iter
    (fun (lop, children) ->
       let add p = ignore (Memo.insert ~target:gid m (Physical p) children) in
       match lop with
       | Relop.Get { table; alias; cols } -> add (Physop.Table_scan { table; alias; cols })
       | Relop.Select pred -> add (Physop.Filter pred)
       | Relop.Project defs -> add (Physop.Compute defs)
       | Relop.Join { kind; pred } ->
         let lcols = (Memo.props m children.(0)).cols
         and rcols = (Memo.props m children.(1)).cols in
         let equi = Physop.oriented_equi_pairs pred ~left_cols:lcols ~right_cols:rcols in
         if equi <> [] then begin
           add (Physop.Hash_join { kind; pred });
           if (match kind with Relop.Inner | Relop.Semi | Relop.Anti_semi -> true | _ -> false)
           then add (Physop.Merge_join { kind; pred })
         end
         else add (Physop.Nl_join { kind; pred })
       | Relop.Group_by { keys; aggs } ->
         let distinct_agg = List.exists (fun a -> a.Expr.agg_distinct) aggs in
         add (Physop.Hash_agg { keys; aggs });
         if keys <> [] && not distinct_agg then
           add (Physop.Stream_agg { keys; aggs })
       | Relop.Sort { keys; limit } -> add (Physop.Sort_op { keys; limit })
       | Relop.Union_all -> add Physop.Union_op
       | Relop.Empty cols -> add (Physop.Const_empty cols))
    (Memo.logical_exprs m gid)

let implement (m : Memo.t) =
  (* groups only gain physical exprs here, never new groups *)
  for gid = 0 to Memo.ngroups m - 1 do
    if m.groups.(gid).merged_into = None then implement_group m gid
  done

(* -- winner extraction (required property: ascending ordering on cols) -- *)

type ord = int list

let rec is_prefix a b =
  match a, b with
  | [], _ -> true
  | x :: a', y :: b' -> x = y && is_prefix a' b'
  | _ -> false

(* Does a physical op yield output ordered on [ord], given its own
   characteristics, and what orders must its children provide? *)
let provides_and_requires (m : Memo.t) (op : Physop.t) (children : int array)
    ~(ord : ord) : ord list option =
  let pass_through () = Some [ ord ] in
  match op with
  | _ when ord = [] ->
    (* no requirement: children also unconstrained, except merge/stream
       which inherently need sorted inputs *)
    (match op with
     | Physop.Merge_join { pred; _ } ->
       let lcols = (Memo.props m children.(0)).cols
       and rcols = (Memo.props m children.(1)).cols in
       let equi = Physop.oriented_equi_pairs pred ~left_cols:lcols ~right_cols:rcols in
       if equi = [] then None
       else Some [ List.map fst equi; List.map snd equi ]
     | Physop.Stream_agg { keys; _ } -> Some [ keys ]
     | _ -> Some (List.map (fun _ -> []) (Array.to_list children)))
  | Physop.Filter _ -> pass_through ()
  | Physop.Compute defs ->
    (* ordering columns must be pass-through definitions *)
    let ok =
      List.for_all
        (fun c ->
           List.exists
             (fun (out, e) -> out = c && (match e with Expr.Col c' -> c' = c | _ -> false))
             defs)
        ord
    in
    if ok then pass_through () else None
  | Physop.Sort_op { keys; _ } ->
    (* provides its ascending key prefix *)
    let provided =
      List.filter_map
        (fun k ->
           match k.Relop.key, k.Relop.desc with
           | Expr.Col c, false -> Some c
           | _ -> None)
        keys
    in
    if is_prefix ord provided then Some [ [] ] else None
  | Physop.Merge_join { pred; _ } ->
    let lcols = (Memo.props m children.(0)).cols
    and rcols = (Memo.props m children.(1)).cols in
    let equi = Physop.oriented_equi_pairs pred ~left_cols:lcols ~right_cols:rcols in
    if equi = [] then None
    else
      let lkeys = List.map fst equi and rkeys = List.map snd equi in
      if is_prefix ord lkeys then Some [ lkeys; rkeys ] else None
  | Physop.Stream_agg { keys; _ } ->
    if is_prefix ord keys then Some [ keys ] else None
  | _ -> None

exception Cycle

let extract_best (m : Memo.t) : Plan.t option =
  let winners : (int * ord, Plan.t option) Hashtbl.t = Hashtbl.create 64 in
  let in_progress : (int * ord, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec best gid (ord : ord) : Plan.t option =
    let gid = Memo.find m gid in
    match Hashtbl.find_opt winners (gid, ord) with
    | Some r -> r
    | None ->
      if Hashtbl.mem in_progress (gid, ord) then raise Cycle;
      Hashtbl.replace in_progress (gid, ord) ();
      let candidates = ref [] in
      List.iter
        (fun (op, children) ->
           match provides_and_requires m op children ~ord with
           | None -> ()
           | Some child_ords ->
             (try
                let plans =
                  List.map2
                    (fun c o -> match best c o with Some p -> p | None -> raise Exit)
                    (Array.to_list children) child_ords
                in
                let out = (Memo.props m gid).card in
                let inputs = List.map (fun (p : Plan.t) -> p.Plan.card) plans in
                let local = Cost.local_cost op ~out ~inputs in
                let total = local +. List.fold_left (fun a (p : Plan.t) -> a +. p.Plan.cost) 0. plans in
                candidates :=
                  { Plan.op; children = plans; card = out; cost = total } :: !candidates
              with Exit | Cycle -> ()))
        (Memo.physical_exprs m gid);
      (* enforcer: satisfy a required order by sorting the best unordered plan *)
      (if ord <> [] then
         match best gid [] with
         | Some p ->
           let keys = List.map (fun c -> { Relop.key = Expr.Col c; desc = false }) ord in
           let cost = p.Plan.cost +. Cost.sort_enforcer_cost p.Plan.card in
           candidates :=
             { Plan.op = Physop.Sort_op { keys; limit = None };
               children = [ p ]; card = p.Plan.card; cost }
             :: !candidates
         | None -> ());
      let result =
        List.fold_left
          (fun acc (p : Plan.t) ->
             match acc with
             | None -> Some p
             | Some b -> if p.Plan.cost < b.Plan.cost then Some p else acc)
          None !candidates
      in
      Hashtbl.remove in_progress (gid, ord);
      Hashtbl.replace winners (gid, ord) result;
      result
  in
  best (Memo.root m) []

(** Run the full serial optimization over a normalized logical tree.
    [seeds] are additional equivalent trees pre-inserted into the MEMO
    before exploration (the paper's §3.1 seeding hook). [token] and
    [max_memo_groups] bound the search anytime-style: exploration stops at
    the cut, but implementation and winner extraction still run over
    whatever the MEMO holds, so a plan comes back even from a truncated
    search (at worst, the normalized tree's own implementation). *)
let optimize ?(obs = Obs.null) ?(opts = default_options) ?(seeds = [])
    ?(token = Governor.none) ?max_memo_groups ?(pool = Par.sequential)
    (reg : Registry.t) (shell : Catalog.Shell_db.t) (tree : Relop.t) : result =
  let m = Memo.of_tree reg shell tree in
  List.iter
    (fun s ->
       let g = Memo.insert_tree m s in
       if Memo.find m g <> Memo.root m then
         (* a seed must be an equivalent plan for the whole query *)
         Memo.merge_groups m (Memo.root m) g)
    seeds;
  let tasks_used, budget_exhausted, interrupted =
    explore m ~pool ~budget:opts.task_budget ~token ~max_memo_groups
  in
  implement m;
  let best = try extract_best m with Cycle -> None in
  Obs.add obs "serial.memo.groups" (Memo.live_groups m);
  Obs.add obs "serial.memo.exprs" (Memo.total_exprs m);
  Obs.add obs "serial.tasks" tasks_used;
  Obs.add obs "serial.budget_exhausted" (if budget_exhausted then 1 else 0);
  Obs.add obs "serial.interrupted" (if interrupted <> None then 1 else 0);
  { memo = m; best; tasks_used; budget_exhausted; interrupted }
