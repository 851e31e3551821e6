(* Static plan-validity analyzer. See check.mli for the rule catalog and
   DESIGN.md §7 for the mapping to the paper's sections.

   Everything here is re-derived from first principles: the only trusted
   inputs are the plan's *structure*, the shell database (for base-table
   partitioning) and, for R6, the DMS cost model parameters. Distribution
   annotations, cost fields and the DSQL step list are exactly what is
   being audited.

   One recursion interprets a plan over a product domain: per node, the
   distribution audit (R0-R4), the cost audit (R5-R6) and, optionally, the
   abstract env of {!Analysis} (R10-R12). The distribution audit is
   compositional: each node's declared [dist] is verified against its
   children's *declared* distributions, with scans anchored at the shell
   database. If every node passes, a simple induction gives whole-plan
   soundness; if a node lies, the violation is reported at that node
   instead of cascading up the tree. *)

open Algebra

type violation = { rule : string; message : string; subtree : string }

exception Invalid of violation list

type rule_info = { id : string; title : string; paper : string }

let r0 = "R0.plan-shape"
let r1 = "R1.dist-rederive"
let r2 = "R2.dist-local-op"
let r3 = "R3.move-applicability"
let r4 = "R4.move-layout"
let r5 = "R5.cost-monotone"
let r6 = "R6.cost-reconstruct"
let r7 = "R7.dsql-steps"
let r8 = "R8.dsql-temp-defined"
let r9 = "R9.dsql-schema"
let r10 = "R10.types"
let r11 = "R11.bounds"
let r12 = "R12.contradiction"

let rules =
  [ { id = r0; title = "operator arities; Return only at the root";
      paper = "§2.3 (plan structure)" };
    { id = r1; title = "declared distribution equals the re-derived one";
      paper = "§3.1/§3.3 (distribution properties)" };
    { id = r2; title = "serial operators are locally executable (no missing enforcer)";
      paper = "§3.1 (collocated joins, local group-bys), Fig. 4 step 07" };
    { id = r3; title = "DMS op applies to its input and yields the declared dist";
      paper = "§3.3.2 (the seven movement operations)" };
    { id = r4; title = "moved columns exist in the child and carry the hash columns";
      paper = "§2.4/§3.3.2 (tuple routing)" };
    { id = r5; title = "finite, non-negative, bottom-up non-decreasing costs";
      paper = "§3.3 (cost-based pruning soundness)" };
    { id = r6; title = "per-move and root DMS costs match the cost model";
      paper = "§3.3.1 (DMS cost model)" };
    { id = r7; title = "DSQL step ids, unique temps, single trailing Return";
      paper = "§2.4 (DSQL plan structure)" };
    { id = r8; title = "temp tables are filled before they are read";
      paper = "§2.4 (step sequencing)" };
    { id = r9; title = "DSQL DMS steps mirror the plan's movements and schemas";
      paper = "§2.4/Fig. 7 (plan-to-DSQL cut)" };
    { id = r10; title = "every expression type-checks (join keys, aggregates, temp schemas)";
      paper = "DESIGN.md §12 (typed-expression checker)" };
    { id = r11; title = "optimizer row estimates inside the derived cardinality bounds";
      paper = "DESIGN.md §12 (interval abstract domain)" };
    { id = r12; title = "no provably-contradictory predicate left unfolded";
      paper = "DESIGN.md §12 (contradiction detection)" } ]

type cost_model = { nodes : int; lambdas : Dms.Cost.lambdas; reg : Registry.t }

let join_kind_name : Relop.join_kind -> string = function
  | Relop.Inner -> "inner"
  | Relop.Cross -> "cross"
  | Relop.Semi -> "semi"
  | Relop.Anti_semi -> "anti-semi"
  | Relop.Left_outer -> "left-outer"

(* -- rendering (registry-free: violations must print even for plans whose
      registry is unavailable, e.g. inside the appliance) -- *)

let ids cols = String.concat "," (List.map string_of_int cols)

let op_label (op : Pdwopt.Pplan.pop) =
  match op with
  | Pdwopt.Pplan.Serial sop -> Memo.Physop.name sop
  | Pdwopt.Pplan.Move { kind; cols } ->
    Printf.sprintf "DMS %s[%s]" (Dms.Op.name kind) (ids cols)
  | Pdwopt.Pplan.Return _ -> "Return"

let subtree_string ?(max_depth = 4) (p : Pdwopt.Pplan.t) =
  let b = Buffer.create 256 in
  let rec go depth (n : Pdwopt.Pplan.t) =
    Buffer.add_string b (String.make (2 * depth) ' ');
    Buffer.add_string b
      (Printf.sprintf "%s  {%s, rows=%.0f, dms=%.4g, serial=%.4g}\n"
         (op_label n.Pdwopt.Pplan.op)
         (Dms.Distprop.short_string n.Pdwopt.Pplan.dist)
         n.Pdwopt.Pplan.rows n.Pdwopt.Pplan.dms_cost n.Pdwopt.Pplan.serial_cost);
    if depth >= max_depth && n.Pdwopt.Pplan.children <> [] then
      Buffer.add_string b (String.make (2 * (depth + 1)) ' ' ^ "...\n")
    else List.iter (go (depth + 1)) n.Pdwopt.Pplan.children
  in
  go 0 p;
  Buffer.contents b

let to_string vs =
  String.concat "\n"
    (List.map
       (fun v -> Printf.sprintf "[%s] %s\n%s" v.rule v.message v.subtree)
       vs)

(* -- shared derivation helpers (must agree with the producers:
      Pdwopt.Enumerate and Baseline) -- *)

(* base-table distribution from the shell database; unknown tables and
   unprojected partition columns degrade to Hashed [] ("distributed,
   unknown partitioning"), exactly as the producers do. Deliberately not
   Enumerate.scan_dist: R1 audits the producers against a derivation of
   its own. *)
let scan_dist shell (table : string) (cols : int array) : Dms.Distprop.t =
  match Catalog.Shell_db.find shell table with
  | None -> Dms.Distprop.Hashed []
  | Some tbl ->
    (match tbl.Catalog.Shell_db.dist with
     | Catalog.Distribution.Replicated -> Dms.Distprop.Replicated
     | Catalog.Distribution.Hash_partitioned names ->
       let schema = tbl.Catalog.Shell_db.schema in
       let ids =
         List.filter_map
           (fun n ->
              match Catalog.Schema.find_col schema n with
              | Some i when i < Array.length cols -> Some cols.(i)
              | _ -> None)
           names
       in
       Dms.Distprop.Hashed ids)

(* a projection renames hash-distribution columns it passes through *)
let rename_dist defs (d : Dms.Distprop.t) =
  match d with
  | Dms.Distprop.Hashed cols when cols <> [] ->
    let rename c =
      match
        List.find_map
          (fun (out, e) ->
             match e with Expr.Col c' when c' = c -> Some out | _ -> None)
          defs
      with
      | Some out -> out
      | None -> c
    in
    Dms.Distprop.Hashed (List.map rename cols)
  | d -> d

(* distribution of a union executed locally on each node (branch-wise
   concatenation); [None] when per-node concatenation duplicates rows
   (mixed replicated/distributed inputs) *)
let union_dist (l : Dms.Distprop.t) (r : Dms.Distprop.t) : Dms.Distprop.t option =
  match l, r with
  | Dms.Distprop.Hashed lc, Dms.Distprop.Hashed rc when lc = rc && lc <> [] ->
    Some (Dms.Distprop.Hashed lc)
  | Dms.Distprop.Hashed _, Dms.Distprop.Hashed _ ->
    (* distributed but unaligned (or unknown): correct node-wise, no usable
       hash property survives *)
    Some (Dms.Distprop.Hashed [])
  | Dms.Distprop.Replicated, Dms.Distprop.Replicated -> Some Dms.Distprop.Replicated
  | Dms.Distprop.Single_node, Dms.Distprop.Single_node -> Some Dms.Distprop.Single_node
  | _ -> None

let layout_of (p : Pdwopt.Pplan.t) : int list option =
  try Some (Pdwopt.Pplan.output_layout p) with Invalid_argument _ -> None

(* -- the plan interpreter (R0-R6, R10-R12) -- *)

type node_info = {
  card_lo : float;
  card_hi : float;
  out_env : Analysis.env;
  contradiction : string option;
  type_errors : Analysis.type_error list;
}

type annotated = { depth : int; node : Pdwopt.Pplan.t; info : node_info }

type ctx = {
  shell : Catalog.Shell_db.t;
  costs : bool;                  (** R5 *)
  cost : cost_model option;      (** R6 *)
  env : Analysis.ctx option;     (** the abstract-env component (R10-R12) *)
  mutable acc : violation list;  (** R0-R6, collected in reverse preorder *)
  mutable recomputed : float;    (** sum of recomputed move costs (R6) *)
  mutable recompute_ok : bool;   (** every per-move R6 check passed *)
}

let violation rule node fmt =
  Printf.ksprintf (fun message -> { rule; message; subtree = subtree_string node }) fmt

let add ctx rule node fmt =
  Printf.ksprintf (fun message -> ctx.acc <- violation rule node "%s" message :: ctx.acc) fmt

let deq = Dms.Distprop.equal
let dshort = Dms.Distprop.short_string

(* R3 + R4 + R6: one Move node *)
let check_move ctx (p : Pdwopt.Pplan.t) kind cols (c : Pdwopt.Pplan.t) =
  (* R3: applicability and declared output distribution *)
  (match Dms.Op.output_dist kind c.Pdwopt.Pplan.dist with
   | None ->
     add ctx r3 p "%s does not apply to an input distributed %s"
       (Dms.Op.name kind) (dshort c.Pdwopt.Pplan.dist)
   | Some d ->
     if not (deq d p.Pdwopt.Pplan.dist) then
       add ctx r3 p "%s over %s produces %s, but the plan declares %s"
         (Dms.Op.name kind) (dshort c.Pdwopt.Pplan.dist) (dshort d)
         (dshort p.Pdwopt.Pplan.dist));
  (* R4: the moved projection *)
  if cols = [] then add ctx r4 p "movement carries no columns";
  (match layout_of c with
   | None -> ()  (* the malformed child is reported by its own R0 *)
   | Some lay ->
     let missing = List.filter (fun x -> not (List.mem x lay)) cols in
     if missing <> [] then
       add ctx r4 p "moved columns [%s] are not produced by the child (layout [%s])"
         (ids missing) (ids lay));
  (match kind with
   | Dms.Op.Shuffle h | Dms.Op.Trim h ->
     if h = [] then
       add ctx r4 p "%s has an empty hash column list" (Dms.Op.name kind)
     else begin
       let missing = List.filter (fun x -> not (List.mem x cols)) h in
       if missing <> [] then
         add ctx r4 p
           "hash columns [%s] are not carried by the moved stream (cols [%s])"
           (ids missing) (ids cols)
     end
   | _ -> ());
  (* R6: the move's cost delta against the DMS cost model. The producers
     disagree on whether the byte width is clamped to >= 1 (the enforcer
     clamps, the aggregation split does not), so both readings pass. *)
  match ctx.cost with
  | None -> ()
  | Some cm ->
    let sum = List.fold_left (fun a x -> a +. Registry.width cm.reg x) 0. cols in
    let expected width =
      (Dms.Cost.cost ~lambdas:cm.lambdas kind ~nodes:cm.nodes
         ~rows:c.Pdwopt.Pplan.rows ~width)
        .Dms.Cost.c_total
    in
    let ea = expected sum and eb = expected (Float.max 1. sum) in
    let delta = p.Pdwopt.Pplan.dms_cost -. c.Pdwopt.Pplan.dms_cost in
    let tol v = (1e-6 *. Float.abs v) +. 1e-9 in
    if
      Float.abs (delta -. ea) <= tol ea || Float.abs (delta -. eb) <= tol eb
    then ctx.recomputed <- ctx.recomputed +. delta
    else begin
      ctx.recompute_ok <- false;
      add ctx r6 p
        "movement cost delta %.6g differs from the DMS cost model's %.6g \
         (%s, %.0f rows, width %.3g)"
        delta eb (Dms.Op.name kind) c.Pdwopt.Pplan.rows (Float.max 1. sum)
    end

(* R1 + R2: one aggregate over its input [c]. Returns whether it is the
   partial half of a local/global split (its grouping is not local on [c]'s
   declared distribution), the one bit R2 and the bounds transfer read. Only
   an enclosing aggregate with the same keys ([from_agg]) legitimizes it. *)
let check_agg ctx ~from_agg (p : Pdwopt.Pplan.t) keys (c : Pdwopt.Pplan.t) =
  let declared = p.Pdwopt.Pplan.dist in
  match Dms.Distprop.groupby_local ~keys c.Pdwopt.Pplan.dist with
  | Some d ->
    if not (deq declared d) then
      add ctx r1 p "local group-by over %s produces %s, plan declares %s"
        (dshort c.Pdwopt.Pplan.dist) (dshort d) (dshort declared);
    false
  | None ->
    (match from_agg with
     | Some gkeys when gkeys = keys ->
       (* emits per-node partial groups, so it passes the input
          distribution through; the global half above re-derives normally *)
       if not (deq declared c.Pdwopt.Pplan.dist) then
         add ctx r1 p
           "partial aggregate passes its input distribution %s through, \
            plan declares %s"
           (dshort c.Pdwopt.Pplan.dist) (dshort declared)
     | _ ->
       add ctx r2 p
         "group-by on keys [%s] over a %s input is not local and no \
          enclosing global aggregate re-groups it; a movement or \
          local/global split is missing"
         (ids keys) (dshort c.Pdwopt.Pplan.dist));
    true

(* R0 + R1 + R2: one non-aggregate Serial node (or a malformed aggregate) *)
let check_serial ctx (p : Pdwopt.Pplan.t) (sop : Memo.Physop.t)
    (children : Pdwopt.Pplan.t list) =
  let declared = p.Pdwopt.Pplan.dist in
  let arity what n =
    add ctx r0 p "%s expects %d child%s, has %d" what n
      (if n = 1 then "" else "ren")
      (List.length children)
  in
  match sop, children with
  | Memo.Physop.Table_scan { table; cols; _ }, [] ->
    let d = scan_dist ctx.shell table cols in
    if not (deq declared d) then
      add ctx r1 p "scan of %s is %s on the appliance, plan declares %s" table
        (dshort d) (dshort declared)
  | Memo.Physop.Table_scan _, _ -> arity "Table_scan" 0
  | Memo.Physop.Const_empty _, [] -> ()  (* empty: any distribution holds *)
  | Memo.Physop.Const_empty _, _ -> arity "Const_empty" 0
  | (Memo.Physop.Filter _ | Memo.Physop.Sort_op _), [ c ] ->
    if not (deq declared c.Pdwopt.Pplan.dist) then
      add ctx r1 p "%s preserves its input distribution %s, plan declares %s"
        (Memo.Physop.name sop) (dshort c.Pdwopt.Pplan.dist) (dshort declared)
  | Memo.Physop.Compute defs, [ c ] ->
    (* both the raw input distribution and its projection-renamed image are
       true claims; the producers use either *)
    let cd = c.Pdwopt.Pplan.dist in
    let renamed = rename_dist defs cd in
    if not (deq declared cd || deq declared renamed) then
      add ctx r1 p "projection of a %s input can declare %s or %s, plan declares %s"
        (dshort cd) (dshort cd) (dshort renamed) (dshort declared)
  | ( Memo.Physop.Hash_join { kind; pred }
    | Memo.Physop.Merge_join { kind; pred }
    | Memo.Physop.Nl_join { kind; pred } ), [ l; r ] ->
    (match layout_of l, layout_of r with
     | Some ll, Some rl ->
       let equi =
         Memo.Physop.oriented_equi_pairs pred
           ~left_cols:(Registry.Col_set.of_list ll)
           ~right_cols:(Registry.Col_set.of_list rl)
       in
       (match
          Dms.Distprop.join_local ~kind ~equi l.Pdwopt.Pplan.dist
            r.Pdwopt.Pplan.dist
        with
        | None ->
          add ctx r2 p
            "%s join over %s x %s inputs is not locally executable; a data \
             movement is missing"
            (join_kind_name kind)
            (dshort l.Pdwopt.Pplan.dist) (dshort r.Pdwopt.Pplan.dist)
        | Some d ->
          if not (deq declared d) then
            add ctx r1 p "local join of %s x %s produces %s, plan declares %s"
              (dshort l.Pdwopt.Pplan.dist) (dshort r.Pdwopt.Pplan.dist)
              (dshort d) (dshort declared))
     | _ -> ())
  | Memo.Physop.Union_op, [ l; r ] ->
    (match union_dist l.Pdwopt.Pplan.dist r.Pdwopt.Pplan.dist with
     | None ->
       add ctx r2 p
         "union branches distributed %s / %s cannot be concatenated \
          node-wise; an aligning movement is missing"
         (dshort l.Pdwopt.Pplan.dist) (dshort r.Pdwopt.Pplan.dist)
     | Some d ->
       if not (deq declared d) then
         add ctx r1 p "union of %s / %s produces %s, plan declares %s"
           (dshort l.Pdwopt.Pplan.dist) (dshort r.Pdwopt.Pplan.dist)
           (dshort d) (dshort declared))
  | ( Memo.Physop.Filter _ | Memo.Physop.Sort_op _ | Memo.Physop.Compute _
    | Memo.Physop.Hash_agg _ | Memo.Physop.Stream_agg _ ), _ ->
    arity (Memo.Physop.name sop) 1
  | ( Memo.Physop.Hash_join _ | Memo.Physop.Merge_join _ | Memo.Physop.Nl_join _
    | Memo.Physop.Union_op ), _ ->
    arity (Memo.Physop.name sop) 2

(* R5: finite, non-negative, bottom-up non-decreasing. Equality with the
   children's sum is deliberately NOT required: post-optimization may
   splice out identity movements without reknitting ancestor cumulatives. *)
let check_costs ctx (p : Pdwopt.Pplan.t) =
  let fin what v =
    if not (Float.is_finite v) || v < 0. then
      add ctx r5 p "%s is %g (must be finite and non-negative)" what v
  in
  fin "row estimate" p.Pdwopt.Pplan.rows;
  fin "cumulative DMS cost" p.Pdwopt.Pplan.dms_cost;
  fin "cumulative serial cost" p.Pdwopt.Pplan.serial_cost;
  let monotone what (cost : Pdwopt.Pplan.t -> float) =
    let c = List.fold_left (fun a ch -> a +. cost ch) 0. p.Pdwopt.Pplan.children in
    if cost p < c -. ((1e-6 *. Float.abs c) +. 1e-9) then
      add ctx r5 p "cumulative %s cost %.6g is below its children's %.6g" what (cost p) c
  in
  monotone "DMS" (fun n -> n.Pdwopt.Pplan.dms_cost);
  monotone "serial" (fun n -> n.Pdwopt.Pplan.serial_cost)

(* The env component of one node, from its children's envs. A Move only
   relocates rows; the Return gathers to the control node, where it runs
   the client ORDER BY / TOP once, as a single-node sort. *)
let node_info actx (p : Pdwopt.Pplan.t) ~partial cenvs =
  let serial op ~dist ~partial_agg =
    let env, contradiction =
      Analysis.physop_transfer actx op cenvs ~dist ~partial_agg
    in
    (env, contradiction, Analysis.check_physop actx.Analysis.reg op)
  in
  let out_env, contradiction, type_errors =
    match p.Pdwopt.Pplan.op with
    | Pdwopt.Pplan.Serial op -> serial op ~dist:p.Pdwopt.Pplan.dist ~partial_agg:partial
    | Pdwopt.Pplan.Move _ ->
      ((match cenvs with [ c ] -> c | _ -> Analysis.top_env), None, [])
    | Pdwopt.Pplan.Return { sort; limit } ->
      serial (Memo.Physop.Sort_op { keys = sort; limit })
        ~dist:Dms.Distprop.Single_node ~partial_agg:false
  in
  { card_lo = out_env.Analysis.lo; card_hi = out_env.Analysis.hi; out_env;
    contradiction; type_errors }

(* The one recursion over the plan: the node's own audits in preorder (they
   read only the children's declared fields), then the children, then, with
   the env component on, the node's env from theirs, returned with the
   subtree's annotations in preorder. [from_agg] is inherited. *)
let rec interp ctx ~depth ~from_agg (p : Pdwopt.Pplan.t) =
  let partial, child_flag =
    match p.Pdwopt.Pplan.op, p.Pdwopt.Pplan.children with
    | Pdwopt.Pplan.Return _, [ _ ] ->
      if depth > 0 then add ctx r0 p "Return operator below the plan root";
      if not (deq p.Pdwopt.Pplan.dist Dms.Distprop.Single_node) then
        add ctx r1 p "Return gathers to the control node (S), plan declares %s"
          (dshort p.Pdwopt.Pplan.dist);
      (false, None)
    | Pdwopt.Pplan.Return _, _ ->
      add ctx r0 p "Return expects 1 child, has %d"
        (List.length p.Pdwopt.Pplan.children);
      (false, None)
    | Pdwopt.Pplan.Move { kind; cols }, [ c ] ->
      check_move ctx p kind cols c;
      (false, from_agg)
    | Pdwopt.Pplan.Move _, _ ->
      add ctx r0 p "Move expects 1 child, has %d"
        (List.length p.Pdwopt.Pplan.children);
      (false, from_agg)
    | Pdwopt.Pplan.Serial
        (Memo.Physop.Hash_agg { keys; _ } | Memo.Physop.Stream_agg { keys; _ }),
      [ c ] ->
      (check_agg ctx ~from_agg p keys c, Some keys)
    | Pdwopt.Pplan.Serial
        ((Memo.Physop.Hash_agg { keys; _ } | Memo.Physop.Stream_agg { keys; _ }) as sop),
      children ->
      check_serial ctx p sop children;
      (false, Some keys)
    | Pdwopt.Pplan.Serial sop, children ->
      check_serial ctx p sop children;
      (false, None)
  in
  if ctx.costs then check_costs ctx p;
  let kids =
    List.map (interp ctx ~depth:(depth + 1) ~from_agg:child_flag)
      p.Pdwopt.Pplan.children
  in
  match ctx.env with
  | None -> None
  | Some actx ->
    let kids = List.filter_map Fun.id kids in
    let info = node_info actx p ~partial (List.map fst kids) in
    Some (info.out_env, { depth; node = p; info } :: List.concat_map snd kids)

(* Runs the pass: the R0-R6 violations (preorder, then R6's root
   reconciliation) and, with [env], every node's annotation in preorder. *)
let interpret ?cost ?env ~costs ~shell (p : Pdwopt.Pplan.t) =
  let ctx = { shell; costs; cost; env; acc = []; recomputed = 0.; recompute_ok = true } in
  let annotations = Option.fold ~none:[] ~some:snd (interp ctx ~depth:0 ~from_agg:None p) in
  (* R6 root reconciliation: the plan's total DMS cost is exactly the sum
     of its movement costs (the Return contributes nothing, paper §2.3) *)
  (match cost with
   | Some _ when ctx.recompute_ok ->
     let total = p.Pdwopt.Pplan.dms_cost in
     let tol = (1e-6 *. Float.abs ctx.recomputed) +. 1e-9 in
     if Float.abs (total -. ctx.recomputed) > tol then
       add ctx r6 p
         "root DMS cost %.6g differs from the sum of recomputed movement \
          costs %.6g"
         total ctx.recomputed
   | _ -> ());
  (List.rev ctx.acc, annotations)

(* The estimator floors every estimate at 1 row (empty inputs, folded
   branches), so a derived upper bound of 0 still admits estimates of a few
   rows: tolerate max(1, hi) plus a small additive slack for unions over
   folded branches. The bounds themselves are sound; only the comparison
   against the *estimator* is slack. *)
let est_within ~lo ~hi est =
  est <= Float.max 1. hi +. 8. +. (1e-6 *. hi) && est >= (lo *. (1. -. 1e-6)) -. 1.

(* R10-R12 over the annotations, in preorder *)
let env_violations annotations =
  List.concat_map
    (fun { node; info = i; _ } ->
       List.map
         (fun (te : Analysis.type_error) ->
            violation r10 node "%s: %s" te.Analysis.expr te.Analysis.reason)
         i.type_errors
       @ (match i.contradiction with
          | Some pred -> [ violation r12 node "contradictory predicate left unfolded: %s" pred ]
          | None -> [])
       @
       match node.Pdwopt.Pplan.op with
       | Pdwopt.Pplan.Return _ ->
         (* the optimizer's Return reports the child's rows, not the
            TOP-clamped count; the runtime oracle covers the gather *)
         []
       | _ ->
         if est_within ~lo:i.card_lo ~hi:i.card_hi node.Pdwopt.Pplan.rows then []
         else
           [ violation r11 node "row estimate %.6g outside derived bounds [%.6g, %.6g]"
               node.Pdwopt.Pplan.rows i.card_lo i.card_hi ])
    annotations

(* -- DSQL rules (R7-R9) -- *)

(* temp-table references in a SQL string: every TEMP_ID_<n> token *)
let temp_refs sql =
  let out = ref [] in
  let n = String.length sql in
  let pat = "TEMP_ID_" in
  let plen = String.length pat in
  let i = ref 0 in
  while !i + plen <= n do
    if String.sub sql !i plen = pat then begin
      let j = ref (!i + plen) in
      while !j < n && sql.[!j] >= '0' && sql.[!j] <= '9' do incr j done;
      if !j > !i + plen then out := String.sub sql !i (!j - !i) :: !out;
      i := !j
    end
    else incr i
  done;
  List.sort_uniq compare !out

(* the plan's Move nodes in DSQL emission order: bottom-up, skipping
   structural duplicates exactly the way generation deduplicates them
   into shared temp tables *)
let collect_moves (p : Pdwopt.Pplan.t) : (Dms.Op.kind * int list) list =
  let seen : (Pdwopt.Pplan.t, unit) Hashtbl.t = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go (n : Pdwopt.Pplan.t) =
    List.iter go n.Pdwopt.Pplan.children;
    match n.Pdwopt.Pplan.op with
    | Pdwopt.Pplan.Move { kind; cols } when not (Hashtbl.mem seen n) ->
      Hashtbl.replace seen n ();
      acc := (kind, cols) :: !acc
    | _ -> ()
  in
  (match p.Pdwopt.Pplan.op, p.Pdwopt.Pplan.children with
   | Pdwopt.Pplan.Return _, [ c ] -> go c
   | _ -> go p);
  List.rev !acc

let check_dsql (p : Pdwopt.Pplan.t) (d : Dsql.Generate.plan) =
  let acc = ref [] in
  let steps = d.Dsql.Generate.steps in
  let v rule step fmt =
    Printf.ksprintf
      (fun message ->
         let subtree =
           match step with
           | Some s -> Dsql.Generate.step_to_string d.Dsql.Generate.reg s
           | None -> subtree_string p
         in
         acc := { rule; message; subtree } :: !acc)
      fmt
  in
  (* R7: ids are 0..n-1 in execution order *)
  List.iteri
    (fun i s ->
       let id = Dsql.Generate.step_id s in
       if id <> i then
         v r7 (Some s) "step at position %d carries id %d (want sequential ids)" i id)
    steps;
  (* R7: exactly one Return step, and it is last *)
  let returns =
    List.filter (function Dsql.Generate.Return_step _ -> true | _ -> false) steps
  in
  (match returns with
   | [ _ ] ->
     (match List.rev steps with
      | Dsql.Generate.Return_step _ :: _ -> ()
      | (Dsql.Generate.Dms_step _ as last) :: _ ->
        v r7 (Some last) "the last step must be the Return step"
      | [] -> ())
   | [] -> v r7 None "no Return step"
   | _ :: _ :: _ ->
     v r7 None "%d Return steps (want exactly one)" (List.length returns));
  (* R7: temp-table names are unique *)
  let temps =
    List.filter_map
      (function
        | Dsql.Generate.Dms_step { temp_table; _ } -> Some temp_table
        | Dsql.Generate.Return_step _ -> None)
      steps
  in
  if List.length temps <> List.length (List.sort_uniq compare temps) then
    v r7 None "duplicate temp-table names: %s" (String.concat ", " temps);
  (* R8: defined-before-use *)
  ignore
    (List.fold_left
       (fun defined s ->
          let sql, own =
            match s with
            | Dsql.Generate.Dms_step { source_sql; temp_table; _ } ->
              (source_sql, Some temp_table)
            | Dsql.Generate.Return_step { sql; _ } -> (sql, None)
          in
          List.iter
            (fun t ->
               if not (List.mem t defined) then
                 v r8 (Some s) "references %s before any step fills it" t)
            (temp_refs sql);
          match own with Some t -> t :: defined | None -> defined)
       [] steps);
  (* R9: DMS steps mirror the plan's movements *)
  let expected = collect_moves p in
  let actual =
    List.filter_map
      (function
        | Dsql.Generate.Dms_step { kind; cols; _ } as s -> Some (s, kind, cols)
        | Dsql.Generate.Return_step _ -> None)
      steps
  in
  if List.length expected <> List.length actual then
    v r9 None "%d DMS steps for %d plan movements" (List.length actual)
      (List.length expected)
  else
    List.iter2
      (fun (ekind, ecols) (s, akind, acols) ->
         if ekind <> akind then
           v r9 (Some s) "step kind %s, plan movement is %s" (Dms.Op.name akind)
             (Dms.Op.name ekind);
         let aids = List.map fst acols in
         if aids <> ecols then
           v r9 (Some s) "temp-table schema covers columns [%s], movement \
                          carries [%s]"
             (ids aids) (ids ecols))
      expected actual;
  (* R10 (DSQL leg): every temp-table schema column resolves in the
     registry, and duplicate emitted names agree on their type *)
  List.iter
    (function
      | Dsql.Generate.Dms_step { cols; _ } as s ->
        List.iter
          (fun (te : Analysis.type_error) ->
             v r10 (Some s) "%s: %s" te.Analysis.expr te.Analysis.reason)
          (Analysis.check_temp_cols d.Dsql.Generate.reg cols)
      | Dsql.Generate.Return_step _ -> ())
    steps;
  List.rev !acc

(* -- plan-level views of the annotations -- *)

let annotations (actx : Analysis.ctx) p =
  snd (interpret ~env:actx ~costs:false ~shell:actx.Analysis.shell p)

let annotate actx p = List.map (fun a -> (a.node, a.info)) (annotations actx p)

let group_bounds actx p =
  let tbl : (int, float * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun { node = n; info; _ } ->
       match n.Pdwopt.Pplan.op with
       | Pdwopt.Pplan.Return _ -> () (* TOP applies after the gather, not at exec *)
       | _ ->
         let g = n.Pdwopt.Pplan.group in
         if g >= 0 then
           let lo, hi =
             match Hashtbl.find_opt tbl g with
             | Some (l, h) -> (Float.max l info.card_lo, Float.min h info.card_hi)
             | None -> (info.card_lo, info.card_hi)
           in
           Hashtbl.replace tbl g (lo, hi))
    (annotations actx p);
  tbl

(* The ±0.5 slack makes the integral comparison robust to float
   accumulation; synthetic nodes (group -1) are never in a [group_bounds]
   table, so they go unchecked. *)
let bounds_observer ?(obs = Obs.null) (tbl : (int, float * float) Hashtbl.t) =
  let violations = ref 0 in
  let observe (n : Pdwopt.Pplan.t) observed =
    match Hashtbl.find_opt tbl n.Pdwopt.Pplan.group with
    | Some (lo, hi) when observed < lo -. 0.5 || observed > hi +. 0.5 ->
      incr violations;
      Obs.add obs "analysis.bound_violations" 1
    | _ -> ()
  in
  (observe, fun () -> !violations)

let card_str v = if Float.is_finite v then Printf.sprintf "%.6g" v else "inf"

let render (actx : Analysis.ctx) p =
  let buf = Buffer.create 1024 in
  List.iter
    (fun { depth; node = n; info = i } ->
       let indent = String.make (2 * depth) ' ' in
       Buffer.add_string buf
         (Printf.sprintf "%s%s  {%s, rows=%.0f, bounds=[%s, %s]}\n" indent
            (Pdwopt.Pplan.op_to_string actx.Analysis.reg n.Pdwopt.Pplan.op)
            (Dms.Distprop.short_string n.Pdwopt.Pplan.dist)
            n.Pdwopt.Pplan.rows (card_str i.card_lo) (card_str i.card_hi));
       (match i.contradiction with
        | Some pred ->
          Buffer.add_string buf
            (Printf.sprintf "%s  !! contradiction: %s\n" indent pred)
        | None -> ());
       List.iter
         (fun (te : Analysis.type_error) ->
            Buffer.add_string buf
              (Printf.sprintf "%s  !! type error: %s: %s\n" indent te.Analysis.expr
                 te.Analysis.reason))
         i.type_errors)
    (annotations actx p);
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
       match ch with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\r' -> Buffer.add_string buf "\\r"
       | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_num v =
  if Float.is_finite v then
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  else "null"

(* Refined (non-top) column intervals worth showing, stable order. *)
let notable_ivs (env : Analysis.env) =
  Analysis.fold_ivs
    (fun c iv acc -> if iv = Analysis.top_iv then acc else (c, iv) :: acc)
    env []
  |> List.rev

let render_json (actx : Analysis.ctx) p =
  let reg = actx.Analysis.reg in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  List.iteri
    (fun idx { node = n; info = i; _ } ->
       if idx > 0 then Buffer.add_string buf ",";
       Buffer.add_string buf
         (Printf.sprintf
            "\n  {\"op\": \"%s\", \"dist\": \"%s\", \"group\": %d, \"rows\": %s, \
             \"lo\": %s, \"hi\": %s"
            (json_escape (Pdwopt.Pplan.op_to_string reg n.Pdwopt.Pplan.op))
            (json_escape (Dms.Distprop.short_string n.Pdwopt.Pplan.dist))
            n.Pdwopt.Pplan.group (json_num n.Pdwopt.Pplan.rows) (json_num i.card_lo)
            (json_num i.card_hi));
       (match i.contradiction with
        | Some c ->
          Buffer.add_string buf (Printf.sprintf ", \"contradiction\": \"%s\"" (json_escape c))
        | None -> ());
       if i.type_errors <> [] then begin
         Buffer.add_string buf ", \"type_errors\": [";
         List.iteri
           (fun j (te : Analysis.type_error) ->
              if j > 0 then Buffer.add_string buf ", ";
              Buffer.add_string buf
                (Printf.sprintf "{\"expr\": \"%s\", \"reason\": \"%s\"}"
                   (json_escape te.Analysis.expr) (json_escape te.Analysis.reason)))
           i.type_errors;
         Buffer.add_string buf "]"
       end;
       let cols = notable_ivs i.out_env in
       if cols <> [] then begin
         Buffer.add_string buf ", \"cols\": {";
         List.iteri
           (fun j (c, iv) ->
              if j > 0 then Buffer.add_string buf ", ";
              let label =
                try Registry.label reg c with Invalid_argument _ -> Printf.sprintf "#%d" c
              in
              Buffer.add_string buf
                (Printf.sprintf "\"%s\": \"%s\"" (json_escape label)
                   (json_escape (Analysis.iv_to_string iv))))
           cols;
         Buffer.add_string buf "}"
       end;
       Buffer.add_string buf "}")
    (annotations actx p);
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

(* -- entry points -- *)

let report obs ~rules_run vs =
  Obs.add obs "check.rules_run" rules_run;
  Obs.add obs "check.violations" (List.length vs)

let validate ?(obs = Obs.null) ?cost ?dsql ~shell (p : Pdwopt.Pplan.t) :
  violation list =
  let env =
    Option.map
      (fun (cm : cost_model) -> Analysis.context ~shell ~reg:cm.reg ~nodes:cm.nodes)
      cost
  in
  let audit, annotations = interpret ?cost ?env ~costs:true ~shell p in
  let vs =
    audit @ env_violations annotations
    @ match dsql with None -> [] | Some d -> check_dsql p d
  in
  let rules_run =
    6 + (if cost = None then 0 else 4) + if dsql = None then 0 else 3
  in
  report obs ~rules_run vs;
  vs

let validate_exec ?(obs = Obs.null) ~shell (p : Pdwopt.Pplan.t) : violation list =
  let vs, _ = interpret ~costs:false ~shell p in
  report obs ~rules_run:5 vs;
  vs
