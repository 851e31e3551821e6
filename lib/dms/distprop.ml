(** Distribution properties of intermediate results in the appliance.

    A stream is either hash-partitioned across the compute nodes on an
    ordered column list, replicated on every compute node, or resident on a
    single node (the control node, for final gathering). *)

open Algebra

type t =
  | Hashed of int list   (** partition columns (registry ids), in hash order *)
  | Replicated
  | Single_node

let equal a b =
  match a, b with
  | Hashed x, Hashed y -> List.equal Int.equal x y
  | Replicated, Replicated | Single_node, Single_node -> true
  | _ -> false

let to_string reg = function
  | Hashed cols ->
    Printf.sprintf "HASHED(%s)" (String.concat "," (List.map (Registry.label reg) cols))
  | Replicated -> "REPLICATED"
  | Single_node -> "SINGLE"

let short_string = function
  | Hashed cols -> Printf.sprintf "H(%s)" (String.concat "," (List.map string_of_int cols))
  | Replicated -> "R"
  | Single_node -> "S"

(** Hash-distribution compatibility for an equi join: both sides hashed on
    column lists of equal length whose corresponding positions are equated
    by the join predicate (or are the same column). *)
let hash_compatible ~equi lcols rcols =
  lcols <> [] && rcols <> []
  && List.length lcols = List.length rcols
  && List.for_all2
    (fun lc rc ->
       List.exists (fun (a, b) -> (a = lc && b = rc) || (a = rc && b = lc)) equi)
    lcols rcols

(** Output distribution of a join executed locally (without data movement),
    or [None] if the child distributions make local execution incorrect.
    [equi] is oriented (left col, right col). *)
let join_local ~(kind : Relop.join_kind) ~equi (l : t) (r : t) : t option =
  let preserves_left_only =
    match kind with
    | Relop.Semi | Relop.Anti_semi | Relop.Left_outer -> true
    | Relop.Inner | Relop.Cross -> false
  in
  match l, r with
  | Hashed lc, Hashed rc -> if hash_compatible ~equi lc rc then Some (Hashed lc) else None
  | Hashed lc, Replicated -> Some (Hashed lc)
  | Replicated, Hashed rc ->
    (* every node holds the full left input; correct for inner/cross joins,
       but semi/anti/outer would emit a left row once per node *)
    if preserves_left_only then None else Some (Hashed rc)
  | Replicated, Replicated -> Some Replicated
  | Single_node, Single_node -> Some Single_node
  | Single_node, Replicated -> Some Single_node
  | Replicated, Single_node -> if preserves_left_only then None else Some Single_node
  | Hashed _, Single_node | Single_node, Hashed _ -> None

(** Can a group-by with the given keys run to completion locally on each
    node?  True when the input partitioning columns are a subset of the
    keys (all rows of a group are co-resident), or the input is not
    partitioned at all. *)
let groupby_local ~keys (d : t) : t option =
  match d with
  | Hashed cols ->
    if cols <> [] && List.for_all (fun c -> List.mem c keys) cols then Some (Hashed cols)
    else None
  | Replicated -> Some Replicated
  | Single_node -> Some Single_node
