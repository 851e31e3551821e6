(** Global column identities.

    Every column instance — base-table columns per table reference, and
    derived columns (aggregate outputs, computed projections) — receives a
    unique integer id at algebrization time. Expressions refer to columns by
    id only, which makes join reordering and data-movement insertion
    rebinding-free throughout the optimizer (no positional references). *)

type col_info = {
  id : int;
  name : string;                  (** display name, e.g. [o_custkey] or [col1] *)
  ty : Catalog.Types.t;
  width : float;                  (** average width in bytes *)
  source : source;
}

and source =
  | Base of { table : string; alias : string; column : string }
  | Derived of string             (** description, e.g. "SUM(l_quantity)" *)

type t = {
  mutable next : int;
  infos : (int, col_info) Hashtbl.t;
  stats : (int, Catalog.Col_stats.t) Hashtbl.t;
}

let create () = { next = 0; infos = Hashtbl.create 64; stats = Hashtbl.create 64 }

(** An independent fork: the same columns and statistics, and the next
    {!fresh} id equal to the source's. Allocating in one never shows in
    the other. *)
let copy t = { next = t.next; infos = Hashtbl.copy t.infos; stats = Hashtbl.copy t.stats }

let fresh t ~name ~ty ~width source =
  let id = t.next in
  t.next <- t.next + 1;
  Hashtbl.replace t.infos id { id; name; ty; width; source };
  id

let info t id =
  match Hashtbl.find_opt t.infos id with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Registry.info: unknown column #%d" id)

let name t id = (info t id).name
let ty t id = (info t id).ty
let width t id = (info t id).width

let set_stats t id s = Hashtbl.replace t.stats id s
let stats t id = Hashtbl.find_opt t.stats id

(** A stable, human-readable label: [alias.column] for base columns. *)
let label t id =
  match (info t id).source with
  | Base { alias; column; _ } -> alias ^ "." ^ column
  | Derived d -> d

let count t = t.next

module Col_set = Set.Make (Int)
module Col_map = Map.Make (Int)
