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

(* Indexed by column id: ids are dense, [0] to [next - 1]. *)
type t = {
  mutable next : int;
  mutable infos : col_info array;
  mutable stats : Catalog.Col_stats.t option array;
}

let unused = { id = -1; name = ""; ty = Catalog.Types.Tint; width = 0.; source = Derived "" }

let create () = { next = 0; infos = Array.make 64 unused; stats = Array.make 64 None }

(** An independent fork: the same columns and statistics, and the next
    {!fresh} id equal to the source's. Allocating in one never shows in
    the other. *)
let copy t = { next = t.next; infos = Array.copy t.infos; stats = Array.copy t.stats }

(* [a] with room for index [i], new slots [fill]. *)
let room a i fill =
  if i < Array.length a then a
  else begin
    let b = Array.make (Int.max (i + 1) (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let fresh t ~name ~ty ~width source =
  let id = t.next in
  t.next <- t.next + 1;
  t.infos <- room t.infos id unused;
  t.infos.(id) <- { id; name; ty; width; source };
  id

let info t id =
  if id >= 0 && id < t.next then t.infos.(id)
  else invalid_arg (Printf.sprintf "Registry.info: unknown column #%d" id)

let name t id = (info t id).name
let ty t id = (info t id).ty
let width t id = (info t id).width

let set_stats t id s =
  if id < 0 then invalid_arg (Printf.sprintf "Registry.set_stats: negative column #%d" id);
  t.stats <- room t.stats id None;
  t.stats.(id) <- Some s

let stats t id = if id >= 0 && id < Array.length t.stats then t.stats.(id) else None

(** A stable, human-readable label: [alias.column] for base columns. *)
let label t id =
  match (info t id).source with
  | Base { alias; column; _ } -> alias ^ "." ^ column
  | Derived d -> d

let count t = t.next

(** Sets of column ids as immutable bitsets: bit [i mod w] of word
    [i / w] holds id [i], where [w = Sys.int_size] (63). Ids are dense small integers, so a set is a few
    words, and union, intersection and inclusion are word loops. A set
    never ends in a zero word, so polymorphic [=] is set equality. Every
    iteration runs in ascending id order, as [Set.Make (Int)]'s did. *)
module Col_set : sig
  type t

  val empty : t
  val is_empty : t -> bool
  val mem : int -> t -> bool
  val add : int -> t -> t
  val of_list : int list -> t
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val subset : t -> t -> bool
  val cardinal : t -> int
  val iter : (int -> unit) -> t -> unit
  val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
  val for_all : (int -> bool) -> t -> bool
  val elements : t -> int list
  val min_elt : t -> int
  val choose_opt : t -> int option
end = struct
  type t = int array

  let bits = Sys.int_size

  let empty = [||]

  let is_empty s = Array.length s = 0

  let check i = if i < 0 then invalid_arg (Printf.sprintf "Col_set: negative id %d" i)

  let mem i s =
    let q = i / bits in
    i >= 0 && q < Array.length s && (s.(q) lsr (i - (q * bits))) land 1 = 1

  let add i s =
    if mem i s then s
    else begin
      check i;
      let q = i / bits in
      let r = Array.make (Int.max (Array.length s) (q + 1)) 0 in
      Array.blit s 0 r 0 (Array.length s);
      r.(q) <- r.(q) lor (1 lsl (i - (q * bits)));
      r
    end

  let of_list l =
    let top = List.fold_left (fun m i -> check i; Int.max m i) (-1) l in
    if top < 0 then empty
    else begin
      let r = Array.make ((top / bits) + 1) 0 in
      List.iter (fun i -> let q = i / bits in r.(q) <- r.(q) lor (1 lsl (i - (q * bits)))) l;
      r
    end

  (* The first [n] words of [r], without trailing zero words. *)
  let trim r n =
    let n = ref n in
    while !n > 0 && r.(!n - 1) = 0 do decr n done;
    if !n = Array.length r then r else Array.sub r 0 !n

  let union a b =
    let a, b = if Array.length a >= Array.length b then (a, b) else (b, a) in
    if a == b || Array.length b = 0 then a
    else begin
      let r = Array.copy a in
      for q = 0 to Array.length b - 1 do
        r.(q) <- a.(q) lor b.(q)
      done;
      r
    end

  let inter a b =
    let n = Int.min (Array.length a) (Array.length b) in
    let r = Array.make n 0 in
    for q = 0 to n - 1 do
      r.(q) <- a.(q) land b.(q)
    done;
    trim r n

  let diff a b =
    let n = Array.length a and nb = Array.length b in
    let r = Array.copy a in
    for q = 0 to Int.min n nb - 1 do
      r.(q) <- a.(q) land lnot b.(q)
    done;
    trim r n

  (* [a] has no trailing zero word, so a longer [a] holds an id [b] lacks. *)
  let subset a b =
    let n = Array.length a in
    n <= Array.length b
    &&
    let rec go q = q >= n || (a.(q) land lnot b.(q) = 0 && go (q + 1)) in
    go 0

  let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

  let cardinal s = Array.fold_left (fun n w -> n + popcount w) 0 s

  (* Index of the one set bit of [b]. *)
  let ctz b =
    let n = ref 0 and b = ref b in
    if !b land 0xFFFF_FFFF = 0 then (n := 32; b := !b lsr 32);
    if !b land 0xFFFF = 0 then (n := !n + 16; b := !b lsr 16);
    if !b land 0xFF = 0 then (n := !n + 8; b := !b lsr 8);
    if !b land 0xF = 0 then (n := !n + 4; b := !b lsr 4);
    if !b land 0x3 = 0 then (n := !n + 2; b := !b lsr 2);
    if !b land 0x1 = 0 then incr n;
    !n

  let fold f s acc =
    let acc = ref acc in
    for q = 0 to Array.length s - 1 do
      let w = ref s.(q) in
      while !w <> 0 do
        let b = !w land - !w in
        acc := f ((q * bits) + ctz b) !acc;
        w := !w lxor b
      done
    done;
    !acc

  let iter f s = fold (fun i () -> f i) s ()

  let for_all p s =
    let rec word q w =
      if w = 0 then q + 1 >= Array.length s || word (q + 1) s.(q + 1)
      else
        let b = w land -w in
        p ((q * bits) + ctz b) && word q (w lxor b)
    in
    Array.length s = 0 || word 0 s.(0)

  let elements s = List.rev (fold List.cons s [])

  let choose_opt s =
    let rec go q =
      if q >= Array.length s then None
      else if s.(q) = 0 then go (q + 1)
      else Some ((q * bits) + ctz (s.(q) land - s.(q)))
    in
    go 0

  let min_elt s = match choose_opt s with Some i -> i | None -> raise Not_found
end

module Col_map = Map.Make (Int)
