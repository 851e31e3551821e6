(** Minimal self-contained XML writer and reader (no external dependency).
    Supports elements, attributes, self-closing tags, comments, and the five
    predefined entities — all that the MEMO interchange format needs.

    Both halves are single-pass and build no tree. The writer appends
    straight into a [Buffer.t], one element per line, indented two spaces
    per level. The reader is a cursor over the document string: it visits
    elements in document order, compares tag and attribute names in place,
    and decodes attribute values from the string only when asked to. *)

exception Xml_error of string

(* -- writing -- *)

let needs_escape = function '&' | '<' | '>' | '"' | '\'' -> true | _ -> false

(** Append [s] with the five predefined entities escaped; a value with
    nothing to escape is copied in one piece. *)
let add_escaped buf s =
  let n = String.length s in
  let last = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      Buffer.add_substring buf s !last (i - !last);
      Buffer.add_string buf
        (match c with
         | '&' -> "&amp;" | '<' -> "&lt;" | '>' -> "&gt;" | '"' -> "&quot;" | _ -> "&apos;");
      last := i + 1
    end
  done;
  Buffer.add_substring buf s !last (n - !last)

(** Append the decimal digits of [i] (as [string_of_int] prints them). *)
let rec add_int buf i =
  if i < 0 then
    if i = min_int then Buffer.add_string buf (string_of_int i)
    else begin
      Buffer.add_char buf '-';
      add_int buf (-i)
    end
  else begin
    if i >= 10 then add_int buf (i / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))
  end

let spaces = String.make 64 ' '

let rec indent buf depth =
  if depth <= 32 then Buffer.add_substring buf spaces 0 (2 * depth)
  else begin
    Buffer.add_string buf spaces;
    indent buf (depth - 32)
  end

(** [start_tag buf depth tag] begins element [tag] on its own line at
    nesting [depth]; attributes follow, then {!end_empty} or
    {!end_start}. *)
let start_tag buf depth tag =
  indent buf depth;
  Buffer.add_char buf '<';
  Buffer.add_string buf tag

(** [attr_open buf name] begins attribute [name]: the caller appends the
    (already escaped) value, then calls {!attr_close}. *)
let attr_open buf name =
  Buffer.add_char buf ' ';
  Buffer.add_string buf name;
  Buffer.add_string buf "=\""

let attr_close buf = Buffer.add_char buf '"'

let add_attr buf name v =
  attr_open buf name;
  add_escaped buf v;
  attr_close buf

let add_int_attr buf name i =
  attr_open buf name;
  add_int buf i;
  attr_close buf

(** Close the start tag of an element with no children. *)
let end_empty buf = Buffer.add_string buf "/>\n"

(** Close the start tag of an element whose children follow; end it with
    {!end_tag}. *)
let end_start buf = Buffer.add_string buf ">\n"

let end_tag buf depth tag =
  indent buf depth;
  Buffer.add_string buf "</";
  Buffer.add_string buf tag;
  Buffer.add_string buf ">\n"

(* -- reading -- *)

(** A cursor over a document. The {e current} element is the one the last
    {!element} opened; its attributes are readable until the next
    {!element}. *)
type reader = {
  s : string;
  mutable pos : int;
  mutable tag : int;            (** offset of the current element's name *)
  mutable tag_len : int;
  mutable empty : bool;         (** current element self-closing, children unread *)
  mutable nattrs : int;
  mutable spans : int array;
      (** per attribute of the current element: name offset, name length,
          value offset, value length, whether the value holds an entity *)
  mutable open_tags : int array;  (** name offset and length per open element *)
  mutable ints : int array;       (** scratch for integer list attributes *)
  mutable entity : bool;          (** scratch: the value being scanned holds an entity *)
  mutable depth : int;            (** elements opened and not yet closed *)
}

let reader s =
  { s; pos = 0; tag = 0; tag_len = 0; empty = false; nattrs = 0;
    spans = Array.make 40 0; open_tags = Array.make 32 0;
    ints = Array.make 16 0; entity = false; depth = 0 }

let error r msg = raise (Xml_error (Printf.sprintf "%s at offset %d" msg r.pos))

let at_end r = r.pos >= String.length r.s

(* The scanning helpers are closed top-level functions over locals (a
   local closure would be allocated on every call); they store the cursor
   once. *)
let rec ws_end s i =
  if i < String.length s
  && (match String.unsafe_get s i with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  then ws_end s (i + 1)
  else i

let skip_ws r = r.pos <- ws_end r.s r.pos

(* the [n] bytes of [s] from [i] equal those of [t] from [j] (in range) *)
let rec same s i t j n =
  n <= 0
  || (String.unsafe_get s i = String.unsafe_get t j && same s (i + 1) t (j + 1) (n - 1))

(* [lit] at [i] in [s] *)
let matches s i lit =
  i >= 0 && i + String.length lit <= String.length s && same s i lit 0 (String.length lit)

let expect_char r c =
  if r.pos < String.length r.s && String.unsafe_get r.s r.pos = c then r.pos <- r.pos + 1
  else error r (Printf.sprintf "expected %c" c)

(* whitespace, comments and processing instructions *)
let rec skip_misc r =
  skip_ws r;
  let p = r.pos in
  if p + 1 < String.length r.s && String.unsafe_get r.s p = '<' then
    match String.unsafe_get r.s (p + 1) with
    | '!' when matches r.s p "<!--" ->
      let rec find i =
        if i + 2 >= String.length r.s then error r "unterminated comment"
        else if matches r.s i "-->" then i + 3
        else find (i + 1)
      in
      r.pos <- find (p + 4);
      skip_misc r
    | '?' ->
      (match String.index_from_opt r.s p '>' with
       | Some i -> r.pos <- i + 1
       | None -> error r "unterminated processing instruction");
      skip_misc r
    | _ -> ()

let rec name_end s i =
  if i < String.length s
  && (match String.unsafe_get s i with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | ':' | '.' -> true
      | _ -> false)
  then name_end s (i + 1)
  else i

(* the name at the cursor, as its length (the cursor moves past it) *)
let read_name r =
  let start = r.pos in
  r.pos <- name_end r.s start;
  if r.pos = start then error r "expected name";
  r.pos - start

(* the length of the predefined entity whose name starts at [i] (just
   after its '&'), up to and including the ';' *)
let entity_len r i =
  let ok lit = if matches r.s i lit then String.length lit else 0 in
  let n =
    match if i < String.length r.s then r.s.[i] else ' ' with
    | 'a' -> max (ok "amp;") (ok "apos;")
    | 'l' -> ok "lt;"
    | 'g' -> ok "gt;"
    | 'q' -> ok "quot;"
    | _ -> 0
  in
  if n = 0 then begin
    r.pos <- i - 1;
    error r
      (match String.index_from_opt r.s i ';' with
       | Some _ -> "unknown entity in attribute value"
       | None -> "unterminated entity in attribute value")
  end;
  n

(* the end of an attribute value from [i]: its closing [quote]; whether
   it holds an entity goes to [r.entity] *)
let rec value_end r s quote i =
  if i >= String.length s then begin
    r.pos <- i;
    error r "unterminated attribute value"
  end
  else
    match String.unsafe_get s i with
    | '&' ->
      r.entity <- true;
      value_end r s quote (i + 1 + entity_len r (i + 1))
    | c when c = quote -> i
    | _ -> value_end r s quote (i + 1)

let push_attr r ~name ~name_len ~value ~value_len ~entity =
  let k = 5 * r.nattrs in
  if k + 5 > Array.length r.spans then begin
    let bigger = Array.make (2 * Array.length r.spans) 0 in
    Array.blit r.spans 0 bigger 0 k;
    r.spans <- bigger
  end;
  r.spans.(k) <- name;
  r.spans.(k + 1) <- name_len;
  r.spans.(k + 2) <- value;
  r.spans.(k + 3) <- value_len;
  r.spans.(k + 4) <- (if entity then 1 else 0);
  r.nattrs <- r.nattrs + 1

let push_open r =
  let k = 2 * r.depth in
  if k + 2 > Array.length r.open_tags then begin
    let bigger = Array.make (2 * Array.length r.open_tags) 0 in
    Array.blit r.open_tags 0 bigger 0 k;
    r.open_tags <- bigger
  end;
  r.open_tags.(k) <- r.tag;
  r.open_tags.(k + 1) <- r.tag_len;
  r.depth <- r.depth + 1

(* the attributes of a start tag up to its end, ['>'] or ["/>"] *)
let rec read_attrs r =
  skip_ws r;
  if at_end r then error r "unexpected end of input in tag";
  match String.unsafe_get r.s r.pos with
  | '/' ->
    r.pos <- r.pos + 1;
    expect_char r '>';
    r.empty <- true
  | '>' ->
    r.pos <- r.pos + 1;
    r.empty <- false;
    push_open r
  | _ ->
    let name = r.pos in
    let name_len = read_name r in
    skip_ws r;
    expect_char r '=';
    skip_ws r;
    let quote =
      match if at_end r then ' ' else r.s.[r.pos] with
      | ('"' | '\'') as q -> q
      | _ -> error r "expected quoted attribute value"
    in
    let value = r.pos + 1 in
    r.entity <- false;
    let stop = value_end r r.s quote value in
    r.pos <- stop + 1;
    push_attr r ~name ~name_len ~value ~value_len:(stop - value) ~entity:r.entity;
    read_attrs r

(* open the element whose ['<'] is at the cursor *)
let open_element r =
  expect_char r '<';
  r.tag <- r.pos;
  r.tag_len <- read_name r;
  r.nattrs <- 0;
  read_attrs r

(** Open the next element: its name and attributes become the current
    element's. Comments, processing instructions and whitespace before it
    are skipped. *)
let element r =
  skip_misc r;
  open_element r

let span_is s off len lit = len = String.length lit && same s off lit 0 len

(** Whether the current element is named [name]. *)
let is r name = span_is r.s r.tag r.tag_len name

let tag_name r = String.sub r.s r.tag r.tag_len

(** Open the next element, which must be named [name]. *)
let expect r name =
  element r;
  if not (is r name) then
    error r (Printf.sprintf "expected <%s>, found <%s>" name (tag_name r))

(* the moment the cursor sits on a child's '<' (true) or has consumed the
   closing tag of the innermost open element (false) *)
let rec child_start r =
  skip_misc r;
  if at_end r then begin
    let k = 2 * (r.depth - 1) in
    error r
      (Printf.sprintf "unexpected end of input in <%s>"
         (String.sub r.s r.open_tags.(k) r.open_tags.(k + 1)))
  end
  else if String.unsafe_get r.s r.pos <> '<' then begin
    (* text content is ignored (the MEMO format carries data in
       attributes only) *)
    while r.pos < String.length r.s && String.unsafe_get r.s r.pos <> '<' do
      r.pos <- r.pos + 1
    done;
    child_start r
  end
  else if r.pos + 1 < String.length r.s && String.unsafe_get r.s (r.pos + 1) = '/' then begin
    r.pos <- r.pos + 2;
    let k = 2 * (r.depth - 1) in
    let tag = r.open_tags.(k) and tag_len = r.open_tags.(k + 1) in
    let closing = r.pos in
    let len = read_name r in
    if not (len = tag_len && same r.s closing r.s tag len) then
      error r
        (Printf.sprintf "mismatched </%s>, expected </%s>" (String.sub r.s closing len)
           (String.sub r.s tag tag_len));
    skip_ws r;
    expect_char r '>';
    r.depth <- r.depth - 1;
    false
  end
  else true

(** [children r f] visits the children of the current element in order:
    each is opened with {!element} and [f ()] is called on it; whatever
    [f] leaves unread of a child (its attributes, its own children) is
    skipped. Returns after the current element's closing tag. *)
let rec children r f =
  if r.empty then r.empty <- false
  else begin
    let depth = r.depth in
    while child_start r do
      open_element r;
      f ();
      if r.empty then r.empty <- false
      else if r.depth > depth then children r ignore
    done
  end

(** Whether the current element closed itself ([<a/>]): it has no
    children. *)
let self_closing r = r.empty

(* -- attributes of the current element -- *)

(* the span offset of attribute [name], from the [i]th on; -1 if none *)
let rec find_attr_from r name i =
  if i >= r.nattrs then -1
  else if span_is r.s r.spans.(5 * i) r.spans.((5 * i) + 1) name then 5 * i
  else find_attr_from r name (i + 1)

let find_attr r name = find_attr_from r name 0

let has_attr r name = find_attr r name >= 0

let attr_span r name =
  let k = find_attr r name in
  if k < 0 then
    raise (Xml_error (Printf.sprintf "missing attribute %s on <%s>" name (tag_name r)));
  k

let unescape s off len =
  let b = Buffer.create len in
  let i = ref off in
  while !i < off + len do
    let c = s.[!i] in
    if c = '&' then begin
      let ent, n =
        if matches s (!i + 1) "amp;" then ('&', 5)
        else if matches s (!i + 1) "lt;" then ('<', 4)
        else if matches s (!i + 1) "gt;" then ('>', 4)
        else if matches s (!i + 1) "quot;" then ('"', 6)
        else ('\'', 6)  (* "apos;": the only entity left once [element] has read it *)
      in
      Buffer.add_char b ent;
      i := !i + n
    end
    else begin
      Buffer.add_char b c;
      incr i
    end
  done;
  Buffer.contents b

(** The bytes of the current element's start tag, from its ['<'] to its
    closing ['>'], with attribute [name] cut out: equal for two elements
    that differ only in [name]. Only valid right after {!element}. *)
let tag_bytes_without r name =
  let k = attr_span r name in
  let first = r.tag - 1 and cut = r.spans.(k) - 1 in
  let resume = r.spans.(k + 2) + r.spans.(k + 3) + 1 in
  let b = Bytes.create (cut - first + r.pos - resume) in
  Bytes.blit_string r.s first b 0 (cut - first);
  Bytes.blit_string r.s resume b (cut - first) (r.pos - resume);
  Bytes.unsafe_to_string b

(** The value of attribute [name], unescaped. *)
let attr_string r name =
  let k = attr_span r name in
  let off = r.spans.(k + 2) and len = r.spans.(k + 3) in
  if r.spans.(k + 4) = 0 then String.sub r.s off len else unescape r.s off len

(** Whether attribute [name] is exactly [lit] (which holds no entity). *)
let attr_is r name lit =
  let k = attr_span r name in
  span_is r.s r.spans.(k + 2) r.spans.(k + 3) lit

(** The value that [table] pairs with attribute [name]'s value; [what]
    names the value in the error raised when the table lacks it. *)
let rec enum_from r name what table k i =
  if i >= Array.length table then
    raise (Xml_error (Printf.sprintf "unknown %s %s" what (attr_string r name)))
  else if span_is r.s r.spans.(k + 2) r.spans.(k + 3) (fst table.(i)) then snd table.(i)
  else enum_from r name what table k (i + 1)

let attr_enum r name ~what (table : (string * 'a) array) : 'a =
  enum_from r name what table (attr_span r name) 0

let bad_int r name =
  raise (Xml_error (Printf.sprintf "bad integer %S" (attr_string r name)))

(* the decimal integer with an optional '-' from [off] to [stop]
   (exclusive), accumulated negatively so [min_int] reads too *)
let int_in r name off stop =
  let neg = off < stop && String.unsafe_get r.s off = '-' in
  let start = if neg then off + 1 else off in
  if start >= stop then bad_int r name;
  let acc = ref 0 in
  for i = start to stop - 1 do
    match String.unsafe_get r.s i with
    | '0' .. '9' as c ->
      let d = Char.code c - 48 in
      if !acc < (min_int + d) / 10 then bad_int r name;
      acc := (!acc * 10) - d
    | _ -> bad_int r name
  done;
  if neg then !acc else if !acc = min_int then bad_int r name else - !acc

(** Attribute [name] as a decimal integer. *)
let attr_int r name =
  let k = attr_span r name in
  let off = r.spans.(k + 2) in
  int_in r name off (off + r.spans.(k + 3))

(* decodes the comma-separated integers of attribute [name] ([""] is
   none) into [r.ints]; returns how many there are *)
let read_ints r name =
  let k = attr_span r name in
  let off = r.spans.(k + 2) and len = r.spans.(k + 3) in
  let stop = off + len and count = ref 0 in
  if len > 0 then begin
    let i = ref off in
    while !i <= stop do
      let j = ref !i in
      while !j < stop && String.unsafe_get r.s !j <> ',' do incr j done;
      if !count >= Array.length r.ints then begin
        let bigger = Array.make (2 * Array.length r.ints) 0 in
        Array.blit r.ints 0 bigger 0 !count;
        r.ints <- bigger
      end;
      r.ints.(!count) <- int_in r name !i !j;
      incr count;
      i := !j + 1
    done
  end;
  !count

(** Attribute [name] as a comma-separated list of integers. *)
let attr_int_list r name =
  let n = read_ints r name in
  let l = ref [] in
  for i = n - 1 downto 0 do l := r.ints.(i) :: !l done;
  !l

let attr_int_array r name = Array.sub r.ints 0 (read_ints r name)

let rec digits_only s i stop =
  i >= stop || (match String.unsafe_get s i with '0' .. '9' -> digits_only s (i + 1) stop | _ -> false)

(** Attribute [name] as a float, in any syntax [float_of_string] reads.
    Up to 15 plain digits are read as an integer, which converts exactly. *)
let attr_float r name =
  let k = attr_span r name in
  let off = r.spans.(k + 2) and len = r.spans.(k + 3) in
  if len > 0 && len <= 15 && digits_only r.s off (off + len) then
    float_of_int (int_in r name off (off + len))
  else
    match float_of_string_opt (attr_string r name) with
    | Some f -> f
    | None -> raise (Xml_error (Printf.sprintf "bad float %S" (attr_string r name)))
