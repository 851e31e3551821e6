(** Minimal self-contained XML reader/writer (no external dependency).
    Supports elements, attributes, self-closing tags, comments, and the five
    predefined entities — all that the MEMO interchange format needs. *)

type node = {
  tag : string;
  attrs : (string * string) list;
  children : node list;
}

exception Xml_error of string

let node ?(attrs = []) ?(children = []) tag = { tag; attrs; children }

let attr n name =
  match List.assoc_opt name n.attrs with
  | Some v -> v
  | None -> raise (Xml_error (Printf.sprintf "missing attribute %s on <%s>" name n.tag))

let attr_opt n name = List.assoc_opt name n.attrs

let child n tag_name =
  match List.find_opt (fun c -> c.tag = tag_name) n.children with
  | Some c -> c
  | None -> raise (Xml_error (Printf.sprintf "missing child <%s> of <%s>" tag_name n.tag))

let child_opt n tag_name = List.find_opt (fun c -> c.tag = tag_name) n.children

let children_named n tag_name = List.filter (fun c -> c.tag = tag_name) n.children

(* -- writing -- *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
       match c with
       | '&' -> Buffer.add_string b "&amp;"
       | '<' -> Buffer.add_string b "&lt;"
       | '>' -> Buffer.add_string b "&gt;"
       | '"' -> Buffer.add_string b "&quot;"
       | '\'' -> Buffer.add_string b "&apos;"
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_buffer buf n =
  let rec go indent n =
    Buffer.add_string buf indent;
    Buffer.add_char buf '<';
    Buffer.add_string buf n.tag;
    List.iter
      (fun (k, v) ->
         Buffer.add_char buf ' ';
         Buffer.add_string buf k;
         Buffer.add_string buf "=\"";
         Buffer.add_string buf (escape v);
         Buffer.add_char buf '"')
      n.attrs;
    if n.children = [] then Buffer.add_string buf "/>\n"
    else begin
      Buffer.add_string buf ">\n";
      List.iter (go (indent ^ "  ")) n.children;
      Buffer.add_string buf indent;
      Buffer.add_string buf "</";
      Buffer.add_string buf n.tag;
      Buffer.add_string buf ">\n"
    end
  in
  go "" n

let to_string n =
  let b = Buffer.create 4096 in
  to_buffer b n;
  Buffer.contents b

(* -- parsing -- *)

type cursor = { s : string; mutable pos : int }

let peek_char c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let error c msg =
  raise (Xml_error (Printf.sprintf "%s at offset %d" msg c.pos))

let skip_ws c =
  while c.pos < String.length c.s
        && (match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
    c.pos <- c.pos + 1
  done

let expect_str c str =
  let n = String.length str in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = str then c.pos <- c.pos + n
  else error c (Printf.sprintf "expected %s" str)

let is_name_char ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9')
  || ch = '_' || ch = '-' || ch = ':' || ch = '.'

let read_name c =
  let start = c.pos in
  while c.pos < String.length c.s && is_name_char c.s.[c.pos] do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then error c "expected name";
  String.sub c.s start (c.pos - start)

let unescape s =
  if not (String.contains s '&') then s
  else begin
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '&' then begin
        let j =
          match String.index_from_opt s !i ';' with
          | Some j -> j
          | None -> raise (Xml_error "unterminated entity in attribute value")
        in
        let ent = String.sub s (!i + 1) (j - !i - 1) in
        (match ent with
         | "amp" -> Buffer.add_char b '&'
         | "lt" -> Buffer.add_char b '<'
         | "gt" -> Buffer.add_char b '>'
         | "quot" -> Buffer.add_char b '"'
         | "apos" -> Buffer.add_char b '\''
         | _ -> Buffer.add_string b ("&" ^ ent ^ ";"));
        i := j + 1
      end else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.contents b
  end

let read_attr_value c =
  let quote =
    match peek_char c with
    | Some ('"' | '\'' as q) -> c.pos <- c.pos + 1; q
    | _ -> error c "expected quoted attribute value"
  in
  let start = c.pos in
  while c.pos < String.length c.s && c.s.[c.pos] <> quote do
    c.pos <- c.pos + 1
  done;
  if c.pos >= String.length c.s then error c "unterminated attribute value";
  let v = String.sub c.s start (c.pos - start) in
  c.pos <- c.pos + 1;
  unescape v

let rec skip_misc c =
  skip_ws c;
  if c.pos + 3 < String.length c.s && String.sub c.s c.pos 4 = "<!--" then begin
    (match String.index_from_opt c.s (c.pos + 4) '>' with
     | _ ->
       let rec find i =
         if i + 2 >= String.length c.s then error c "unterminated comment"
         else if String.sub c.s i 3 = "-->" then i + 3
         else find (i + 1)
       in
       c.pos <- find (c.pos + 4));
    skip_misc c
  end
  else if c.pos + 1 < String.length c.s && c.s.[c.pos] = '<' && c.s.[c.pos + 1] = '?' then begin
    (match String.index_from_opt c.s c.pos '>' with
     | Some i -> c.pos <- i + 1
     | None -> error c "unterminated processing instruction");
    skip_misc c
  end

let rec parse_element c : node =
  skip_misc c;
  expect_str c "<";
  let tag = read_name c in
  let attrs = ref [] in
  let rec read_attrs () =
    skip_ws c;
    match peek_char c with
    | Some '/' ->
      expect_str c "/>";
      `Selfclosing
    | Some '>' ->
      c.pos <- c.pos + 1;
      `Open
    | Some _ ->
      let name = read_name c in
      skip_ws c;
      expect_str c "=";
      skip_ws c;
      let v = read_attr_value c in
      attrs := (name, v) :: !attrs;
      read_attrs ()
    | None -> error c "unexpected end of input in tag"
  in
  match read_attrs () with
  | `Selfclosing -> { tag; attrs = List.rev !attrs; children = [] }
  | `Open ->
    let children = ref [] in
    let rec read_children () =
      skip_misc c;
      if c.pos + 1 < String.length c.s && c.s.[c.pos] = '<' && c.s.[c.pos + 1] = '/'
      then begin
        expect_str c "</";
        let closing = read_name c in
        if closing <> tag then error c (Printf.sprintf "mismatched </%s>, expected </%s>" closing tag);
        skip_ws c;
        expect_str c ">"
      end else begin
        (* text content is ignored (the MEMO format carries data in
           attributes only) *)
        match peek_char c with
        | None -> error c (Printf.sprintf "unexpected end of input in <%s>" tag)
        | Some '<' ->
          children := parse_element c :: !children;
          read_children ()
        | Some _ ->
          while c.pos < String.length c.s && c.s.[c.pos] <> '<' do
            c.pos <- c.pos + 1
          done;
          read_children ()
      end
    in
    read_children ();
    { tag; attrs = List.rev !attrs; children = List.rev !children }

let parse (s : string) : node =
  let c = { s; pos = 0 } in
  let n = parse_element c in
  skip_misc c;
  n
