(** Hand-written SQL lexer. Keywords are case-insensitive; identifiers may be
    bracket-quoted ([tpch].[dbo].[lineitem]) or double-quoted. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | LPAREN | RPAREN
  | COMMA | DOT | SEMI | STAR
  | PLUS | MINUS | SLASH | PERCENT
  | EQ | NE | LT | LE | GT | GE
  | KW of string      (** uppercased keyword *)
  | EOF

exception Lex_error of string * int  (** message, position *)

let keywords =
  [ "SELECT"; "FROM"; "WHERE"; "GROUP"; "BY"; "HAVING"; "ORDER"; "ASC"; "DESC";
    "AND"; "OR"; "NOT"; "IN"; "EXISTS"; "BETWEEN"; "LIKE"; "IS"; "NULL";
    "AS"; "ON"; "JOIN"; "INNER"; "LEFT"; "RIGHT"; "FULL"; "OUTER"; "CROSS";
    "DISTINCT"; "TOP"; "LIMIT"; "CASE"; "WHEN"; "THEN"; "ELSE"; "END";
    "COUNT"; "SUM"; "AVG"; "MIN"; "MAX"; "CAST"; "TRUE"; "FALSE";
    "UNION"; "ALL"; "DATE" ]

let keyword_set =
  let h = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace h k ()) keywords;
  h

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(** Tokenize a full SQL string. *)
let tokenize (s : string) : (token * int) list =
  let n = String.length s in
  let toks = ref [] in
  let emit t pos = toks := (t, pos) :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    let pos = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && s.[!i + 1] = '-' then begin
      (* line comment *)
      while !i < n && s.[!i] <> '\n' do incr i done
    end
    else if is_digit c || (c = '.' && !i + 1 < n && is_digit s.[!i + 1]) then begin
      let start = !i in
      let isfloat = ref false in
      while !i < n && (is_digit s.[!i] || s.[!i] = '.') do
        if s.[!i] = '.' then isfloat := true;
        incr i
      done;
      if !i < n && (s.[!i] = 'e' || s.[!i] = 'E') then begin
        isfloat := true;
        incr i;
        if !i < n && (s.[!i] = '+' || s.[!i] = '-') then incr i;
        while !i < n && is_digit s.[!i] do incr i done
      end;
      let text = String.sub s start (!i - start) in
      if !isfloat then
        match float_of_string_opt text with
        | Some f -> emit (FLOAT f) pos
        | None -> raise (Lex_error ("malformed number " ^ text, pos))
      else
        match int_of_string_opt text with
        | Some x -> emit (INT x) pos
        | None -> raise (Lex_error ("integer literal out of range " ^ text, pos))
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do incr i done;
      let text = String.sub s start (!i - start) in
      let upper = String.uppercase_ascii text in
      if Hashtbl.mem keyword_set upper then emit (KW upper) pos
      else emit (IDENT text) pos
    end
    else if c = '\'' then begin
      (* string literal with '' escaping *)
      incr i;
      let b = Buffer.create 16 in
      let fin = ref false in
      while not !fin do
        if !i >= n then raise (Lex_error ("unterminated string literal", pos));
        if s.[!i] = '\'' then
          if !i + 1 < n && s.[!i + 1] = '\'' then begin Buffer.add_char b '\''; i := !i + 2 end
          else begin fin := true; incr i end
        else begin Buffer.add_char b s.[!i]; incr i end
      done;
      emit (STRING (Buffer.contents b)) pos
    end
    else if c = '[' then begin
      (* bracket-quoted identifier *)
      incr i;
      let start = !i in
      while !i < n && s.[!i] <> ']' do incr i done;
      if !i >= n then raise (Lex_error ("unterminated [identifier]", pos));
      emit (IDENT (String.sub s start (!i - start))) pos;
      incr i
    end
    else if c = '"' then begin
      incr i;
      let start = !i in
      while !i < n && s.[!i] <> '"' do incr i done;
      if !i >= n then raise (Lex_error ("unterminated \"identifier\"", pos));
      emit (IDENT (String.sub s start (!i - start))) pos;
      incr i
    end
    else begin
      let two = if !i + 1 < n then String.sub s !i 2 else "" in
      match two with
      | "<>" -> emit NE pos; i := !i + 2
      | "!=" -> emit NE pos; i := !i + 2
      | "<=" -> emit LE pos; i := !i + 2
      | ">=" -> emit GE pos; i := !i + 2
      | _ ->
        (match c with
         | '(' -> emit LPAREN pos | ')' -> emit RPAREN pos
         | ',' -> emit COMMA pos | '.' -> emit DOT pos | ';' -> emit SEMI pos
         | '*' -> emit STAR pos | '+' -> emit PLUS pos | '-' -> emit MINUS pos
         | '/' -> emit SLASH pos | '%' -> emit PERCENT pos
         | '=' -> emit EQ pos | '<' -> emit LT pos | '>' -> emit GT pos
         | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, pos)));
        incr i
    end
  done;
  List.rev ((EOF, n) :: !toks)

let token_to_string = function
  | IDENT s -> Printf.sprintf "ident %s" s
  | INT n -> string_of_int n
  | FLOAT f -> string_of_float f
  | STRING s -> Printf.sprintf "'%s'" s
  | LPAREN -> "(" | RPAREN -> ")"
  | COMMA -> "," | DOT -> "." | SEMI -> ";" | STAR -> "*"
  | PLUS -> "+" | MINUS -> "-" | SLASH -> "/" | PERCENT -> "%"
  | EQ -> "=" | NE -> "<>" | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">="
  | KW k -> k
  | EOF -> "<eof>"
