(* Lexer and parser for the SQL subset. *)

open Sqlfront

let t name f = Alcotest.test_case name `Quick f
let check = Alcotest.check
let string_ = Alcotest.string

let parses sql = ignore (Parser.parse sql)

let roundtrip sql =
  (* parse -> print -> parse -> print must be a fixpoint *)
  let q1 = Parser.parse sql in
  let s1 = Printer.to_string q1 in
  let q2 = Parser.parse s1 in
  let s2 = Printer.to_string q2 in
  check string_ ("round trip: " ^ sql) s1 s2

let test_lexer_basic () =
  let toks = Lexer.tokenize "SELECT a.b, 'it''s', 1.5e2 FROM [x]" |> List.map fst in
  Alcotest.(check int) "token count" 11 (List.length toks);
  (match toks with
   | Lexer.KW "SELECT" :: Lexer.IDENT "a" :: Lexer.DOT :: Lexer.IDENT "b" :: Lexer.COMMA
     :: Lexer.STRING "it's" :: Lexer.COMMA :: Lexer.FLOAT f :: Lexer.KW "FROM"
     :: Lexer.IDENT "x" :: [ Lexer.EOF ] ->
     Alcotest.(check (float 1e-9)) "float" 150.0 f
   | _ -> Alcotest.fail "unexpected token stream")

let test_lexer_comments () =
  let toks = Lexer.tokenize "SELECT -- comment\n 1" |> List.map fst in
  Alcotest.(check int) "comment skipped" 3 (List.length toks)

let test_lexer_operators () =
  let toks = Lexer.tokenize "<> != <= >= < > =" |> List.map fst in
  Alcotest.(check bool) "ops" true
    (toks = Lexer.[ NE; NE; LE; GE; LT; GT; EQ; EOF ])

let test_lexer_error () =
  Alcotest.check_raises "unterminated string" (Lexer.Lex_error ("unterminated string literal", 7))
    (fun () -> ignore (Lexer.tokenize "SELECT 'oops"))

let test_lexer_bad_numbers () =
  (* malformed or out-of-range number literals are lexical errors at the
     literal's offset, never a stray [Failure] from the conversion *)
  List.iter
    (fun (src, msg) ->
       Alcotest.check_raises src (Lexer.Lex_error (msg, 6))
         (fun () -> ignore (Lexer.tokenize src)))
    [ ("x >   4e", "malformed number 4e");
      ("x >   1.2.3", "malformed number 1.2.3");
      ("x >   4END", "malformed number 4E");
      ("x >   99999999999999999999", "integer literal out of range 99999999999999999999") ];
  Alcotest.(check bool) "max_int still lexes" true
    (List.map fst (Lexer.tokenize (string_of_int max_int)) = Lexer.[ INT max_int; EOF ]);
  Alcotest.(check bool) "exponent still lexes" true
    (List.map fst (Lexer.tokenize "4e2 1.5E-1") = Lexer.[ FLOAT 400.; FLOAT 0.15; EOF ])

let test_parse_simple () =
  let q = Parser.parse "SELECT a, b AS c FROM t WHERE x > 5" in
  Alcotest.(check int) "select items" 2 (List.length q.Ast.select);
  Alcotest.(check bool) "has where" true (q.Ast.where <> None)

let test_parse_joins () =
  let q = Parser.parse
      "SELECT * FROM a INNER JOIN b ON a.x = b.y LEFT JOIN c ON b.z = c.z"
  in
  match q.Ast.from with
  | [ Ast.Tref_join { kind = Ast.Jleft; left = Ast.Tref_join { kind = Ast.Jinner; _ }; _ } ] ->
    ()
  | _ -> Alcotest.fail "join tree shape"

let test_parse_subqueries () =
  let q = Parser.parse
      "SELECT a FROM t WHERE x IN (SELECT y FROM u) AND EXISTS (SELECT z FROM v) \
       AND p > (SELECT MAX(q) FROM w)"
  in
  match q.Ast.where with
  | Some w ->
    let conjs = Ast.conjuncts w in
    Alcotest.(check int) "three conjuncts" 3 (List.length conjs)
  | None -> Alcotest.fail "no where"

let test_parse_top_order () =
  let q = Parser.parse "SELECT TOP 10 a FROM t ORDER BY a DESC, b" in
  Alcotest.(check (option int)) "top" (Some 10) q.Ast.top;
  match q.Ast.order_by with
  | [ (_, Ast.Desc); (_, Ast.Asc) ] -> ()
  | _ -> Alcotest.fail "order dirs"

let test_parse_case () =
  let q = Parser.parse "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t" in
  match q.Ast.select with
  | [ Ast.Sel_expr (Ast.Case { branches = [ _ ]; else_ = Some _ }, _) ] -> ()
  | _ -> Alcotest.fail "case shape"

let test_parse_between_not () =
  let q = Parser.parse "SELECT a FROM t WHERE a NOT BETWEEN 1 AND 2 AND b NOT IN (1, 2)" in
  match Option.map Ast.conjuncts q.Ast.where with
  | Some [ Ast.Between { negated = true; _ }; Ast.In_list { negated = true; _ } ] -> ()
  | _ -> Alcotest.fail "negated predicates"

let test_parse_dateadd () =
  parses "SELECT DATEADD(year, 1, '1994-01-01') FROM t";
  parses "SELECT a FROM t WHERE d < DATEADD(month, -3, '1993-10-01')"

let test_parse_precedence () =
  let e = Parser.parse_expr_string "1 + 2 * 3" in
  (match e with
   | Ast.Bin (Ast.Add, Ast.Lit (Catalog.Value.Int 1), Ast.Bin (Ast.Mul, _, _)) -> ()
   | _ -> Alcotest.fail "mul binds tighter");
  let e = Parser.parse_expr_string "a = 1 OR b = 2 AND c = 3" in
  (match e with
   | Ast.Bin (Ast.Or, _, Ast.Bin (Ast.And, _, _)) -> ()
   | _ -> Alcotest.fail "and binds tighter than or")

let test_parse_qualified_names () =
  let q = Parser.parse "SELECT t.a FROM [tpch].[dbo].[lineitem] t" in
  match q.Ast.from with
  | [ Ast.Tref_table { name = "lineitem"; alias = Some "t" } ] -> ()
  | _ -> Alcotest.fail "qualified name"

let test_parse_errors () =
  let fails sql =
    match Parser.parse sql with
    | exception Parser.Parse_error _ -> ()
    | exception Lexer.Lex_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ sql)
  in
  fails "SELECT";
  fails "SELECT a FROM";
  fails "SELECT a FROM t WHERE";
  fails "SELECT a FROM t GROUP a";
  fails "SELECT a FROM t extra garbage here ,,"

let test_roundtrips () =
  List.iter roundtrip
    [ "SELECT a, b + 1 AS c FROM t WHERE x > 5 AND y LIKE 'a%'";
      "SELECT COUNT(*), SUM(DISTINCT x) FROM t GROUP BY g HAVING COUNT(*) > 2";
      "SELECT TOP 5 * FROM a, b WHERE a.x = b.y ORDER BY a.x DESC";
      "SELECT a FROM t WHERE x IN (1, 2, 3) AND y IS NOT NULL";
      "SELECT CASE WHEN a > 0 THEN 1 ELSE 0 END AS s FROM t" ]

let test_all_tpch_parse () =
  List.iter (fun q -> parses q.Tpch.Queries.sql) Tpch.Queries.all

let suite =
  [ t "lexer basics" test_lexer_basic;
    t "lexer comments" test_lexer_comments;
    t "lexer operators" test_lexer_operators;
    t "lexer error" test_lexer_error;
    t "simple select" test_parse_simple;
    t "join trees" test_parse_joins;
    t "subquery predicates" test_parse_subqueries;
    t "top/order by" test_parse_top_order;
    t "case expression" test_parse_case;
    t "negated between/in" test_parse_between_not;
    t "dateadd" test_parse_dateadd;
    t "operator precedence" test_parse_precedence;
    t "bracket-qualified names" test_parse_qualified_names;
    t "parse errors" test_parse_errors;
    t "print/parse round trips" test_roundtrips;
    t "all TPC-H queries parse" test_all_tpch_parse;
    t "lexer: malformed numbers" test_lexer_bad_numbers ]
