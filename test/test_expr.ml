(* Scalar expression evaluation: three-valued logic, arithmetic, LIKE,
   CASE, functions, casts. *)

open Algebra
open Catalog

let t name f = Alcotest.test_case name `Quick f

let ev ?(env = fun _ -> Value.Null) e = Expr.eval env e
let vbool b = Value.Bool b
let check_v name expected actual =
  Alcotest.(check bool) name true (Value.equal expected actual || (Value.is_null expected && Value.is_null actual))

let lit v = Expr.Lit v
let i n = lit (Value.Int n)
let f x = lit (Value.Float x)
let s x = lit (Value.String x)

let test_arith () =
  check_v "1+2" (Value.Int 3) (ev (Expr.Bin (Expr.Add, i 1, i 2)));
  check_v "1+2.5" (Value.Float 3.5) (ev (Expr.Bin (Expr.Add, i 1, f 2.5)));
  check_v "7/2 is float" (Value.Float 3.5) (ev (Expr.Bin (Expr.Div, i 7, i 2)));
  check_v "div by zero -> NULL" Value.Null (ev (Expr.Bin (Expr.Div, i 1, i 0)));
  check_v "mod" (Value.Int 1) (ev (Expr.Bin (Expr.Mod, i 7, i 2)))

let test_null_propagation () =
  check_v "null + 1" Value.Null (ev (Expr.Bin (Expr.Add, lit Value.Null, i 1)));
  check_v "null = 1 -> unknown" Value.Null (ev (Expr.Bin (Expr.Eq, lit Value.Null, i 1)));
  check_v "null and false -> false" (vbool false)
    (ev (Expr.Bin (Expr.And, lit Value.Null, lit (Value.Bool false))));
  check_v "null and true -> unknown" Value.Null
    (ev (Expr.Bin (Expr.And, lit Value.Null, lit (Value.Bool true))));
  check_v "null or true -> true" (vbool true)
    (ev (Expr.Bin (Expr.Or, lit Value.Null, lit (Value.Bool true))))

let test_comparison () =
  check_v "2 < 3" (vbool true) (ev (Expr.Bin (Expr.Lt, i 2, i 3)));
  check_v "mixed int/float" (vbool true) (ev (Expr.Bin (Expr.Le, i 2, f 2.0)));
  check_v "string compare" (vbool true) (ev (Expr.Bin (Expr.Lt, s "abc", s "abd")))

(* reference LIKE: plain backtracking recursion, independent of the
   engine's greedy matcher (which both engines and the reference executor
   share, so no engine-parity test can catch a fault in it) *)
let naive_like pattern str =
  let np = String.length pattern and ns = String.length str in
  let rec m pi si =
    if pi >= np then si >= ns
    else
      match pattern.[pi] with
      | '%' ->
        let rec try_skip k = k <= ns && (m (pi + 1) k || try_skip (k + 1)) in
        try_skip si
      | '_' -> si < ns && m (pi + 1) (si + 1)
      | c -> si < ns && str.[si] = c && m (pi + 1) (si + 1)
  in
  m 0 0

let test_like () =
  let like pat x = ev (Expr.Like (s x, pat, false)) in
  check_v "prefix" (vbool true) (like "fo%" "forest");
  check_v "prefix miss" (vbool false) (like "fo%" "oak");
  check_v "underscore" (vbool true) (like "f_rest" "forest");
  check_v "infix" (vbool true) (like "%res%" "forest");
  check_v "double pattern" (vbool true) (like "%Customer%Complaints%" "x Customer y Complaints z");
  check_v "anchored end" (vbool false) (like "%BRASS" "BRASS STEEL");
  check_v "null input" Value.Null (ev (Expr.Like (lit Value.Null, "a%", false)))

(* every LIKE pattern of the bundled workload, with subjects where the
   first candidate position for a % segment is the wrong one *)
let test_like_workload () =
  let cases =
    [ ("%special%requests%", "special requests special", true);
      ("%special%requests%", "requests then special", false);
      ("%special%requests%", "specialrequests", true);
      ("%special%requests%", "specia special reques requests", true);
      ("%special%requests%", "special request", false);
      ("%special%requests%", "", false);
      ("%green%", "forest green", true);
      ("%green%", "gree greeen gren", false);
      ("%green%", "ggreen", true);
      ("%BRASS", "STANDARD BRASS", true);
      ("%BRASS", "BRASS BRASS", true);
      ("%BRASS", "BRASS STEEL", false);
      ("%BRASS", "BRASSBRAS", false);
      ("%BRASS", "BBRASS", true);
      ("PROMO%", "PROMO BURNISHED", true);
      ("PROMO%", "PROMO", true);
      ("PROMO%", "XPROMO", false);
      ("forest%", "forest", true);
      ("forest%", "fores", false);
      ("forest%", "forestforest green", true);
      ("%Customer%Complaints%", "x Customer y Complaints z", true);
      ("%Customer%Complaints%", "Complaints Customer", false);
      ("%Customer%Complaints%", "CustomerComplaints", true);
      ("%Customer%Complaints%", "Customer Complaint Customer Complaints", true);
      ("MEDIUM POLISHED%", "MEDIUM POLISHED TIN", true);
      ("MEDIUM POLISHED%", "MEDIUM  POLISHED", false);
      ("MEDIUM POLISHED%", "LARGE MEDIUM POLISHED", false);
      ("Brand#1%", "Brand#13", true);
      ("Brand#1%", "Brand#21", false);
      ("Brand#1%", "Brand#1", true) ]
  in
  List.iter
    (fun (pattern, subject, want) ->
       let msg = Printf.sprintf "%S LIKE %S" subject pattern in
       Alcotest.(check bool) msg want (Expr.like_match ~pattern subject);
       Alcotest.(check bool) (msg ^ " (reference)") want (naive_like pattern subject))
    cases

let test_in_list () =
  check_v "in hit" (vbool true) (ev (Expr.In_list (i 2, [ Value.Int 1; Value.Int 2 ], false)));
  check_v "in miss" (vbool false) (ev (Expr.In_list (i 9, [ Value.Int 1 ], false)));
  check_v "not in with null item -> unknown" Value.Null
    (ev (Expr.In_list (i 9, [ Value.Int 1; Value.Null ], true)));
  check_v "in with null item, hit" (vbool true)
    (ev (Expr.In_list (i 1, [ Value.Int 1; Value.Null ], false)))

let test_case () =
  let e =
    Expr.Case
      ( [ (Expr.Bin (Expr.Gt, i 1, i 2), s "a"); (Expr.Bin (Expr.Lt, i 1, i 2), s "b") ],
        Some (s "c") )
  in
  check_v "case picks second" (Value.String "b") (ev e);
  let no_else = Expr.Case ([ (Expr.Bin (Expr.Gt, i 1, i 2), s "a") ], None) in
  check_v "no else -> null" Value.Null (ev no_else)

let test_functions () =
  let d = Value.days_from_civil ~y:1994 ~m:1 ~d:1 in
  check_v "dateadd year" (Value.Date (Value.days_from_civil ~y:1995 ~m:1 ~d:1))
    (ev (Expr.Func (Expr.F_dateadd_year, [ i 1; lit (Value.Date d) ])));
  check_v "year()" (Value.Int 1994) (ev (Expr.Func (Expr.F_year, [ lit (Value.Date d) ])));
  check_v "substring" (Value.String "ore")
    (ev (Expr.Func (Expr.F_substring, [ s "forest"; i 2; i 3 ])));
  check_v "substring out of range" (Value.String "st")
    (ev (Expr.Func (Expr.F_substring, [ s "forest"; i 5; i 99 ])));
  check_v "abs" (Value.Int 5) (ev (Expr.Func (Expr.F_abs, [ i (-5) ])))

let test_cast () =
  check_v "int->float" (Value.Float 3.) (ev (Expr.Cast (i 3, Types.Tfloat)));
  check_v "string->date"
    (Value.Date (Value.days_from_civil ~y:1994 ~m:1 ~d:1))
    (ev (Expr.Cast (s "1994-01-01", Types.Tdate)));
  check_v "float->int truncates" (Value.Int 3) (ev (Expr.Cast (f 3.9, Types.Tint)));
  check_v "null survives" Value.Null (ev (Expr.Cast (lit Value.Null, Types.Tint)))

let test_cols_and_rename () =
  let e = Expr.Bin (Expr.Add, Expr.Col 1, Expr.Bin (Expr.Mul, Expr.Col 2, Expr.Col 1)) in
  Alcotest.(check (list int)) "cols" [ 1; 2 ]
    (Registry.Col_set.elements (Expr.cols e));
  let renamed = Expr.rename (Registry.Col_map.singleton 1 10) e in
  Alcotest.(check (list int)) "renamed" [ 2; 10 ]
    (Registry.Col_set.elements (Expr.cols renamed))

let test_conjuncts () =
  let a = Expr.Bin (Expr.Gt, Expr.Col 0, i 1) in
  let b = Expr.Bin (Expr.Lt, Expr.Col 1, i 2) in
  let c = Expr.Bin (Expr.Eq, Expr.Col 2, i 3) in
  let e = Expr.and_ (Expr.and_ a b) c in
  Alcotest.(check int) "three conjuncts" 3 (List.length (Expr.conjuncts e));
  Alcotest.(check bool) "conjoin round trip" true
    (Expr.conjuncts (Expr.conjoin [ a; b; c ]) = [ a; b; c ])

(* LIKE against the reference matcher: subjects up to 40 characters that
   may hold literal % and _ (which only a pattern's _ or % can match), so
   the greedy matcher's backtracking is exercised at depth *)
let prop_like_vs_naive =
  let gen_pat =
    QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '%'; '_' ]) (int_range 0 6))
  in
  let gen_str =
    QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; '%'; '_' ]) (int_range 0 40))
  in
  QCheck.Test.make ~name:"LIKE matches reference implementation" ~count:20_000
    (QCheck.make ~print:QCheck.Print.(pair string string) QCheck.Gen.(pair gen_pat gen_str))
    (fun (pattern, str) -> Expr.like_match ~pattern str = naive_like pattern str)

(* Column-id bitsets against [Set.Make (Int)]: random programs over four
   set registers, ids in three clusters across words 0, 1 and 3 (so
   intersections and differences often shrink a set to fewer words, and
   sets built different ways often coincide). After every step each set
   must read as its reference, and polymorphic [=] must be set equality. *)
module Ref_set = Set.Make (Int)

type set_op =
  | Add of int * int
  | Union of int * int * int
  | Inter of int * int * int
  | Diff of int * int * int
  | Of_list of int * int list

let set_op_to_string = function
  | Add (r, i) -> Printf.sprintf "s%d+=%d" r i
  | Union (d, a, b) -> Printf.sprintf "s%d=s%d|s%d" d a b
  | Inter (d, a, b) -> Printf.sprintf "s%d=s%d&s%d" d a b
  | Diff (d, a, b) -> Printf.sprintf "s%d=s%d-s%d" d a b
  | Of_list (r, l) -> Printf.sprintf "s%d=[%s]" r (String.concat ";" (List.map string_of_int l))

let prop_col_set_vs_set =
  let open QCheck.Gen in
  let reg = int_range 0 3 in
  let id = oneof [ int_range 0 5; int_range 60 66; int_range 190 200 ] in
  let op =
    frequency
      [ (4, map2 (fun r i -> Add (r, i)) reg id);
        (2, map3 (fun d a b -> Union (d, a, b)) reg reg reg);
        (3, map3 (fun d a b -> Inter (d, a, b)) reg reg reg);
        (3, map3 (fun d a b -> Diff (d, a, b)) reg reg reg);
        (1, map2 (fun r l -> Of_list (r, l)) reg (list_size (int_range 0 8) id)) ]
  in
  QCheck.Test.make ~name:"Col_set agrees with Set.Make (Int)" ~count:1000
    (QCheck.make ~print:QCheck.Print.(list set_op_to_string) (list_size (int_range 1 30) op))
    (fun ops ->
       let module C = Registry.Col_set in
       let cs = Array.make 4 C.empty and rs = Array.make 4 Ref_set.empty in
       let agree () =
         for i = 0 to 3 do
           let c = cs.(i) and r = rs.(i) in
           if C.elements c <> Ref_set.elements r then QCheck.Test.fail_reportf "s%d elements" i;
           if C.fold List.cons c [] <> Ref_set.fold List.cons r [] then
             QCheck.Test.fail_reportf "s%d fold order" i;
           let it = ref [] in
           C.iter (fun x -> it := x :: !it) c;
           if List.rev !it <> Ref_set.elements r then QCheck.Test.fail_reportf "s%d iter" i;
           if C.cardinal c <> Ref_set.cardinal r then QCheck.Test.fail_reportf "s%d cardinal" i;
           if C.is_empty c <> Ref_set.is_empty r then QCheck.Test.fail_reportf "s%d is_empty" i;
           if C.choose_opt c <> Ref_set.min_elt_opt r then QCheck.Test.fail_reportf "s%d choose_opt" i;
           if (try Some (C.min_elt c) with Not_found -> None) <> Ref_set.min_elt_opt r then
             QCheck.Test.fail_reportf "s%d min_elt" i;
           let even x = x mod 2 = 0 in
           if C.for_all even c <> Ref_set.for_all even r then QCheck.Test.fail_reportf "s%d for_all" i;
           for x = -1 to 201 do
             if C.mem x c <> Ref_set.mem x r then QCheck.Test.fail_reportf "s%d mem %d" i x
           done;
           for j = 0 to 3 do
             if C.subset c cs.(j) <> Ref_set.subset r rs.(j) then
               QCheck.Test.fail_reportf "subset s%d s%d" i j;
             if (c = cs.(j)) <> Ref_set.equal r rs.(j) then
               QCheck.Test.fail_reportf "s%d = s%d" i j
           done
         done
       in
       List.iter
         (fun op ->
            (match op with
             | Add (d, i) -> cs.(d) <- C.add i cs.(d); rs.(d) <- Ref_set.add i rs.(d)
             | Union (d, a, b) ->
               cs.(d) <- C.union cs.(a) cs.(b); rs.(d) <- Ref_set.union rs.(a) rs.(b)
             | Inter (d, a, b) ->
               cs.(d) <- C.inter cs.(a) cs.(b); rs.(d) <- Ref_set.inter rs.(a) rs.(b)
             | Diff (d, a, b) ->
               cs.(d) <- C.diff cs.(a) cs.(b); rs.(d) <- Ref_set.diff rs.(a) rs.(b)
             | Of_list (d, l) -> cs.(d) <- C.of_list l; rs.(d) <- Ref_set.of_list l);
            agree ())
         ops;
       true)

let suite =
  [ t "arithmetic" test_arith;
    t "null propagation (3VL)" test_null_propagation;
    t "comparisons" test_comparison;
    t "LIKE" test_like;
    t "LIKE: the workload's patterns" test_like_workload;
    t "IN list" test_in_list;
    t "CASE" test_case;
    t "functions" test_functions;
    t "CAST" test_cast;
    t "cols and rename" test_cols_and_rename;
    t "conjuncts/conjoin" test_conjuncts;
    QCheck_alcotest.to_alcotest prop_like_vs_naive;
    QCheck_alcotest.to_alcotest prop_col_set_vs_set ]
