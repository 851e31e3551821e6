(* The columnar engine against its oracle: the row engine is the semantics
   reference, and every kernel in Engine.Batch must reproduce it value for
   value AND row for row — including the simulated clock, which must be
   bit-identical across engines and at any --jobs. *)

module Value = Catalog.Value
module Column = Catalog.Column
module Expr = Algebra.Expr
module Physop = Memo.Physop

(* -- literal-input operator harness: run one physical operator on both
   engines and demand identical layout + rows (order-sensitive) -- *)

let no_tables _ = failwith "no base tables in this test"

let rset layout rows = { Engine.Local.layout; rows }

let both op (children : Engine.Local.rset list) =
  let row = Engine.Local.exec_op ~read_table:no_tables op children in
  let col =
    Engine.Batch.to_rset
      (Engine.Batch.exec_op ~read_table:no_tables op
         (List.map Engine.Batch.of_rset children))
  in
  (row, col)

let pp_rset fmt (r : Engine.Local.rset) =
  Format.fprintf fmt "[%s] %s"
    (String.concat "," (List.map string_of_int r.Engine.Local.layout))
    (String.concat "; "
       (List.map
          (fun row ->
             String.concat "|" (List.map Value.to_string (Array.to_list row)))
          r.Engine.Local.rows))

let rset_t = Alcotest.testable pp_rset ( = )

let check_both msg op children =
  let row, col = both op children in
  Alcotest.check rset_t msg row col;
  row

(* -- column builders -- *)

let test_builder_roundtrip () =
  let cases =
    [ ("ints", [ Value.Int 1; Value.Int (-7); Value.Int max_int ]);
      ("ints+null", [ Value.Int 3; Value.Null; Value.Int 0 ]);
      ("floats", [ Value.Float 1.5; Value.Null; Value.Float (-0.25) ]);
      ("dates", [ Value.Date 9131; Value.Date 0 ]);
      ("bools", [ Value.Bool true; Value.Null; Value.Bool false ]);
      ("strings", [ Value.String "a"; Value.Null; Value.String "" ]);
      ("all nulls", [ Value.Null; Value.Null ]);
      ("mixed types", [ Value.Int 1; Value.Float 2.5; Value.String "x"; Value.Null ]);
      ("int then float", [ Value.Int 4; Value.Float 4.5 ]);
      ("empty", []) ]
  in
  List.iter
    (fun (msg, vs) ->
       let c = Column.of_value_list vs in
       Alcotest.(check int) (msg ^ ": length") (List.length vs) (Column.length c);
       Alcotest.(check bool) (msg ^ ": round-trip") true
         (Array.to_list (Column.to_values c) = vs))
    cases

let test_builder_typed_layout () =
  (* representation checks: homogeneous data must land in typed columns *)
  let is_ints = function Column.Ints _ -> true | _ -> false in
  let is_floats = function Column.Floats _ -> true | _ -> false in
  let is_boxed = function Column.Boxed _ -> true | _ -> false in
  Alcotest.(check bool) "ints are typed" true
    (is_ints (Column.of_value_list [ Value.Int 1; Value.Null; Value.Int 2 ]));
  Alcotest.(check bool) "dates are typed" true
    (is_ints (Column.of_value_list [ Value.Date 1; Value.Date 2 ]));
  Alcotest.(check bool) "floats are typed" true
    (is_floats (Column.of_value_list [ Value.Float 1.; Value.Null ]));
  Alcotest.(check bool) "type mixes demote to boxed" true
    (is_boxed (Column.of_value_list [ Value.Int 1; Value.Float 2. ]));
  Alcotest.(check bool) "strings are boxed" true
    (is_boxed (Column.of_value_list [ Value.String "s" ]))

let test_table_roundtrip () =
  let rows =
    [ [| Value.Int 1; Value.String "a"; Value.Float 0.5 |];
      [| Value.Int 2; Value.Null; Value.Float 1.5 |];
      [| Value.Null; Value.String "c"; Value.Null |] ]
  in
  let t = Column.table_of_rows ~width:3 rows in
  Alcotest.(check bool) "table round-trip" true (Column.table_rows t = rows)

(* -- selection-vector edge cases -- *)

let lit_true = Expr.Lit (Value.Bool true)
let lit_false = Expr.Lit (Value.Bool false)

let sample =
  rset [ 10; 11 ]
    [ [| Value.Int 1; Value.Float 10. |];
      [| Value.Int 2; Value.Null |];
      [| Value.Null; Value.Float 30. |];
      [| Value.Int 2; Value.Float 40. |] ]

(* multi-column keys: two ints, int+date, string+int, a float key against
   an int key (values equal across types must match), NULLs in single key
   columns, and duplicate keys on both sides (match order) *)
let mk_left =
  let d x = Value.Date x and f x = Value.Float x and str x = Value.String x in
  rset [ 30; 31; 32; 33; 34 ]
    [ [| Value.Int 1; Value.Int 10; d 100; str "x"; f 1.0 |];
      [| Value.Int 1; Value.Int 11; d 101; str "y"; f 2.5 |];
      [| Value.Int 2; Value.Int 10; d 100; str "x"; Value.Null |];
      [| Value.Int 1; Value.Int 10; d 100; str "y"; f (-0.) |];
      [| Value.Null; Value.Int 10; d 100; str "x"; f 3.0 |];
      [| Value.Int 2; Value.Null; d 101; Value.Null; f 0.0 |];
      [| Value.Int 1; Value.Int 10; d 100; str "x"; f 1.0 |] ]

let mk_right =
  let d x = Value.Date x and str x = Value.String x in
  rset [ 40; 41; 42; 43; 44 ]
    [ [| Value.Int 1; Value.Int 10; d 100; str "x"; Value.Int 1 |];
      [| Value.Int 1; Value.Int 10; d 101; str "y"; Value.Int 2 |];
      [| Value.Int 2; Value.Int 10; d 100; str "x"; Value.Int 3 |];
      [| Value.Int 1; Value.Int 10; d 100; str "x"; Value.Int 0 |];
      [| Value.Int 1; Value.Int 11; d 101; str "y"; Value.Null |];
      [| Value.Null; Value.Int 10; d 100; str "x"; Value.Int 3 |];
      [| Value.Int 2; Value.Int 11; d 100; Value.Null; Value.Int 2 |] ]

(* the same five key shapes over 400 generated rows a side: 20 x 20 int
   pairs and ~5% NULLs, so distinct keys share hash buckets and the
   per-column equality (not the hash) has to tell them apart *)
let gen_side ~base ~float_last n seed =
  let st = ref seed in
  let draw k =
    st := (!st * 1103515245 + 12345) land 0x3fffffff;
    (!st lsr 8) mod k
  in
  let maybe_null v = if draw 20 = 0 then Value.Null else v in
  rset
    (List.init 5 (fun c -> base + c))
    (List.init n (fun _ ->
         let a = maybe_null (Value.Int (draw 20)) in
         let b = Value.Int (draw 20) in
         let d = Value.Date (100 + draw 4) in
         let s = maybe_null (Value.String (Printf.sprintf "s%d" (draw 4))) in
         let x = draw 8 in
         let last =
           maybe_null (if float_last then Value.Float (float_of_int x) else Value.Int x)
         in
         [| a; b; d; s; last |]))

let gen_left = gen_side ~base:30 ~float_last:true 400 7
let gen_right = gen_side ~base:40 ~float_last:false 400 11

let test_filter_edges () =
  (* empty input batch *)
  ignore (check_both "filter of empty" (Physop.Filter lit_true) [ rset [ 10 ] [] ]);
  (* all rows filtered out *)
  let r = check_both "all-filtered" (Physop.Filter lit_false) [ sample ] in
  Alcotest.(check int) "all-filtered is empty" 0 (List.length r.Engine.Local.rows);
  (* null in the predicate column: UNKNOWN drops the row *)
  let pred = Expr.Bin (Expr.Gt, Expr.Col 10, Expr.Lit (Value.Int 1)) in
  let r = check_both "null-key filter" (Physop.Filter pred) [ sample ] in
  Alcotest.(check int) "nulls dropped" 2 (List.length r.Engine.Local.rows);
  (* chained: filter over an already-narrowed selection (sel-of-sel) *)
  let b = Engine.Batch.of_rset sample in
  let once = Engine.Batch.exec_op ~read_table:no_tables (Physop.Filter pred) [ b ] in
  let twice =
    Engine.Batch.exec_op ~read_table:no_tables
      (Physop.Filter (Expr.Bin (Expr.Lt, Expr.Col 11, Expr.Lit (Value.Float 35.))))
      [ once ]
  in
  Alcotest.(check int) "sel-of-sel narrows" 0
    (List.length (Engine.Batch.to_rset twice).Engine.Local.rows)

let agg ?(distinct = false) out func arg =
  { Expr.agg_out = out; agg_func = func; agg_arg = arg; agg_distinct = distinct }

let multikey_aggregates () =
  let aggs =
    [ agg 60 Expr.Count_star None; agg 61 Expr.Sum (Some (Expr.Col 34));
      agg 62 Expr.Max (Some (Expr.Col 33)) ]
  in
  List.iter
    (fun (msg, keys) ->
       List.iter
         (fun (dmsg, input) ->
            ignore
              (check_both ("group by " ^ msg ^ dmsg) (Physop.Hash_agg { keys; aggs }) [ input ]))
         [ ("", mk_left); (" (generated)", gen_left) ])
    [ ("two ints", [ 30; 31 ]); ("int+date", [ 30; 32 ]); ("string+int", [ 33; 30 ]);
      ("four keys with nulls", [ 30; 31; 32; 33 ]); ("float (-0. = 0.)", [ 34 ]);
      ("float+string", [ 34; 33 ]) ];
  (* a boxed column mixing Int and Float: 1 and 1.0 are one group, keyed
     by the first occurrence *)
  let mixed =
    rset [ 50; 51 ]
      [ [| Value.Int 1; Value.Int 5 |]; [| Value.Float 1.0; Value.Int 6 |];
        [| Value.Float 2.5; Value.Int 7 |]; [| Value.Null; Value.Int 8 |];
        [| Value.Int 2; Value.Int 9 |]; [| Value.Float 2.0; Value.Int 1 |];
        [| Value.Null; Value.Int 2 |] ]
  in
  let r =
    check_both "group by a mixed Int/Float column"
      (Physop.Hash_agg { keys = [ 50 ]; aggs = [ agg 52 Expr.Sum (Some (Expr.Col 51)) ] })
      [ mixed ]
  in
  Alcotest.(check int) "mixed key groups" 4 (List.length r.Engine.Local.rows)

let test_aggregate_nulls () =
  (* nulls are skipped by every aggregate; empty/all-null input gives
     COUNT 0 and Null for SUM/AVG/MIN/MAX *)
  let aggs =
    [ agg 20 Expr.Sum (Some (Expr.Col 11));
      agg 21 Expr.Avg (Some (Expr.Col 11));
      agg 22 Expr.Count (Some (Expr.Col 11));
      agg 23 Expr.Min (Some (Expr.Col 11));
      agg 24 Expr.Count_star None ]
  in
  let r =
    check_both "grouped agg with nulls"
      (Physop.Hash_agg { keys = [ 10 ]; aggs }) [ sample ]
  in
  Alcotest.(check int) "group count (null is its own group)" 3
    (List.length r.Engine.Local.rows);
  (* global aggregate over an all-null column *)
  let nullcol = rset [ 11 ] [ [| Value.Null |]; [| Value.Null |] ] in
  let r = check_both "all-null global agg" (Physop.Hash_agg { keys = []; aggs }) [ nullcol ] in
  (match r.Engine.Local.rows with
   | [ [| s; a; c; m; cs |] ] ->
     Alcotest.(check bool) "SUM all-null = Null" true (s = Value.Null);
     Alcotest.(check bool) "AVG all-null = Null" true (a = Value.Null);
     Alcotest.(check bool) "COUNT skips nulls" true (c = Value.Int 0);
     Alcotest.(check bool) "MIN all-null = Null" true (m = Value.Null);
     Alcotest.(check bool) "COUNT star counts rows" true (cs = Value.Int 2)
   | _ -> Alcotest.fail "expected one output row");
  (* global aggregate over the empty input: one row, COUNTs 0 *)
  ignore
    (check_both "empty global agg" (Physop.Hash_agg { keys = []; aggs })
       [ rset [ 10; 11 ] [] ]);
  (* grouped aggregate over empty input: no rows *)
  let r =
    check_both "empty grouped agg" (Physop.Hash_agg { keys = [ 10 ]; aggs })
      [ rset [ 10; 11 ] [] ]
  in
  Alcotest.(check int) "no groups from no rows" 0 (List.length r.Engine.Local.rows);
  (* DISTINCT path *)
  ignore
    (check_both "distinct agg"
       (Physop.Hash_agg
          { keys = []; aggs = [ agg 20 Expr.Count (Some (Expr.Col 10)) ] })
       [ sample ]);
  ignore
    (check_both "distinct sum"
       (Physop.Hash_agg
          { keys = [];
            aggs = [ agg ~distinct:true 20 Expr.Sum (Some (Expr.Col 10)) ] })
       [ sample ]);
  multikey_aggregates ()

let multikey_joins () =
  let eq a b = Expr.Bin (Expr.Eq, Expr.Col a, Expr.Col b) in
  let both_keys a b = Expr.Bin (Expr.And, a, b) in
  let preds =
    [ ("two int keys", both_keys (eq 30 40) (eq 31 41));
      ("int+date keys", both_keys (eq 30 40) (eq 32 42));
      ("string+int keys", both_keys (eq 33 43) (eq 30 40));
      ("float key vs int key", eq 34 44);
      ("float+int vs int+int keys", both_keys (eq 34 44) (eq 30 40));
      ("int key + residual", both_keys (eq 30 40) (Expr.Bin (Expr.Ne, Expr.Col 31, Expr.Col 41)));
      ("three keys + residual",
       both_keys (both_keys (eq 30 40) (eq 31 41))
         (both_keys (eq 32 42) (Expr.Bin (Expr.Lt, Expr.Col 34, Expr.Col 44)))) ]
  in
  List.iter
    (fun (pmsg, pred) ->
       List.iter
         (fun (kmsg, kind) ->
            List.iter
              (fun (dmsg, l, r) ->
                 ignore
                   (check_both (pmsg ^ ", " ^ kmsg ^ dmsg) (Physop.Hash_join { kind; pred })
                      [ l; r ]))
              [ ("", mk_left, mk_right); (" (generated)", gen_left, gen_right) ])
         [ ("inner", Algebra.Relop.Inner); ("left outer", Algebra.Relop.Left_outer);
           ("semi", Algebra.Relop.Semi); ("anti", Algebra.Relop.Anti_semi) ])
    preds

let test_join_edges () =
  let left = sample in
  let right =
    rset [ 20; 21 ]
      [ [| Value.Int 2; Value.String "b" |];
        [| Value.Int 3; Value.String "c" |];
        [| Value.Null; Value.String "n" |] ]
  in
  let eq = Expr.Bin (Expr.Eq, Expr.Col 10, Expr.Col 20) in
  List.iter
    (fun (msg, kind) ->
       ignore
         (check_both msg (Physop.Hash_join { kind; pred = eq }) [ left; right ]))
    [ ("inner join", Algebra.Relop.Inner); ("left outer join", Algebra.Relop.Left_outer);
      ("semi join", Algebra.Relop.Semi); ("anti join", Algebra.Relop.Anti_semi) ];
  (* empty sides *)
  let nil = rset [ 20; 21 ] [] in
  ignore (check_both "join empty build" (Physop.Hash_join { kind = Algebra.Relop.Inner; pred = eq })
            [ left; nil ]);
  ignore (check_both "outer join empty build"
            (Physop.Hash_join { kind = Algebra.Relop.Left_outer; pred = eq }) [ left; nil ]);
  ignore (check_both "join empty probe"
            (Physop.Hash_join { kind = Algebra.Relop.Inner; pred = eq }) [ rset [ 10; 11 ] []; right ]);
  (* non-equi predicate: falls back to nested loops on both engines *)
  let lt = Expr.Bin (Expr.Lt, Expr.Col 10, Expr.Col 20) in
  ignore (check_both "non-equi join"
            (Physop.Hash_join { kind = Algebra.Relop.Inner; pred = lt }) [ left; right ]);
  multikey_joins ()

(* -- compiled kernels against the row engine: random expressions over
   random batches -- *)

(* A random batch of [w] columns (ids 0 .. w-1) and a random selection.
   Each column takes one representation: ints, dates, bools, floats (each
   with or without NULLs), strings, a type-mixed column, all NULLs, or a
   homogeneous column stored boxed. *)
let gen_batch rng =
  let int k = Random.State.int rng k in
  let rows = int 9 in
  let w = 4 in
  let strings = [| "a"; "ab"; "abc"; "b"; "ba"; ""; "ca" |] in
  (* kinds: 0 ints, 1 dates, 2 bools, 3 floats, 4 strings, 5 type-mixed,
     6 all NULL *)
  let cell ~nullable kind =
    if kind = 6 || (nullable && int 5 = 0) then Value.Null
    else
      match kind with
      | 0 -> Value.Int (int 7 - 3)
      | 1 -> Value.Date (9000 + int 5)
      | 2 -> Value.Bool (int 2 = 0)
      | 3 -> Value.Float (float_of_int (int 9 - 4) /. 2.)
      | 4 -> Value.String strings.(int (Array.length strings))
      | _ ->
        (match int 4 with
         | 0 -> Value.Int (int 5) | 1 -> Value.Float (float_of_int (int 5))
         | 2 -> Value.String strings.(int 3) | _ -> Value.Bool (int 2 = 0))
  in
  let cols =
    Array.init w (fun _ ->
        let kind = int 7 and nullable = int 2 = 0 in
        let vs = Array.init rows (fun _ -> cell ~nullable kind) in
        (* a homogeneous column stored boxed, as a row payload would be *)
        if int 5 = 0 then Column.Boxed vs else Column.of_values vs)
  in
  let sel =
    if int 3 = 0 then None
    else Some (Array.of_list (List.filter (fun _ -> int 3 > 0) (List.init rows Fun.id)))
  in
  { Engine.Batch.layout = Array.init w Fun.id; cols; rows; sel }

let gen_expr rng (w : int) : Expr.t =
  let int k = Random.State.int rng k in
  let lit () =
    match int 7 with
    | 0 -> Value.Null | 1 -> Value.Int (int 7 - 3) | 2 -> Value.Float (float_of_int (int 5) /. 2.)
    | 3 -> Value.Bool (int 2 = 0) | 4 -> Value.Date (9000 + int 5)
    | 5 -> Value.String [| "a"; "ab"; "b"; "" |].(int 4)
    | _ -> Value.Int 0
  in
  let rec go d =
    if d = 0 || int 4 = 0 then
      if int 3 = 0 then Expr.Lit (lit ()) else Expr.Col (int w)
    else
      let sub () = go (d - 1) in
      match int 14 with
      | 0 -> Expr.Bin ([| Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Mod |].(int 5), sub (), sub ())
      | 1 | 2 ->
        Expr.Bin ([| Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge |].(int 6), sub (), sub ())
      | 3 -> Expr.Bin (Expr.And, sub (), sub ())
      | 4 -> Expr.Bin (Expr.Or, sub (), sub ())
      | 5 -> Expr.Un (Expr.Not, sub ())
      | 6 -> Expr.Un (Expr.Neg, sub ())
      | 7 -> Expr.Is_null (sub (), int 2 = 0)
      | 8 ->
        let patterns =
          [| "a%"; "%a"; "%b%"; "a_"; "ab"; "%"; "_%b"; "%a%b%"; "a%b"; "%%"; "b%a%"; "a%a" |]
        in
        Expr.Like (sub (), patterns.(int (Array.length patterns)), int 2 = 0)
      | 9 -> Expr.In_list (sub (), List.init (int 4) (fun _ -> lit ()), int 2 = 0)
      | 10 ->
        Expr.Case (List.init (1 + int 2) (fun _ -> (sub (), sub ())),
                   if int 2 = 0 then Some (sub ()) else None)
      | 11 ->
        Expr.Cast (sub (),
                   [| Catalog.Types.Tint; Catalog.Types.Tfloat; Catalog.Types.Tstring;
                      Catalog.Types.Tbool; Catalog.Types.Tdate |].(int 5))
      | 12 ->
        (match int 4 with
         | 0 -> Expr.Func (Expr.F_year, [ sub () ])
         | 1 -> Expr.Func (Expr.F_dateadd_day, [ Expr.Lit (Value.Int (int 40)); sub () ])
         | 2 -> Expr.Func (Expr.F_substring, [ sub (); Expr.Lit (Value.Int (int 3)); Expr.Lit (Value.Int (int 3)) ])
         | _ -> Expr.Func (Expr.F_abs, [ sub () ]))
      | _ -> sub ()
  in
  go 4

(* one operator on both engines: the rows (compared with [compare], so
   NaN cells match) or the type error *)
let outcome f =
  match f () with
  | (r : Engine.Local.rset) -> Ok r.Engine.Local.rows
  | exception Expr.Type_error _ -> Error "type error"

let same_outcome a b =
  match a, b with
  | Ok x, Ok y -> List.length x = List.length y && List.for_all2 (fun u v -> compare u v = 0) x y
  | Error _, Error _ -> true
  | _ -> false

let show_batch (b : Engine.Batch.t) =
  Format.asprintf "%a sel=%s" pp_rset
    (Engine.Batch.to_rset { b with Engine.Batch.sel = None })
    (match b.Engine.Batch.sel with
     | None -> "all"
     | Some s -> String.concat "," (List.map string_of_int (Array.to_list s)))

let prop_compiled_kernels =
  QCheck.Test.make ~name:"compiled filter and scalar kernels == row engine" ~count:2000
    (QCheck.make
       ~print:(fun (b, e) -> show_batch b ^ "\n" ^ Expr.to_string_with string_of_int e)
       (fun rng -> let b = gen_batch rng in (b, gen_expr rng 4)))
    (fun (b, e) ->
       let input = Engine.Batch.to_rset b in
       List.for_all
         (fun op ->
            let row () = Engine.Local.exec_op ~read_table:no_tables op [ input ] in
            let col () =
              Engine.Batch.to_rset (Engine.Batch.exec_op ~read_table:no_tables op [ b ])
            in
            same_outcome (outcome row) (outcome col)
            || QCheck.Test.fail_reportf "%s disagrees" (Physop.name op))
         [ Physop.Filter e; Physop.Compute [ (9, e); (0, Expr.Col 0) ] ])

(* random join inputs: int and date keys with duplicates and NULLs, a
   payload, and a random selection *)
let gen_join_side rng ~base =
  let int k = Random.State.int rng k in
  let rows = int 12 in
  let nulls = int 2 = 0 in
  let key mk = if nulls && int 6 = 0 then Value.Null else mk (int 5) in
  let r =
    rset [ base; base + 1; base + 2 ]
      (List.init rows (fun _ ->
           [| key (fun x -> Value.Int x); key (fun x -> Value.Date (9000 + x));
              (if int 6 = 0 then Value.Null else Value.Int (int 9)) |]))
  in
  let b = Engine.Batch.of_rset r in
  let sel =
    if int 2 = 0 then None
    else Some (Array.of_list (List.filter (fun _ -> int 3 > 0) (List.init rows Fun.id)))
  in
  { b with Engine.Batch.sel }

let prop_join =
  let eq a b = Expr.Bin (Expr.Eq, Expr.Col a, Expr.Col b) in
  let preds =
    [| eq 100 200; eq 101 201; Expr.Bin (Expr.And, eq 100 200, eq 101 201);
       Expr.Bin (Expr.And, eq 100 200, Expr.Bin (Expr.Lt, Expr.Col 102, Expr.Col 202));
       Expr.Bin (Expr.And, eq 101 201,
                 Expr.Bin (Expr.Or, Expr.Bin (Expr.Gt, Expr.Col 102, Expr.Lit (Value.Int 4)),
                           Expr.Is_null (Expr.Col 202, false)));
       Expr.Bin (Expr.Le, Expr.Col 102, Expr.Col 202);
       Expr.Lit (Value.Bool true);
       (* no equi key, and a residual that raises on some pairs (LIKE on
          a date): a nested-loop semi or anti join stops at a probe row's
          first kept pair, so a raising pair after it must not raise *)
       Expr.Bin (Expr.Or, Expr.Bin (Expr.Lt, Expr.Col 102, Expr.Col 202),
                 Expr.Bin (Expr.And, Expr.Bin (Expr.Lt, Expr.Col 202, Expr.Lit (Value.Int 3)),
                           Expr.Like (Expr.Col 201, "a%", false))) |]
  in
  let kinds =
    [| Algebra.Relop.Inner; Algebra.Relop.Left_outer; Algebra.Relop.Semi;
       Algebra.Relop.Anti_semi; Algebra.Relop.Cross |]
  in
  QCheck.Test.make ~name:"columnar join == row engine (rows and order)" ~count:1000
    (QCheck.make
       ~print:(fun (l, r, p, k) ->
           Printf.sprintf "%s\n%s\npred %d kind %d" (show_batch l) (show_batch r) p k)
       (fun rng ->
          let l = gen_join_side rng ~base:100 and r = gen_join_side rng ~base:200 in
          (l, r, Random.State.int rng (Array.length preds),
           Random.State.int rng (Array.length kinds))))
    (fun (l, r, p, k) ->
       let op = Physop.Hash_join { kind = kinds.(k); pred = preds.(p) } in
       let row () =
         Engine.Local.exec_op ~read_table:no_tables op
           [ Engine.Batch.to_rset l; Engine.Batch.to_rset r ]
       in
       let col () =
         Engine.Batch.to_rset (Engine.Batch.exec_op ~read_table:no_tables op [ l; r ])
       in
       same_outcome (outcome row) (outcome col))

(* -- end-to-end: both engines over the whole bundled workload -- *)

let run_and_account (w : Opdw.Workload.t) sql =
  let app = w.Opdw.Workload.app in
  Engine.Appliance.reset_account app;
  let r = Opdw.optimize w.Opdw.Workload.shell sql in
  let res = Opdw.run app r in
  let cols = List.map snd (Opdw.output_columns r) in
  (Engine.Local.canonical ~cols res, app.Engine.Appliance.account)

let canonical_and_time w sql =
  let rows, a = run_and_account w sql in
  (rows, a.Engine.Appliance.sim_time)

let test_workload_parity () =
  let wr = Lazy.force Fixtures.tpch_workload in
  let wc = Lazy.force Fixtures.tpch_columnar in
  List.iter
    (fun (q : Tpch.Queries.t) ->
       let id = q.Tpch.Queries.id in
       let rows_r, ar = run_and_account wr q.Tpch.Queries.sql in
       let rows_c, ac = run_and_account wc q.Tpch.Queries.sql in
       Alcotest.(check (list string)) (id ^ ": rows match the row engine") rows_r rows_c;
       Alcotest.(check (float 0.))
         (id ^ ": simulated clock is bit-identical")
         ar.Engine.Appliance.sim_time ac.Engine.Appliance.sim_time;
       (* late materialization must not change what a Move or the Return
          carries: every moved byte and row is the row engine's *)
       Alcotest.(check (float 0.))
         (id ^ ": bytes moved are bit-identical")
         ar.Engine.Appliance.bytes_moved ac.Engine.Appliance.bytes_moved;
       Alcotest.(check (float 0.))
         (id ^ ": rows moved are bit-identical")
         ar.Engine.Appliance.rows_moved ac.Engine.Appliance.rows_moved;
       Alcotest.(check int) (id ^ ": same moves")
         ar.Engine.Appliance.moves ac.Engine.Appliance.moves)
    Tpch.Queries.all

(* qcheck: random plans agree across engines (rows and simulated time) *)
let prop_random_parity =
  let wr = lazy (Opdw.Workload.tpch ~node_count:4 ~sf:0.001 ()) in
  let wc =
    lazy (Opdw.Workload.tpch ~node_count:4 ~sf:0.001 ~engine:Engine.Rset.Columnar ())
  in
  QCheck.Test.make ~name:"random queries: columnar == row (rows and sim clock)"
    ~count:60 Test_fuzz.arb_query
    (fun q ->
       let sql = q.Test_fuzz.sql in
       let rows_r, sim_r = canonical_and_time (Lazy.force wr) sql in
       let rows_c, sim_c = canonical_and_time (Lazy.force wc) sql in
       if rows_r <> rows_c then QCheck.Test.fail_report ("row mismatch: " ^ sql);
       if sim_r <> sim_c then QCheck.Test.fail_report ("sim-clock mismatch: " ^ sql);
       true)

(* -- fault schedules: retries/recovery must not disturb engine parity -- *)

let chaos_once engine sql =
  let w = Opdw.Workload.tpch ~node_count:4 ~sf:0.002 ~engine () in
  let fault = Fault.seeded ~seed:11 ~rate:0.25 () in
  let ctx = Topology.Elastic.create ~fault w.Opdw.Workload.shell w.Opdw.Workload.app in
  let r, res = Topology.Elastic.run ctx sql in
  let cols = List.map snd (Opdw.output_columns r) in
  let a = (Topology.Elastic.app ctx).Engine.Appliance.account in
  (Engine.Local.canonical ~cols res, a.Engine.Appliance.sim_time,
   a.Engine.Appliance.injected, a.Engine.Appliance.retries)

let test_fault_parity () =
  List.iter
    (fun id ->
       let q = Option.get (Tpch.Queries.find id) in
       let rows_r, sim_r, inj_r, ret_r = chaos_once Engine.Rset.Row q.Tpch.Queries.sql in
       let rows_c, sim_c, inj_c, ret_c =
         chaos_once Engine.Rset.Columnar q.Tpch.Queries.sql
       in
       Alcotest.(check (list string)) (id ^ ": rows under faults") rows_r rows_c;
       Alcotest.(check (float 0.)) (id ^ ": sim clock under faults") sim_r sim_c;
       Alcotest.(check int) (id ^ ": same faults fired") inj_r inj_c;
       Alcotest.(check int) (id ^ ": same retries") ret_r ret_c)
    [ "Q3"; "Q6" ]

(* -- the simulated clock is jobs-independent on the columnar engine -- *)

let test_jobs_independence () =
  let once jobs =
    Par.with_pool ~jobs @@ fun pool ->
    let w = Opdw.Workload.tpch ~node_count:4 ~sf:0.002 ~engine:Engine.Rset.Columnar () in
    let app = w.Opdw.Workload.app in
    Engine.Appliance.set_pool app pool;
    canonical_and_time w (Option.get (Tpch.Queries.find "Q9")).Tpch.Queries.sql
  in
  let rows1, sim1 = once 1 in
  let rows4, sim4 = once 4 in
  Alcotest.(check (list string)) "rows at jobs 1 = jobs 4" rows1 rows4;
  Alcotest.(check (float 0.)) "sim clock at jobs 1 = jobs 4" sim1 sim4

(* An empty build side (no rows, nothing selected, or only NULL keys)
   matches no probe row, so the residual never runs, as in the row engine:
   a residual that raises on any pair must not raise. *)
let test_join_empty_build () =
  let raising =
    [ ("LIKE on a build date", Expr.Like (Expr.Col 201, "a%", false));
      ("LIKE on an int literal", Expr.Like (Expr.Lit (Value.Int 1), "a%", false)) ]
  in
  let eq a b = Expr.Bin (Expr.Eq, Expr.Col a, Expr.Col b) in
  let left =
    Engine.Batch.of_rset
      (rset [ 100; 101; 102 ]
         [ [| Value.Int 1; Value.Date 9000; Value.Int 3 |];
           [| Value.Null; Value.Date 9001; Value.Int 4 |];
           [| Value.Int 2; Value.Date 9000; Value.Null |] ])
  in
  let build rows = Engine.Batch.of_rset (rset [ 200; 201; 202 ] rows) in
  let full =
    build [ [| Value.Int 1; Value.Date 9000; Value.Int 3 |];
            [| Value.Int 2; Value.Date 9001; Value.Int 4 |] ]
  in
  let null_keys =
    build [ [| Value.Null; Value.Null; Value.Int 3 |];
            [| Value.Null; Value.Null; Value.Int 4 |] ]
  in
  let sides =
    [ ("no rows", build [], true);
      ("nothing selected", { full with Engine.Batch.sel = Some [||] }, true);
      ("NULL keys only", null_keys, false) ]
  in
  List.iter
    (fun (smsg, r, keyless) ->
       List.iter
         (fun (rmsg, res) ->
            let preds =
              Expr.Bin (Expr.And, Expr.Bin (Expr.And, eq 100 200, eq 101 201), res)
              :: (if keyless then [ res ] else [])
            in
            List.iter
              (fun pred ->
                 List.iter
                   (fun kind ->
                      let op = Physop.Hash_join { kind; pred } in
                      let row () =
                        Engine.Local.exec_op ~read_table:no_tables op
                          [ Engine.Batch.to_rset left; Engine.Batch.to_rset r ]
                      in
                      let col () =
                        Engine.Batch.to_rset
                          (Engine.Batch.exec_op ~read_table:no_tables op [ left; r ])
                      in
                      let msg = Printf.sprintf "%s, %s, %s" smsg rmsg (Physop.name op) in
                      match outcome row, outcome col with
                      | Ok a, Ok b -> Alcotest.(check bool) msg true (same_outcome (Ok a) (Ok b))
                      | _ -> Alcotest.failf "%s: type error" msg)
                   [ Algebra.Relop.Inner; Algebra.Relop.Left_outer; Algebra.Relop.Semi;
                     Algebra.Relop.Anti_semi; Algebra.Relop.Cross ])
              preds)
         raising)
    sides

(* random key columns for joins and grouping: ints, dates, floats (0.,
   -0., nan, and 2.0 beside the int 2), strings (empty, one character,
   repeated), each typed or stored boxed, with NULLs; [kinds] fixes each
   key column's kind, so two sides that draw different kinds make a
   type-mixed pair *)
let gen_key_side rng ~base ~kinds ~null_keys =
  let int k = Random.State.int rng k in
  let rows = if int 6 = 0 then 0 else int 12 in
  let floats = [| 0.; -0.; Float.nan; 2.0; 1.5 |] in
  let strings = [| ""; "a"; "a"; "ab" |] in
  let nullable = int 2 = 0 in
  let cell kind =
    if null_keys || (nullable && int 6 = 0) then Value.Null
    else
      match kind with
      | 0 -> Value.Int (int 4)
      | 1 -> Value.Date (9000 + int 3)
      | 2 -> Value.Float floats.(int (Array.length floats))
      | _ -> Value.String strings.(int (Array.length strings))
  in
  let keys =
    Array.map
      (fun kind ->
         let vs = Array.init rows (fun _ -> cell kind) in
         if int 4 = 0 then Column.Boxed vs else Column.of_values vs)
      kinds
  in
  let payload = Column.of_values (Array.init rows (fun _ -> Value.Int (int 6))) in
  let w = Array.length kinds in
  let sel =
    if int 2 = 0 then None
    else Some (Array.of_list (List.filter (fun _ -> int 3 > 0) (List.init rows Fun.id)))
  in
  { Engine.Batch.layout = Array.init (w + 1) (fun c -> base + c);
    cols = Array.append keys [| payload |]; rows; sel }

let prop_join_group_keys =
  let kinds =
    [| Algebra.Relop.Inner; Algebra.Relop.Left_outer; Algebra.Relop.Semi;
       Algebra.Relop.Anti_semi; Algebra.Relop.Cross |]
  in
  QCheck.Test.make ~name:"columnar join and grouping keys == row engine" ~count:1000
    (QCheck.make
       ~print:(fun (l, r, kc, res, k) ->
           Printf.sprintf "%s\n%s\nkeys %d residual %d kind %d" (show_batch l) (show_batch r)
             kc res k)
       (fun rng ->
          let int k = Random.State.int rng k in
          let kc = 1 + int 3 in
          let lk = Array.init kc (fun _ -> int 4) in
          let rk = Array.map (fun k -> if int 2 = 0 then k else int 4) lk in
          let l = gen_key_side rng ~base:300 ~kinds:lk ~null_keys:false in
          let r = gen_key_side rng ~base:400 ~kinds:rk ~null_keys:(int 8 = 0) in
          (l, r, kc, int 3, int (Array.length kinds))))
    (fun (l, r, kc, res, k) ->
       let eq a b = Expr.Bin (Expr.Eq, Expr.Col a, Expr.Col b) in
       let keys = List.init kc (fun c -> eq (300 + c) (400 + c)) in
       let pl = Expr.Col (300 + kc) and pr = Expr.Col (400 + kc) in
       (* 0: keys only; 1: a residual over the payloads; 2: the residual
          of [prop_join] that raises on some pairs (LIKE on a key cell) *)
       let residual =
         match res with
         | 0 -> []
         | 1 -> [ Expr.Bin (Expr.Le, pl, pr) ]
         | _ ->
           [ Expr.Bin (Expr.Or, Expr.Bin (Expr.Lt, pl, pr),
                       Expr.Bin (Expr.And, Expr.Bin (Expr.Lt, pr, Expr.Lit (Value.Int 3)),
                                 Expr.Like (Expr.Col 400, "a%", false))) ]
       in
       let pred = List.fold_left (fun a b -> Expr.Bin (Expr.And, a, b)) (List.hd keys)
           (List.tl keys @ residual) in
       let aggs =
         [ agg 90 Expr.Sum (Some pl); agg 91 Expr.Count (Some (Expr.Col 300));
           agg 92 Expr.Min (Some (Expr.Col 300)); agg 93 Expr.Avg (Some pl) ]
       in
       let group = Physop.Hash_agg { keys = List.init kc (fun c -> 300 + c); aggs } in
       let join = Physop.Hash_join { kind = kinds.(k); pred } in
       let agree op inputs =
         let row () =
           Engine.Local.exec_op ~read_table:no_tables op (List.map Engine.Batch.to_rset inputs)
         in
         let col () = Engine.Batch.to_rset (Engine.Batch.exec_op ~read_table:no_tables op inputs) in
         same_outcome (outcome row) (outcome col)
         || QCheck.Test.fail_reportf "%s disagrees" (Physop.name op)
       in
       agree join [ l; r ] && agree group [ l ])

let suite =
  [ Alcotest.test_case "column builders round-trip values" `Quick test_builder_roundtrip;
    Alcotest.test_case "column builders pick typed layouts" `Quick test_builder_typed_layout;
    Alcotest.test_case "tables round-trip rows" `Quick test_table_roundtrip;
    Alcotest.test_case "filter: empty, all-filtered, nulls, sel-of-sel" `Quick
      test_filter_edges;
    Alcotest.test_case "aggregates: null and empty-input handling" `Quick
      test_aggregate_nulls;
    Alcotest.test_case "joins: kinds, empty sides, non-equi" `Quick test_join_edges;
    Alcotest.test_case "all 25 workload queries: columnar == row" `Slow
      test_workload_parity;
    QCheck_alcotest.to_alcotest prop_random_parity;
    Alcotest.test_case "fault schedules: parity under retries" `Slow test_fault_parity;
    Alcotest.test_case "columnar sim clock is --jobs independent" `Quick
      test_jobs_independence;
    QCheck_alcotest.to_alcotest prop_compiled_kernels;
    QCheck_alcotest.to_alcotest prop_join;
    Alcotest.test_case "joins: an empty build side runs no residual" `Quick
      test_join_empty_build;
    QCheck_alcotest.to_alcotest prop_join_group_keys ]
