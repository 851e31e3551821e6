(* The MEMO structure: insertion, dedup, group merging, logical properties,
   and the XML interchange round trip. *)

open Algebra

let t name f = Alcotest.test_case name `Quick f

let build sql =
  let sh = Fixtures.shell () in
  let r = Algebra.Algebrizer.of_sql sh sql in
  let tr = Normalize.normalize r.Algebrizer.reg sh r.Algebrizer.tree in
  (r.Algebrizer.reg, sh, Memo.of_tree r.Algebrizer.reg sh tr)

let test_insert_dedup () =
  let _, _, m =
    build "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey"
  in
  let before_groups = Memo.ngroups m and before_exprs = Memo.total_exprs m in
  (* re-inserting an existing expression must be a no-op *)
  let g = Memo.root m in
  let e = List.hd (Memo.exprs m g) in
  let g' = Memo.insert m e.Memo.op e.Memo.children in
  Alcotest.(check int) "same group" (Memo.find m g) (Memo.find m g');
  Alcotest.(check int) "no new groups" before_groups (Memo.ngroups m);
  Alcotest.(check int) "no new exprs" before_exprs (Memo.total_exprs m)

let test_shared_subtrees_dedup () =
  (* the same Get used twice in one query (Q20's duplicated part subtree)
     lands in a single group *)
  let reg, sh, _ = build "SELECT c_name FROM customer" in
  ignore reg;
  let r = Algebra.Algebrizer.of_sql sh "SELECT c_name FROM customer WHERE c_acctbal > 0" in
  let tr = Normalize.normalize r.Algebrizer.reg sh r.Algebrizer.tree in
  let m = Memo.of_tree r.Algebrizer.reg sh tr in
  (* inserting the same tree twice: all groups deduplicate *)
  let n1 = Memo.ngroups m in
  let g2 = Memo.insert_tree m tr in
  Alcotest.(check int) "identical tree dedups fully" n1 (Memo.ngroups m);
  Alcotest.(check int) "same root group" (Memo.root m) (Memo.find m g2)

let test_group_merge () =
  let _, _, m = build "SELECT c_name FROM customer" in
  let ga = Memo.root m in
  (* make a distinct group then merge it *)
  let gb =
    Memo.insert m
      (Memo.Logical (Relop.Empty (Registry.Col_set.elements (Memo.props m ga).Memo.cols)))
      [||]
  in
  Alcotest.(check bool) "distinct before merge" true (Memo.find m ga <> Memo.find m gb);
  Memo.merge_groups m ga gb;
  Alcotest.(check int) "merged" (Memo.find m ga) (Memo.find m gb);
  let exprs = Memo.exprs m ga in
  Alcotest.(check bool) "expressions combined" true (List.length exprs >= 2)

let test_props_cardinality () =
  let _, _, m =
    build "SELECT c_name FROM customer WHERE c_acctbal > 999999999"
  in
  let root_card = (Memo.props m (Memo.root m)).Memo.card in
  Alcotest.(check bool) "selective filter reduces estimate" true (root_card < 300.)

let test_props_cols () =
  let _, _, m = build "SELECT c_custkey, c_name FROM customer" in
  Alcotest.(check int) "root outputs 2 cols" 2
    (Registry.Col_set.cardinal (Memo.props m (Memo.root m)).Memo.cols)

let test_width () =
  let _, _, m = build "SELECT c_custkey FROM customer" in
  let w = (Memo.props m (Memo.root m)).Memo.width in
  Alcotest.(check (float 0.01)) "int key is 8 bytes" 8.0 w

(* -- XML round trip -- *)

let roundtrip m sh =
  let xml = Memo.Memo_xml.export_string m in
  let m2 = Memo.Memo_xml.import_string sh xml in
  (xml, m2)

let test_xml_roundtrip_counts () =
  List.iter
    (fun q ->
       let sh = Fixtures.shell () in
       let r = Algebra.Algebrizer.of_sql sh q.Tpch.Queries.sql in
       let tr = Normalize.normalize r.Algebrizer.reg sh r.Algebrizer.tree in
       let res = Serialopt.Optimizer.optimize r.Algebrizer.reg sh tr in
       let m = res.Serialopt.Optimizer.memo in
       let _, m2 = roundtrip m sh in
       Alcotest.(check int)
         ("exprs preserved: " ^ q.Tpch.Queries.id)
         (Memo.total_exprs m) (Memo.total_exprs m2);
       (* props preserved at the root *)
       let p1 = Memo.props m (Memo.root m) and p2 = Memo.props m2 (Memo.root m2) in
       Alcotest.(check (float 0.001)) "card preserved" p1.Memo.card p2.Memo.card;
       Alcotest.(check (float 0.001)) "width preserved" p1.Memo.width p2.Memo.width;
       Alcotest.(check int) "cols preserved"
         (Registry.Col_set.cardinal p1.Memo.cols)
         (Registry.Col_set.cardinal p2.Memo.cols))
    [ Option.get (Tpch.Queries.find "P1");
      Option.get (Tpch.Queries.find "Q3");
      Option.get (Tpch.Queries.find "Q20") ]

let test_xml_registry_roundtrip () =
  let sh = Fixtures.shell () in
  let r = Algebra.Algebrizer.of_sql sh "SELECT c_custkey, c_name FROM customer" in
  let tr = Normalize.normalize r.Algebrizer.reg sh r.Algebrizer.tree in
  let m = Memo.of_tree r.Algebrizer.reg sh tr in
  let _, m2 = roundtrip m sh in
  let reg1 = m.Memo.reg and reg2 = m2.Memo.reg in
  Alcotest.(check int) "col count" (Registry.count reg1) (Registry.count reg2);
  for id = 0 to Registry.count reg1 - 1 do
    Alcotest.(check string) "name" (Registry.name reg1 id) (Registry.name reg2 id);
    Alcotest.(check string) "label" (Registry.label reg1 id) (Registry.label reg2 id)
  done

(* -- scalar interning -- *)

let serial_memo sh sql =
  let r = Algebra.Algebrizer.of_sql sh sql in
  let tr = Normalize.normalize r.Algebrizer.reg sh r.Algebrizer.tree in
  (Serialopt.Optimizer.optimize r.Algebrizer.reg sh tr).Serialopt.Optimizer.memo

let query id = (Option.get (Tpch.Queries.find id)).Tpch.Queries.sql

(* a real interchange document: 8 nodes, SF 0.01 *)
let xml_8_nodes =
  let w = lazy (Opdw.Workload.tpch ~node_count:8 ~sf:0.01 ()) in
  fun id ->
    let r = Opdw.optimize (Lazy.force w).Opdw.Workload.shell (query id) in
    Option.get r.Opdw.memo_xml

let test_xml_export_fixpoint () =
  let sh = Fixtures.shell () in
  List.iter
    (fun q ->
       let xml = Memo.Memo_xml.export_string (serial_memo sh q.Tpch.Queries.sql) in
       let xml' = Memo.Memo_xml.export_string (Memo.Memo_xml.import_string sh xml) in
       Alcotest.(check bool) ("export . import . export = export: " ^ q.Tpch.Queries.id)
         true (String.equal xml xml'))
    Tpch.Queries.all

(* Import goes through the MEMO's own interning: every imported expression
   is found again under its own group, and re-inserting it adds nothing. *)
let test_xml_import_dedup () =
  let sh = Fixtures.shell () in
  List.iter
    (fun q ->
       let m = serial_memo sh q.Tpch.Queries.sql in
       let m2 = Memo.Memo_xml.import_string sh (Memo.Memo_xml.export_string m) in
       let groups = Memo.ngroups m2 and keys = Hashtbl.length m2.Memo.dedup in
       Memo.iter_groups m2 (fun g ->
           List.iter
             (fun (e : Memo.gexpr) ->
                Alcotest.(check int) (q.Tpch.Queries.id ^ ": re-insert finds its group")
                  g.Memo.gid (Memo.insert m2 e.Memo.op e.Memo.children))
             g.Memo.exprs);
       Alcotest.(check (pair int int)) (q.Tpch.Queries.id ^ ": groups, dedup keys unchanged")
         (groups, keys) (Memo.ngroups m2, Hashtbl.length m2.Memo.dedup))
    Tpch.Queries.all

let scalar_entries xml =
  List.map
    (fun s -> Memo.Xml.to_string (List.hd s.Memo.Xml.children))
    (Memo.Xml.child (Memo.Xml.parse xml) "scalars").Memo.Xml.children

let test_xml_scalars_distinct () =
  let m = serial_memo (Fixtures.shell ()) (query "Q9") in
  let entries = scalar_entries (Memo.Memo_xml.export_string m) in
  Alcotest.(check bool) "Q9 has a scalar table" true (List.length entries > 10);
  Alcotest.(check int) "no two byte-identical entries"
    (List.length entries) (List.length (List.sort_uniq String.compare entries))

let join_pred = function
  | Memo.Logical (Relop.Join { pred; _ })
  | Memo.Physical
      ( Memo.Physop.Hash_join { pred; _ } | Memo.Physop.Merge_join { pred; _ }
      | Memo.Physop.Nl_join { pred; _ } ) -> Some pred
  | _ -> None

let test_xml_import_shares () =
  let sh = Fixtures.shell () in
  let m = serial_memo sh (query "Q9") in
  let m2 = Memo.Memo_xml.import_string sh (Memo.Memo_xml.export_string m) in
  let pairs = ref 0 in
  Memo.iter_groups m2 (fun g ->
      let preds = List.filter_map (fun e -> join_pred e.Memo.op) g.Memo.exprs in
      List.iteri
        (fun i a ->
           List.iteri
             (fun j b ->
                if i < j && Expr.equal a b then begin
                  incr pairs;
                  if a != b then Alcotest.fail "equal predicates not shared after import"
                end)
             preds)
        preds);
  Alcotest.(check bool) "some group carries a predicate twice" true (!pairs > 0)

(* 0. and -0. are equal under [=] and [Hashtbl.hash] but encode differently;
   NaN is unequal to itself but encodes the same every time *)
let test_xml_float_signs () =
  let sh = Fixtures.shell () in
  let r = Algebra.Algebrizer.of_sql sh "SELECT c_acctbal FROM customer" in
  let reg = r.Algebrizer.reg in
  let bal = List.hd (Relop.output_cols r.Algebrizer.tree) in
  let gt x = Expr.Bin (Expr.Gt, Expr.Col bal, Expr.Lit (Catalog.Value.Float x)) in
  let tree =
    List.fold_left (fun t x -> Relop.select (gt x) t) r.Algebrizer.tree [ 0.; -0.; Float.nan ]
  in
  let m = Memo.of_tree reg sh tree in
  let xml = Memo.Memo_xml.export_string m in
  let has_float e =
    let needle = "t=\"float\"" in
    let n = String.length needle in
    let rec go i = i + n <= String.length e && (String.sub e i n = needle || go (i + 1)) in
    go 0
  in
  let float_entries = List.filter has_float (scalar_entries xml) in
  Alcotest.(check int) "one scalar entry per float literal" 3 (List.length float_entries);
  let m2 = Memo.Memo_xml.import_string sh xml in
  let lits = ref [] in
  Memo.iter_groups m2 (fun g ->
      List.iter
        (fun e ->
           match e.Memo.op with
           | Memo.Logical (Relop.Select (Expr.Bin (_, _, Expr.Lit (Catalog.Value.Float x)))) ->
             lits := Printf.sprintf "%h" x :: !lits
           | _ -> ())
        g.Memo.exprs);
  Alcotest.(check (list string)) "both zero signs and NaN survive"
    [ "-0x0p+0"; "0x0p+0"; "nan" ] (List.sort compare !lits);
  Alcotest.(check bool) "re-export is byte-identical" true
    (String.equal xml (Memo.Memo_xml.export_string m2))

let test_xml_size_guard () =
  let bytes = String.length (xml_8_nodes "Q9") in
  if bytes >= 256 * 1024 then Alcotest.failf "Q9 MEMO XML is %d bytes (limit 256 KiB)" bytes

(* -- malformed interchange documents -- *)

let imports_or_xml_error xml =
  match Memo.Memo_xml.import_string (Fixtures.shell ()) xml with
  | _ -> true
  | exception Memo.Xml.Xml_error _ -> true
  | exception e -> QCheck.Test.fail_reportf "untyped %s" (Printexc.to_string e)

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then Alcotest.failf "%S not in the document" sub
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let test_xml_malformed () =
  let xml = xml_8_nodes "Q3" in
  List.iter
    (fun (what, sub, by) ->
       match Memo.Memo_xml.import_string (Fixtures.shell ()) (replace_first ~sub ~by xml) with
       | _ -> Alcotest.failf "%s: imported" what
       | exception Memo.Xml.Xml_error _ -> ()
       | exception e -> Alcotest.failf "%s: untyped %s" what (Printexc.to_string e))
    [ ("attribute ending in &", "name=\"c_custkey\"", "name=\"c_custkey&\"");
      ("non-integer group id", "<group id=\"0\"", "<group id=\"x\"");
      ("non-integer root", "root=\"", "root=\"r");
      ("bad card", "card=\"", "card=\"zz");
      ("non-integer children", "children=\"\"", "children=\"a,b\"");
      ("negative scalar reference", "pred=\"0\"", "pred=\"-1\"");
      ("out-of-range scalar reference", "pred=\"0\"", "pred=\"99999\"");
      ("non-dense scalar ids", "<s id=\"0\"", "<s id=\"7\"") ]

let prop_xml_mutations =
  let xml = lazy (xml_8_nodes "Q3") in
  let gen =
    let open QCheck.Gen in
    let byte = oneof [ oneofl [ '&'; '<'; '>'; '"'; '/'; ','; '-'; '.'; '0'; '9'; ' ' ]; char ] in
    let edit = pair nat byte in
    oneof
      [ map (fun cut -> `Cut cut) nat;
        map (fun edits -> `Mutate edits) (list_size (int_range 1 4) edit) ]
  in
  let print = function
    | `Cut i -> Printf.sprintf "truncate at %d" i
    | `Mutate edits ->
      String.concat "; " (List.map (fun (i, c) -> Printf.sprintf "byte %d := %C" i c) edits)
  in
  QCheck.Test.make ~name:"truncated or mutated MEMO XML imports or raises Xml_error"
    ~count:300 (QCheck.make ~print gen)
    (fun change ->
       let xml = Lazy.force xml in
       let n = String.length xml in
       imports_or_xml_error
         (match change with
          | `Cut i -> String.sub xml 0 (i mod n)
          | `Mutate edits ->
            let b = Bytes.of_string xml in
            List.iter (fun (i, c) -> Bytes.set b (i mod n) c) edits;
            Bytes.to_string b))

(* random expression encode/decode *)
let arb_expr =
  let open QCheck.Gen in
  let lit_gen =
    oneof
      [ map (fun i -> Catalog.Value.Int i) small_signed_int;
        map (fun f -> Catalog.Value.Float f) (float_bound_inclusive 100.);
        map (fun s -> Catalog.Value.String s) (string_size ~gen:printable (int_range 0 6));
        return Catalog.Value.Null ]
  in
  let rec gen n =
    if n = 0 then
      oneof [ map (fun c -> Expr.Col c) (int_range 0 20); map (fun v -> Expr.Lit v) lit_gen ]
    else
      frequency
        [ (2, map (fun c -> Expr.Col c) (int_range 0 20));
          (2, map (fun v -> Expr.Lit v) lit_gen);
          (3,
           map3
             (fun op a b -> Expr.Bin (op, a, b))
             (oneofl Expr.[ Add; Sub; Mul; Eq; Lt; And; Or ])
             (gen (n - 1)) (gen (n - 1)));
          (1, map (fun a -> Expr.Un (Expr.Not, a)) (gen (n - 1)));
          (1, map (fun a -> Expr.Is_null (a, true)) (gen (n - 1)));
          (1, map (fun a -> Expr.Like (a, "ab%c_", false)) (gen (n - 1)));
          (1,
           map2 (fun a v -> Expr.In_list (a, v, true)) (gen (n - 1)) (list_size (int_range 0 3) lit_gen));
          (1, map2 (fun c v -> Expr.Case ([ (c, v) ], Some v)) (gen (n - 1)) (gen (n - 1)));
          (1, map (fun a -> Expr.Cast (a, Catalog.Types.Tfloat)) (gen (n - 1))) ]
  in
  QCheck.make (gen 4)

let prop_expr_xml_roundtrip =
  QCheck.Test.make ~name:"expression XML round trip" ~count:500 arb_expr
    (fun e ->
       let xml = Memo.Memo_xml.expr_to_xml e in
       let e' = Memo.Memo_xml.expr_of_xml (Memo.Xml.parse (Memo.Xml.to_string xml)) in
       Expr.equal e e')

(* XML parser unit checks *)
let test_xml_escape () =
  let n =
    Memo.Xml.node ~attrs:[ ("v", "a<b&\"c'd>") ] "x"
  in
  let s = Memo.Xml.to_string n in
  let n' = Memo.Xml.parse s in
  Alcotest.(check string) "escaped attr" "a<b&\"c'd>" (Memo.Xml.attr n' "v")

let test_xml_errors () =
  let fails s =
    match Memo.Xml.parse s with
    | exception Memo.Xml.Xml_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ s)
  in
  fails "<a><b></a>";
  fails "<a";
  fails "<a attr></a>";
  fails "<a><b/>"

let suite =
  [ t "insert dedup" test_insert_dedup;
    t "identical trees share groups" test_shared_subtrees_dedup;
    t "group merging" test_group_merge;
    t "cardinality property" test_props_cardinality;
    t "column property" test_props_cols;
    t "width property" test_width;
    t "memo XML round trip (counts/props)" test_xml_roundtrip_counts;
    t "memo XML registry round trip" test_xml_registry_roundtrip;
    t "memo XML export is a fixpoint of import (all queries)" test_xml_export_fixpoint;
    t "memo XML scalar table has no duplicates (Q9)" test_xml_scalars_distinct;
    t "memo XML import shares equal predicates" test_xml_import_shares;
    t "memo XML keeps 0., -0. and NaN apart" test_xml_float_signs;
    t "memo XML size guard (Q9, 8 nodes, SF 0.01)" test_xml_size_guard;
    t "malformed memo XML raises Xml_error" test_xml_malformed;
    QCheck_alcotest.to_alcotest prop_xml_mutations;
    QCheck_alcotest.to_alcotest prop_expr_xml_roundtrip;
    t "XML attribute escaping" test_xml_escape;
    t "XML parse errors" test_xml_errors;
    t "memo XML import re-inserts into its own groups (all queries)" test_xml_import_dedup ]
