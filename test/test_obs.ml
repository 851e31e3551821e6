(* Unit tests for the Obs instrumentation library: span nesting and timing
   (against a fake clock), counter accumulation across re-entries, sink
   event delivery, and the disabled-context no-op guarantees.  Also the
   MEMO XML round-trip property: export/import preserves the group,
   expression and distinct-scalar counts, as reported by the memo_xml.*
   counters. *)

let feq = Alcotest.float 1e-9

let test_nesting () =
  let now = ref 0. in
  let obs = Obs.create ~clock:(fun () -> !now) () in
  let v =
    Obs.with_span obs "outer" (fun () ->
        now := !now +. 1.;
        Obs.with_span obs "inner" (fun () ->
            now := !now +. 2.;
            7))
  in
  Alcotest.(check int) "body result" 7 v;
  match Obs.roots obs with
  | [ outer ] ->
    Alcotest.(check string) "outer name" "outer" outer.Obs.name;
    Alcotest.check feq "outer elapsed includes child" 3. outer.Obs.elapsed;
    (match outer.Obs.children with
     | [ inner ] ->
       Alcotest.(check string) "inner name" "inner" inner.Obs.name;
       Alcotest.check feq "inner elapsed" 2. inner.Obs.elapsed;
       Alcotest.(check int) "inner calls" 1 inner.Obs.calls
     | _ -> Alcotest.fail "expected exactly one child span")
  | _ -> Alcotest.fail "expected exactly one root span"

let test_reentry_accumulates () =
  let now = ref 0. in
  let obs = Obs.create ~clock:(fun () -> !now) () in
  for _ = 1 to 3 do
    Obs.with_span obs "stage" (fun () ->
        now := !now +. 0.5;
        Obs.add obs "hits" 2)
  done;
  (match Obs.roots obs with
   | [ _ ] -> ()
   | l -> Alcotest.failf "re-entry created %d roots, expected 1" (List.length l));
  let s = Option.get (Obs.find obs [ "stage" ]) in
  Alcotest.(check int) "calls" 3 s.Obs.calls;
  Alcotest.check feq "elapsed" 1.5 s.Obs.elapsed;
  Alcotest.check feq "add accumulates" 6. (Obs.counter obs "hits")

let test_set_overwrites () =
  let obs = Obs.create ~clock:(fun () -> 0.) () in
  Obs.with_span obs "g" (fun () ->
      Obs.set obs "gauge" 1.;
      Obs.set obs "gauge" 5.);
  let s = Option.get (Obs.find obs [ "g" ]) in
  Alcotest.(check (option (Alcotest.float 0.)))
    "last write wins" (Some 5.) (Obs.span_metric s "gauge")

let test_counter_sums_subtree () =
  let obs = Obs.create ~clock:(fun () -> 0.) () in
  Obs.with_span obs "a" (fun () ->
      Obs.add obs "n" 1;
      Obs.with_span obs "b" (fun () -> Obs.add obs "n" 10));
  Obs.with_span obs "c" (fun () -> Obs.add obs "n" 100);
  Alcotest.check feq "whole tree" 111. (Obs.counter obs "n");
  let a = Option.get (Obs.find obs [ "a" ]) in
  Alcotest.check feq "subtree of a" 11. (Obs.span_counter a "n")

let test_exception_still_timed () =
  let now = ref 0. in
  let obs = Obs.create ~clock:(fun () -> !now) () in
  (try
     Obs.with_span obs "boom" (fun () ->
         now := 1.5;
         failwith "boom")
   with Failure _ -> ());
  let s = Option.get (Obs.find obs [ "boom" ]) in
  Alcotest.check feq "elapsed recorded on raise" 1.5 s.Obs.elapsed;
  (* the stack must be unwound: a new span lands at the top level again *)
  Obs.with_span obs "after" (fun () -> ());
  Alcotest.(check int) "stack unwound" 2 (List.length (Obs.roots obs))

let test_sink_events () =
  let events = ref [] in
  let obs =
    Obs.create ~clock:(fun () -> 0.) ~sink:(fun e -> events := e :: !events) ()
  in
  Obs.with_span obs "a" (fun () -> Obs.add obs "k" 1);
  match List.rev !events with
  | [ Obs.Span_open [ "a" ]; Obs.Metric ([ "a" ], "k", 1.);
      Obs.Span_close ([ "a" ], _) ] -> ()
  | l -> Alcotest.failf "unexpected event sequence (%d events)" (List.length l)

let test_null_noop () =
  Alcotest.(check bool) "null disabled" false (Obs.enabled Obs.null);
  Alcotest.(check bool) "created enabled" true (Obs.enabled (Obs.create ()));
  let v =
    Obs.with_span Obs.null "x" (fun () ->
        Obs.add Obs.null "c" 1;
        Obs.set Obs.null "g" 3.;
        42)
  in
  Alcotest.(check int) "body still runs" 42 v;
  Alcotest.(check int) "no spans" 0 (List.length (Obs.roots Obs.null));
  Alcotest.check feq "no counters" 0. (Obs.counter Obs.null "c");
  Alcotest.(check string) "empty report" "" (Obs.report Obs.null)

let test_report_renders () =
  let now = ref 0. in
  let obs = Obs.create ~clock:(fun () -> !now) () in
  Obs.with_span obs "pipeline" (fun () ->
      Obs.with_span obs "parse" (fun () ->
          now := !now +. 0.001;
          Obs.add obs "parse.tokens" 42));
  let r = Obs.report obs in
  let contains needle =
    let n = String.length needle and h = String.length r in
    let rec go i = i + n <= h && (String.sub r i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has pipeline" true (contains "pipeline");
  Alcotest.(check bool) "has parse" true (contains "parse");
  Alcotest.(check bool) "has metric" true (contains "parse.tokens=42")

(* -- MEMO XML round-trip: the memo_xml.* counters reported by the
      pipeline's export and re-import must agree on every random query -- *)

let prop_xml_roundtrip_counts =
  let w = lazy (Opdw.Workload.tpch ~node_count:4 ~sf:0.001 ()) in
  QCheck.Test.make
    ~name:"MEMO XML round-trip preserves group/expr counts (obs counters)"
    ~count:40 Test_fuzz.arb_query
    (fun q ->
       let w = Lazy.force w in
       let obs = Obs.create () in
       let _ = Opdw.optimize ~obs w.Opdw.Workload.shell q.Test_fuzz.sql in
       let c n = Obs.counter obs n in
       if c "memo_xml.export.groups" <= 0. then
         QCheck.Test.fail_report ("no groups exported: " ^ q.Test_fuzz.sql);
       if c "memo_xml.export.groups" <> c "memo_xml.import.groups" then
         QCheck.Test.fail_report ("group count drift: " ^ q.Test_fuzz.sql);
       if c "memo_xml.export.exprs" <> c "memo_xml.import.exprs" then
         QCheck.Test.fail_report ("expr count drift: " ^ q.Test_fuzz.sql);
       if c "memo_xml.export.scalars" <> c "memo_xml.import.scalars" then
         QCheck.Test.fail_report ("scalar count drift: " ^ q.Test_fuzz.sql);
       true)

let suite =
  [ Alcotest.test_case "span nesting and timing" `Quick test_nesting;
    Alcotest.test_case "re-entry accumulates" `Quick test_reentry_accumulates;
    Alcotest.test_case "set overwrites" `Quick test_set_overwrites;
    Alcotest.test_case "counter sums subtree" `Quick test_counter_sums_subtree;
    Alcotest.test_case "exception still timed" `Quick test_exception_still_timed;
    Alcotest.test_case "sink event order" `Quick test_sink_events;
    Alcotest.test_case "null context is a no-op" `Quick test_null_noop;
    Alcotest.test_case "report renders tree" `Quick test_report_renders;
    QCheck_alcotest.to_alcotest prop_xml_roundtrip_counts ]
