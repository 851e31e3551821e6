(* Benchmark entry point: runs the experiments and writes their records to
   BENCH_results.json. Every record is a pure function of the experiments'
   seeds, so the committed file is a golden file (timing lives in
   perfbench/).

     bench/main.exe [--tables] [Ek ...]   all of E1..E22, or just the ids *)

let () =
  let ids =
    match Array.to_list Sys.argv with
    | _ :: "--tables" :: ids | _ :: ids -> ids
    | [] -> []
  in
  (match ids with
   | [] -> Experiments.all ()
   | ids -> List.iter Experiments.by_id ids);
  Experiments.write_results "BENCH_results.json"
