(* Command line of the repository benchmark; see BENCHMARK.json. *)

let usage = "main --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " capture-store | fullkey-store | fullkey-mem");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measuring time of an untraced run");
      ("--trace", Arg.Set_int trace, " 1 for the per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg ^ "\n" ^ usage);
    exit 2
  in
  let w =
    match List.assoc_opt !workload Perfbench.Bench.workloads with
    | Some w -> w
    | None -> fail ("unknown workload " ^ !workload)
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  let spec = Perfbench.Bench.standard w in
  let root = ".perfbench-work" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let work = Filename.concat root (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  Sys.mkdir work 0o755;
  let tally = Perfbench.Checks.tally () in
  let metrics =
    Fun.protect
      ~finally:(fun () -> Perfbench.Bench.rm_rf work)
      (fun () ->
        if !trace = 1 then Perfbench.Bench.traced spec ~seed:!seed ~work tally
        else Perfbench.Bench.run spec ~seed:!seed ~seconds:!seconds ~work tally)
  in
  (try Sys.rmdir root with Sys_error _ -> ());
  let attempted = Perfbench.Checks.attempted tally and failed = Perfbench.Checks.failed tally in
  List.iter
    (fun (m : Perfbench.Bench.metric) -> Printf.printf "%-26s %14.6g %s\n" m.name m.value m.unit_)
    metrics;
  Printf.printf "%-26s %14.6g (%d failed of %d attempted)\n" "fail_rate"
    (Perfbench.Checks.fail_rate tally) failed attempted;
  let open Obs.Json in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (failed = 0));
            ("attempted", Int attempted);
            ("failed", Int failed);
            ( "metrics",
              Obj
                (List.map
                   (fun (m : Perfbench.Bench.metric) ->
                     (m.name, Obj [ ("value", Float m.value); ("unit", String m.unit_) ]))
                   metrics) );
          ]))
