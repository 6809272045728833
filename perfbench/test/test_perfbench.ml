(* Tests of the benchmark's own helpers. *)

open Perfbench

let floats n = List.init n (fun i -> float_of_int (i + 1))

let test_tail () =
  let check n pct value =
    match Pstats.tail (floats n) with
    | Some t ->
        Alcotest.(check (float 0.)) (Printf.sprintf "level at %d" n) pct t.pct;
        Alcotest.(check (float 0.)) (Printf.sprintf "value at %d" n) value t.value;
        Alcotest.(check int) (Printf.sprintf "count at %d" n) n t.samples
    | None -> Alcotest.failf "no tail percentile for %d samples" n
  in
  (* p99 of 1000 leaves exactly 10 beyond; p99.9 would leave 1 *)
  check 1000 99. 990.;
  check 100 90. 90.;
  (* 64 units: p80 leaves 12 beyond, p90 only 6 *)
  check 64 80. 52.;
  check 20 50. 10.;
  Alcotest.(check bool) "19 samples support no tail" true (Pstats.tail (floats 19) = None);
  Alcotest.(check (float 0.)) "median of even count" 2.5 (Pstats.median [ 4.; 1.; 3.; 2. ])

let collect ?clock () =
  let events = ref [] in
  let sink =
    {
      Obs.emit = (fun e -> events := e :: !events);
      progress = (fun ~label:_ ~total:_ _ -> ());
      flush = ignore;
    }
  in
  (Obs.make ~level:Obs.Debug ?clock sink, fun () -> List.rev !events)

let test_self_time () =
  (* a clock that advances one second per reading: root [0,9], a [1,2],
     b [3,8] around c [4,5] and d [6,7] *)
  let ticks = ref (-1) in
  let clock () =
    incr ticks;
    Int64.mul (Int64.of_int !ticks) 1_000_000_000L
  in
  let obs, events = collect ~clock () in
  Obs.span obs "root" (fun () ->
      Obs.span obs "a" ignore;
      Obs.span obs "b" (fun () ->
          Obs.span obs "c" ignore;
          Obs.count obs "work" 3;
          Obs.span obs "d" ignore));
  let tree = Spantree.of_events (events ()) in
  let self name = Spantree.self_total name tree in
  Alcotest.(check int) "one root" 1 (List.length tree);
  Alcotest.(check (float 1e-9)) "root total" 9. (Spantree.total "root" tree);
  Alcotest.(check (float 1e-9)) "root self: 9 - (1 + 5)" 3. (self "root");
  Alcotest.(check (float 1e-9)) "b self: 5 - (1 + 1)" 3. (self "b");
  Alcotest.(check (float 1e-9)) "leaf self is its duration" 1. (self "c");
  Alcotest.(check int) "counts are summed" 3 (Spantree.count_sum "work" (events ()));
  (* children on parallel domains may cover more than their parent *)
  let span name path s =
    Obs.Span
      { name; path; level = Obs.Info; fields = []; elapsed_ns = Int64.of_float (s *. 1e9) }
  in
  let parallel =
    Spantree.of_events [ span "task" [ "run" ] 4.; span "task" [ "run" ] 4.; span "run" [] 5. ]
  in
  Alcotest.(check (float 1e-9)) "overlapping children leave no self time" 0.
    (Spantree.self_total "run" parallel);
  Alcotest.(check (float 1e-9)) "both tasks found" 8. (Spantree.total "task" parallel)

(* A campaign small enough for a unit test, on the workload's code path.
   Recovery from so few traces may miss a coefficient (reported on
   stderr); only the metric names matter here. *)
let tiny workload =
  { (Bench.standard workload) with n = 8; traces = 200; shard = 50; decoys = 16; setups = 1 }

let name_units = List.map (fun (m : Bench.metric) -> (m.name, m.unit_))

(* The (name, unit) pairs BENCHMARK.json declares under [key]. *)
let declared key =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let json = Obs.Json.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let field k j = Option.get (Option.bind (Obs.Json.member k j) Obs.Json.to_string_opt) in
  List.map
    (fun m -> (field "name" m, field "unit" m))
    (Option.get (Option.bind (Obs.Json.member key json) Obs.Json.to_list_opt))

let test_seed () =
  let spec = tiny Bench.Fullkey_store in
  let _, pk1 = Bench.keygen spec ~seed:1 and _, pk2 = Bench.keygen spec ~seed:2 in
  Alcotest.(check bool) "seeds give different keys" false (pk1.h = pk2.h);
  let work = "perfbench-test-work" in
  Bench.rm_rf work;
  Sys.mkdir work 0o755;
  let run seed =
    let tally = Checks.tally () in
    ( name_units (Bench.run spec ~seed ~seconds:0. ~work tally),
      name_units (Bench.traced spec ~seed ~work tally) )
  in
  let e1, l1 = run 1 and e2, l2 = run 2 in
  Bench.rm_rf work;
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end-to-end metrics as declared" (declared "end_to_end") e1;
  Alcotest.check pairs "end-to-end metrics do not follow the seed" e1 e2;
  Alcotest.check pairs "per-layer metrics as declared" (declared "per_layer") l1;
  Alcotest.check pairs "per-layer metrics do not follow the seed" l1 l2

let test_wrong_key () =
  let sk, pk = Falcon.Scheme.keygen ~n:8 ~seed:"perfbench test victim" in
  let other, _ = Falcon.Scheme.keygen ~n:8 ~seed:"perfbench test other" in
  let right = { Attack.Fullkey.f_fft = sk.f_fft; f = sk.kp.f; keypair = Some sk.kp } in
  let doctored =
    let f_fft = { Fft.re = Array.copy sk.f_fft.re; im = Array.copy sk.f_fft.im } in
    f_fft.re.(0) <- other.f_fft.re.(0);
    { Attack.Fullkey.f_fft; f = other.kp.f; keypair = Some other.kp }
  in
  let tally = Checks.tally () in
  let check res =
    Checks.record tally "extraction"
      (Checks.fullkey ~truth:sk.f_fft res ~forged:(Checks.forgery pk res))
  in
  check right;
  Alcotest.(check int) "the true key passes" 0 (Checks.failed tally);
  check doctored;
  Alcotest.(check int) "both attempts counted" 2 (Checks.attempted tally);
  Alcotest.(check int) "the doctored key failed" 1 (Checks.failed tally);
  Alcotest.(check (float 0.)) "fail_rate" 0.5 (Checks.fail_rate tally);
  Checks.attempt tally "raising" (fun () -> failwith "boom");
  Alcotest.(check int) "an exception is a failure" 2 (Checks.failed tally)

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "tail percentile and sample count" `Quick test_tail;
          Alcotest.test_case "self time from the span tree" `Quick test_self_time;
          Alcotest.test_case "seed changes inputs, not metric names" `Quick test_seed;
          Alcotest.test_case "doctored key counted in fail_rate" `Quick test_wrong_key;
        ] );
    ]
