(* The domain-pool combinators promise results in input order regardless
   of scheduling; every test therefore checks jobs > 1 against the
   sequential jobs = 1 reference. *)

let test_map_array_matches_sequential () =
  let arr = Array.init 1000 (fun i -> i) in
  let f i = (i * i) + 7 in
  let want = Array.map f arr in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        want
        (Parallel.map_array ~jobs f arr))
    [ 1; 2; 3; 4; 7 ]

let test_map_array_edge_cases () =
  Alcotest.(check (array int)) "empty" [||] (Parallel.map_array ~jobs:4 succ [||]);
  Alcotest.(check (array int))
    "more workers than elements" [| 1; 2 |]
    (Parallel.map_array ~jobs:8 succ [| 0; 1 |])

let test_map_chunks_order_and_boundaries () =
  let seq = Seq.init 100 (fun i -> i) in
  (* record (chunk index, first element, length) — enough to pin both the
     ordering and the chunk boundaries *)
  let map idx arr = (idx, arr.(0), Array.length arr) in
  let want = Parallel.map_chunks ~jobs:1 ~chunk:7 ~map seq in
  Alcotest.(check int) "chunk count" 15 (List.length want);
  List.iteri
    (fun i (idx, first, len) ->
      Alcotest.(check int) "index in order" i idx;
      Alcotest.(check int) "boundary" (7 * i) first;
      Alcotest.(check int) "length" (if i = 14 then 2 else 7) len)
    want;
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d identical" jobs)
        true
        (Parallel.map_chunks ~jobs ~chunk:7 ~map seq = want))
    [ 2; 4 ]

let test_map_reduce_chunks_ordered () =
  (* string concatenation is non-commutative: any out-of-order reduce
     produces a different value *)
  let seq = Seq.init 50 (fun i -> i) in
  let map arr = Printf.sprintf "[%d..%d]" arr.(0) arr.(Array.length arr - 1) in
  let run jobs =
    Parallel.map_reduce_chunks ~jobs ~chunk:6 ~map ~reduce:( ^ ) ~init:"" seq
  in
  let want = run 1 in
  Alcotest.(check string) "sequential reference"
    "[0..5][6..11][12..17][18..23][24..29][30..35][36..41][42..47][48..49]" want;
  List.iter
    (fun jobs -> Alcotest.(check string) (Printf.sprintf "jobs=%d" jobs) want (run jobs))
    [ 2; 3; 4 ]

let test_worker_exception_propagates () =
  List.iter
    (fun jobs ->
      match
        Parallel.map_array ~jobs
          (fun i -> if i = 17 then failwith "boom" else i)
          (Array.init 64 (fun i -> i))
      with
      | _ -> Alcotest.failf "jobs=%d: exception swallowed" jobs
      | exception Failure m -> Alcotest.(check string) "message" "boom" m)
    [ 1; 4 ]

let test_jobs_validation () =
  Alcotest.(check bool) "at least one core" true (Parallel.available_cores () >= 1);
  (match Parallel.map_array ~jobs:0 Fun.id [| 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "map_array ~jobs:0 accepted");
  match Attack.Ctx.make ~jobs:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Ctx.make ~jobs:0 accepted"

let suite =
  [
    Alcotest.test_case "map_array = Array.map" `Quick test_map_array_matches_sequential;
    Alcotest.test_case "map_array edge cases" `Quick test_map_array_edge_cases;
    Alcotest.test_case "map_chunks order + boundaries" `Quick
      test_map_chunks_order_and_boundaries;
    Alcotest.test_case "ordered non-commutative reduce" `Quick
      test_map_reduce_chunks_ordered;
    Alcotest.test_case "worker exception propagates" `Quick
      test_worker_exception_propagates;
    Alcotest.test_case "jobs validation" `Quick test_jobs_validation;
  ]
