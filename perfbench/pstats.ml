(* Order statistics for the benchmark's timings. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pstats.median: empty sample";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   sample at or below it. *)
let rank n p = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pstats.percentile: empty sample";
  a.(min n (rank n p) - 1)

let beyond n p = n - rank n p

type tail = { pct : float; value : float; samples : int }

(* Candidate tail levels, highest first. *)
let levels = [ 99.9; 99.; 95.; 90.; 80.; 50. ]

let tail xs =
  let n = List.length xs in
  List.find_opt (fun p -> beyond n p >= 10) levels
  |> Option.map (fun pct -> { pct; value = percentile xs pct; samples = n })
