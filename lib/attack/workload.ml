let known_inputs ?(ctx = Ctx.default) ~n ~coeff ~component ~count ~seed () =
  Parallel.map_array ~jobs:ctx.Ctx.jobs
    (fun i ->
      let c = Falcon.Hash.to_point ~n (Printf.sprintf "%s/%d" seed i) in
      let cf = Fft.fft_of_int c in
      match component with `Re -> cf.Fft.re.(coeff) | `Im -> cf.Fft.im.(coeff))
    (Array.init count Fun.id)

let mul_views model rng ~x ~known =
  {
    Recover.traces =
      Array.map (fun y -> Leakage.mul_trace model rng ~known:y ~secret:x) known;
    known;
  }

let known_input_pairs ?(ctx = Ctx.default) ~n ~coeff ~count ~seed () =
  Parallel.map_array ~jobs:ctx.Ctx.jobs
    (fun i ->
      let c = Falcon.Hash.to_point ~n (Printf.sprintf "%s/%d" seed i) in
      let cf = Fft.fft_of_int c in
      (cf.Fft.re.(coeff), cf.Fft.im.(coeff)))
    (Array.init count Fun.id)

let mul_view_pair model rng ~x ~known_pairs =
  let k1 = Array.map fst known_pairs and k2 = Array.map snd known_pairs in
  (mul_views model rng ~x ~known:k1, mul_views model rng ~x ~known:k2)
