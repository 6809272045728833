type t = { re : Fpr.t array; im : Fpr.t array }

let length p = Array.length p.re

let zero n = { re = Array.make n Fpr.zero; im = Array.make n Fpr.zero }

let copy p = { re = Array.copy p.re; im = Array.copy p.im }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

(* Twiddle tables.  Level l (node size n / 2^l) has 2^l blocks; block b
   reduces x^m - e^{i.th} with th = pi * a(l,b) / 2^l, and its butterfly
   twiddle is w = e^{i.th/2}.  Angles descend as th -> th/2 (left child)
   and th/2 + pi (right child), starting from th = pi. *)
let build_twiddles n =
  assert (is_pow2 n && n >= 2);
  let levels = log2 n in
  let angles = ref [| 1. |] (* numerators a of th = pi * a / 2^l *) in
  let denom = ref 1. in
  Array.init levels (fun _ ->
      let cur = !angles and d = !denom in
      let tw =
        Array.map
          (fun a ->
            let half_angle = Float.pi *. a /. (2. *. d) in
            (Fpr.of_float (Float.cos half_angle), Fpr.of_float (Float.sin half_angle)))
          cur
      in
      (* children numerators over denominator 2d *)
      let next = Array.make (2 * Array.length cur) 0. in
      Array.iteri
        (fun i a ->
          next.(2 * i) <- a;
          next.((2 * i) + 1) <- a +. (2. *. d))
        cur;
      angles := next;
      denom := 2. *. d;
      tw)

(* Every FALCON ring size (n = 2 .. 1024) is built once at module
   initialisation (about 2k twiddles in all) and never mutated, so
   transforms on any domain read it without a lock; larger sizes are
   built per call. *)
let twiddle_table =
  Array.init 11 (fun l -> if l = 0 then [||] else build_twiddles (1 lsl l))

let twiddles n =
  if is_pow2 n && log2 n < Array.length twiddle_table then twiddle_table.(log2 n)
  else build_twiddles n

let tree_points n =
  assert (is_pow2 n && n >= 2);
  (twiddles n).(log2 n - 1)

let fft coeffs =
  let n = Array.length coeffs in
  assert (is_pow2 n && n >= 2);
  let re = Array.copy coeffs and im = Array.make n Fpr.zero in
  let tw = twiddles n in
  let m = ref n and lvl = ref 0 in
  while !m >= 2 do
    let half = !m lsr 1 in
    for b = 0 to (n / !m) - 1 do
      let wre, wim = tw.(!lvl).(b) in
      let o = b * !m in
      for j = o to o + half - 1 do
        let xre = re.(j) and xim = im.(j) in
        let yre = re.(j + half) and yim = im.(j + half) in
        let tre = Fpr.sub (Fpr.mul wre yre) (Fpr.mul wim yim) in
        let tim = Fpr.add (Fpr.mul wre yim) (Fpr.mul wim yre) in
        re.(j) <- Fpr.add xre tre;
        im.(j) <- Fpr.add xim tim;
        re.(j + half) <- Fpr.sub xre tre;
        im.(j + half) <- Fpr.sub xim tim
      done
    done;
    m := half;
    incr lvl
  done;
  { re; im }

let ifft p =
  let n = length p in
  assert (is_pow2 n && n >= 2);
  let re = Array.copy p.re and im = Array.copy p.im in
  let tw = twiddles n in
  let m = ref 2 and lvl = ref (log2 n - 1) in
  while !m <= n do
    let half = !m lsr 1 in
    for b = 0 to (n / !m) - 1 do
      let wre, wim = tw.(!lvl).(b) in
      let o = b * !m in
      for j = o to o + half - 1 do
        let pre = re.(j) and pim = im.(j) in
        let qre = re.(j + half) and qim = im.(j + half) in
        re.(j) <- Fpr.half (Fpr.add pre qre);
        im.(j) <- Fpr.half (Fpr.add pim qim);
        let dre = Fpr.half (Fpr.sub pre qre) and dim = Fpr.half (Fpr.sub pim qim) in
        (* multiply by conj w *)
        re.(j + half) <- Fpr.add (Fpr.mul dre wre) (Fpr.mul dim wim);
        im.(j + half) <- Fpr.sub (Fpr.mul dim wre) (Fpr.mul dre wim)
      done
    done;
    m := !m lsl 1;
    decr lvl
  done;
  re

let fft_of_int p = fft (Array.map Fpr.of_int p)

let round_to_int = Array.map Fpr.rint

let map2 f g a b =
  assert (length a = length b);
  {
    re = Array.init (length a) (fun k -> f a.re.(k) a.im.(k) b.re.(k) b.im.(k));
    im = Array.init (length a) (fun k -> g a.re.(k) a.im.(k) b.re.(k) b.im.(k));
  }

let add = map2 (fun ar _ br _ -> Fpr.add ar br) (fun _ ai _ bi -> Fpr.add ai bi)
let sub = map2 (fun ar _ br _ -> Fpr.sub ar br) (fun _ ai _ bi -> Fpr.sub ai bi)

let neg a = { re = Array.map Fpr.neg a.re; im = Array.map Fpr.neg a.im }
let adj a = { re = Array.copy a.re; im = Array.map Fpr.neg a.im }

let mul =
  map2
    (fun ar ai br bi -> Fpr.sub (Fpr.mul ar br) (Fpr.mul ai bi))
    (fun ar ai br bi -> Fpr.add (Fpr.mul ar bi) (Fpr.mul ai br))

let div =
  map2
    (fun ar ai br bi ->
      let d = Fpr.add (Fpr.mul br br) (Fpr.mul bi bi) in
      Fpr.div (Fpr.add (Fpr.mul ar br) (Fpr.mul ai bi)) d)
    (fun ar ai br bi ->
      let d = Fpr.add (Fpr.mul br br) (Fpr.mul bi bi) in
      Fpr.div (Fpr.sub (Fpr.mul ai br) (Fpr.mul ar bi)) d)

let mulconst a c =
  { re = Array.map (fun x -> Fpr.mul x c) a.re; im = Array.map (fun x -> Fpr.mul x c) a.im }

let mul_emit ~emit a b =
  let n = length a in
  assert (length b = n);
  let out = zero n in
  for k = 0 to n - 1 do
    let e ev = emit k ev in
    let ar = a.re.(k) and ai = a.im.(k) and br = b.re.(k) and bi = b.im.(k) in
    (* Same operation order as the plain complex product: the four real
       multiplications then the two additions. *)
    let arbr = Fpr.mul_emit ~emit:e ar br in
    let aibi = Fpr.mul_emit ~emit:e ai bi in
    let arbi = Fpr.mul_emit ~emit:e ar bi in
    let aibr = Fpr.mul_emit ~emit:e ai br in
    out.re.(k) <- Fpr.add_emit ~emit:e arbr (Fpr.neg aibi);
    out.im.(k) <- Fpr.add_emit ~emit:e arbi aibr
  done;
  out

let split f =
  let n = length f in
  assert (n >= 2);
  let hn = n / 2 in
  let pts = tree_points n in
  let f0 = zero hn and f1 = zero hn in
  for u = 0 to hn - 1 do
    let are = f.re.(2 * u) and aim = f.im.(2 * u) in
    let bre = f.re.((2 * u) + 1) and bim = f.im.((2 * u) + 1) in
    f0.re.(u) <- Fpr.half (Fpr.add are bre);
    f0.im.(u) <- Fpr.half (Fpr.add aim bim);
    let dre = Fpr.half (Fpr.sub are bre) and dim = Fpr.half (Fpr.sub aim bim) in
    let vre, vim = pts.(u) in
    (* times conj v *)
    f1.re.(u) <- Fpr.add (Fpr.mul dre vre) (Fpr.mul dim vim);
    f1.im.(u) <- Fpr.sub (Fpr.mul dim vre) (Fpr.mul dre vim)
  done;
  (f0, f1)

let merge (f0, f1) =
  let hn = length f0 in
  assert (length f1 = hn);
  let n = 2 * hn in
  let pts = tree_points n in
  let f = zero n in
  for u = 0 to hn - 1 do
    let vre, vim = pts.(u) in
    let tre = Fpr.sub (Fpr.mul f1.re.(u) vre) (Fpr.mul f1.im.(u) vim) in
    let tim = Fpr.add (Fpr.mul f1.re.(u) vim) (Fpr.mul f1.im.(u) vre) in
    f.re.(2 * u) <- Fpr.add f0.re.(u) tre;
    f.im.(2 * u) <- Fpr.add f0.im.(u) tim;
    f.re.((2 * u) + 1) <- Fpr.sub f0.re.(u) tre;
    f.im.((2 * u) + 1) <- Fpr.sub f0.im.(u) tim
  done;
  f

let mul_ring p q =
  assert (Array.length p = Array.length q);
  round_to_int (ifft (mul (fft_of_int p) (fft_of_int q)))

let norm_sq f =
  let n = length f in
  let acc = ref Fpr.zero in
  for k = 0 to n - 1 do
    acc := Fpr.add !acc (Fpr.add (Fpr.mul f.re.(k) f.re.(k)) (Fpr.mul f.im.(k) f.im.(k)))
  done;
  Fpr.div !acc (Fpr.of_int n)
