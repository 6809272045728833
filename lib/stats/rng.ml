(* The xoshiro words s0..s3 live little-endian at byte offsets 0, 8, 16
   and 24: [Bytes.get/set_int64_le] compile to unboxed loads and stores,
   where writing mutable [int64] record fields boxes all four words on
   every draw. *)
type t = Bytes.t

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let st = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_le t (8 * i) (splitmix64 st)
  done;
  t

let copy = Bytes.copy

let rotl (x : int64) k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next64 t =
  let open Int64 in
  let s0 = Bytes.get_int64_le t 0 and s1 = Bytes.get_int64_le t 8 in
  let s2 = Bytes.get_int64_le t 16 and s3 = Bytes.get_int64_le t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 and s3 = logxor s3 s1 in
  Bytes.set_int64_le t 0 (logxor s0 s3);
  Bytes.set_int64_le t 8 (logxor s1 s2);
  Bytes.set_int64_le t 16 (logxor s2 (shift_left s1 17));
  Bytes.set_int64_le t 24 (rotl s3 45);
  result

let bits t w =
  assert (w >= 0 && w <= 62);
  Int64.to_int (Int64.shift_right_logical (next64 t) (64 - w)) land ((1 lsl w) - 1)

let int_below t n =
  assert (n > 0);
  (* Rejection sampling on the smallest covering power of two. *)
  let w = Bitops.bit_length (n - 1) in
  let w = max w 1 in
  let rec draw () =
    let v = bits t w in
    if v < n then v else draw ()
  in
  if n = 1 then 0 else draw ()

let float01 t =
  let v = Int64.to_int (Int64.shift_right_logical (next64 t) 11) in
  float_of_int v *. 0x1p-53

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float01 t in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float01 t in
  mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int_below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
