(* Sign-magnitude representation: [s] is -1/0/1 and [m] the magnitude in
   little-endian 26-bit limbs with no leading zero limb.  26-bit limbs
   keep every intermediate of schoolbook multiplication inside OCaml's
   63-bit native int. *)

let limb_bits = 26
let limb_mask = (1 lsl limb_bits) - 1

type t = { s : int; m : int array }

let zero = { s = 0; m = [||] }

(* ---- magnitude helpers ---- *)

let mnorm m =
  let l = ref (Array.length m) in
  while !l > 0 && m.(!l - 1) = 0 do
    decr l
  done;
  if !l = Array.length m then m else Array.sub m 0 !l

let mcmp a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let madd a b =
  let la = Array.length a and lb = Array.length b in
  let l = max la lb in
  let out = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let av = if i < la then a.(i) else 0 and bv = if i < lb then b.(i) else 0 in
    let s = av + bv + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  out.(l) <- !carry;
  mnorm out

(* requires a >= b *)
let msub a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bv = if i < lb then b.(i) else 0 in
    let s = a.(i) - bv - !borrow in
    if s < 0 then begin
      out.(i) <- s + (1 lsl limb_bits);
      borrow := 1
    end
    else begin
      out.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  mnorm out

let mmul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let acc = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- acc land limb_mask;
        carry := acc lsr limb_bits
      done;
      out.(i + lb) <- !carry
    done;
    mnorm out
  end

let mbit_length m =
  let l = Array.length m in
  if l = 0 then 0 else ((l - 1) * limb_bits) + Bitops.bit_length m.(l - 1)

let mshift_left m k =
  if Array.length m = 0 then [||]
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let l = Array.length m in
    let out = Array.make (l + limbs + 1) 0 in
    for i = 0 to l - 1 do
      let v = m.(i) lsl bits in
      out.(i + limbs) <- out.(i + limbs) lor (v land limb_mask);
      out.(i + limbs + 1) <- v lsr limb_bits
    done;
    mnorm out
  end

let mshift_right m k =
  let limbs = k / limb_bits and bits = k mod limb_bits in
  let l = Array.length m in
  if limbs >= l then [||]
  else begin
    let out = Array.make (l - limbs) 0 in
    for i = 0 to l - limbs - 1 do
      let lo = m.(i + limbs) lsr bits in
      let hi =
        if bits = 0 || i + limbs + 1 >= l then 0
        else (m.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask
      in
      out.(i) <- lo lor hi
    done;
    mnorm out
  end

let many_dropped m k =
  (* is any of the low k bits set? *)
  let limbs = k / limb_bits and bits = k mod limb_bits in
  let l = Array.length m in
  let rec limb_nonzero i = i < min limbs l && (m.(i) <> 0 || limb_nonzero (i + 1)) in
  limb_nonzero 0 || (bits > 0 && limbs < l && m.(limbs) land ((1 lsl bits) - 1) <> 0)

(* ---- signed layer ---- *)

let make s m =
  let m = mnorm m in
  if Array.length m = 0 then zero else { s; m }

let of_int i =
  if i = 0 then zero
  else begin
    let s = if i < 0 then -1 else 1 in
    let a = abs i in
    let rec limbs v = if v = 0 then [] else (v land limb_mask) :: limbs (v lsr limb_bits) in
    { s; m = Array.of_list (limbs a) }
  end

let one = of_int 1

let sign t = t.s
let is_zero t = t.s = 0
let is_even t = t.s = 0 || t.m.(0) land 1 = 0
let bit_length t = mbit_length t.m

let fits_int t = bit_length t <= 62

let to_int_opt t =
  if not (fits_int t) then None
  else begin
    let v = ref 0 in
    for i = Array.length t.m - 1 downto 0 do
      v := (!v lsl limb_bits) lor t.m.(i)
    done;
    Some (t.s * !v)
  end

let to_int t =
  match to_int_opt t with
  | Some v -> v
  | None -> failwith "Bignum.to_int: does not fit"

let equal a b = a.s = b.s && a.m = b.m

let compare a b =
  if a.s <> b.s then compare a.s b.s
  else if a.s >= 0 then mcmp a.m b.m
  else mcmp b.m a.m

let neg t = if t.s = 0 then t else { t with s = -t.s }
let abs t = if t.s < 0 then { t with s = 1 } else t

let add a b =
  if a.s = 0 then b
  else if b.s = 0 then a
  else if a.s = b.s then make a.s (madd a.m b.m)
  else begin
    let c = mcmp a.m b.m in
    if c = 0 then zero
    else if c > 0 then make a.s (msub a.m b.m)
    else make b.s (msub b.m a.m)
  end

let sub a b = add a (neg b)

let mul a b = if a.s = 0 || b.s = 0 then zero else make (a.s * b.s) (mmul a.m b.m)
let mul_int a d = mul a (of_int d)

let shift_left t k =
  assert (k >= 0);
  if t.s = 0 || k = 0 then t else make t.s (mshift_left t.m k)

let shift_right t k =
  assert (k >= 0);
  if t.s = 0 || k = 0 then t
  else begin
    let m = mshift_right t.m k in
    if t.s > 0 then make 1 m
    else begin
      (* floor semantics for negatives *)
      let m = if many_dropped t.m k then madd m [| 1 |] else m in
      make (-1) m
    end
  end

let divmod a b =
  if b.s = 0 then raise Division_by_zero;
  if a.s = 0 then (zero, zero)
  else begin
    let bits = mbit_length a.m in
    let q = Array.make ((bits / limb_bits) + 1) 0 in
    let r = ref [||] in
    for i = bits - 1 downto 0 do
      (* r = 2r + bit_i(|a|) *)
      let r2 = mshift_left !r 1 in
      let bit = (a.m.(i / limb_bits) lsr (i mod limb_bits)) land 1 in
      let r2 = if bit = 1 then madd r2 [| 1 |] else r2 in
      if mcmp r2 b.m >= 0 then begin
        r := msub r2 b.m;
        q.(i / limb_bits) <- q.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end
      else r := r2
    done;
    (make (a.s * b.s) q, make a.s !r)
  end

let divmod_int a d =
  if d = 0 then raise Division_by_zero;
  assert (Stdlib.abs d < 1 lsl 36);
  let ad = Stdlib.abs d in
  let l = Array.length a.m in
  let q = Array.make l 0 in
  let rem = ref 0 in
  for i = l - 1 downto 0 do
    let acc = (!rem lsl limb_bits) lor a.m.(i) in
    q.(i) <- acc / ad;
    rem := acc mod ad
  done;
  let qs = if d < 0 then -a.s else a.s in
  (make qs q, a.s * !rem)

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a else gcd b (snd (divmod a b))

(* Binary extended GCD (HAC 14.61) on the magnitudes, signs fixed up by
   the caller-facing wrapper. *)
let egcd a b =
  if is_zero a then (abs b, zero, of_int (compare b zero))
  else if is_zero b then (abs a, of_int (compare a zero), zero)
  else begin
    let a0 = abs a and b0 = abs b in
    let twos = ref 0 in
    let x = ref a0 and y = ref b0 in
    while is_even !x && is_even !y do
      x := shift_right !x 1;
      y := shift_right !y 1;
      incr twos
    done;
    let xr = !x and yr = !y in
    let u = ref xr and v = ref yr in
    let aa = ref one and bb = ref zero and cc = ref zero and dd = ref one in
    let halve_pair p q =
      if is_even !p && is_even !q then begin
        p := shift_right !p 1;
        q := shift_right !q 1
      end
      else begin
        p := shift_right (add !p yr) 1;
        q := shift_right (sub !q xr) 1
      end
    in
    let continue = ref true in
    while !continue do
      while is_even !u do
        u := shift_right !u 1;
        halve_pair aa bb
      done;
      while is_even !v do
        v := shift_right !v 1;
        halve_pair cc dd
      done;
      if compare !u !v >= 0 then begin
        u := sub !u !v;
        aa := sub !aa !cc;
        bb := sub !bb !dd
      end
      else begin
        v := sub !v !u;
        cc := sub !cc !aa;
        dd := sub !dd !bb
      end;
      if is_zero !u then continue := false
    done;
    let g = shift_left !v !twos in
    (* cc * a0 + dd * b0 = v; scale by 2^twos is already inside g only,
       and cc*a0 + dd*b0 = v while gcd = v * 2^twos; the Bezout identity
       for the original numbers follows from a0 = xr * 2^twos etc. *)
    let uu = if a.s < 0 then neg !cc else !cc in
    let vv = if b.s < 0 then neg !dd else !dd in
    (g, uu, vv)
  end

let to_float_scaled t =
  if t.s = 0 then (0., 0)
  else begin
    let bits = mbit_length t.m in
    if bits <= 53 then begin
      let v = ref 0. in
      for i = Array.length t.m - 1 downto 0 do
        v := (!v *. float_of_int (1 lsl limb_bits)) +. float_of_int t.m.(i)
      done;
      (float_of_int t.s *. !v /. (2. ** float_of_int bits), bits)
    end
    else begin
      let top = mshift_right t.m (bits - 53) in
      let v = ref 0. in
      for i = Array.length top - 1 downto 0 do
        v := (!v *. float_of_int (1 lsl limb_bits)) +. float_of_int top.(i)
      done;
      (float_of_int t.s *. !v /. (2. ** 53.), bits)
    end
  end

let to_float t =
  let m, e = to_float_scaled t in
  m *. (2. ** float_of_int e)

let of_string str =
  let neg_str = String.length str > 0 && str.[0] = '-' in
  let start = if neg_str then 1 else 0 in
  if String.length str = start then invalid_arg "Bignum.of_string: empty";
  let acc = ref zero in
  String.iter
    (fun c ->
      if c < '0' || c > '9' then invalid_arg "Bignum.of_string: bad digit";
      acc := add (mul_int !acc 10) (of_int (Char.code c - Char.code '0')))
    (String.sub str start (String.length str - start));
  if neg_str then neg !acc else !acc

let to_string t =
  if t.s = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go v =
      if not (is_zero v) then begin
        let q, r = divmod_int v 1_000_000_000 in
        if is_zero q then Buffer.add_string buf (string_of_int (Stdlib.abs r))
        else begin
          go q;
          Buffer.add_string buf (Printf.sprintf "%09d" (Stdlib.abs r))
        end
      end
    in
    go (abs t);
    (if t.s < 0 then "-" else "") ^ Buffer.contents buf
  end

let pp fmt t = Format.pp_print_string fmt (to_string t)
