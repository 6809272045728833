(* The soft datapath ([mul_emit]/[add_emit], the model of the attacked
   intermediates) is property-tested bit-for-bit against the host FPU:
   OCaml's native [float] is IEEE-754 binary64, which is exactly what
   FALCON's FPEMU implements for its working range.  The plain [mul],
   [add], [sub], [div] and [sqrt] run natively, so they are checked
   against the soft datapath and for their zero contract instead. *)

let rng = Stats.Rng.create ~seed:2021

(* Random finite normal double with biased exponent in [1023-r, 1023+r]. *)
let random_double ?(erange = 300) () =
  let sign = Stats.Rng.bits rng 1 in
  let exp = 1023 - erange + Stats.Rng.int_below rng (2 * erange) in
  let mant_hi = Stats.Rng.bits rng 26 and mant_lo = Stats.Rng.bits rng 26 in
  let mant = (mant_hi lsl 26) lor mant_lo in
  Fpr.make ~sign ~exp ~mant

let check_bits name expect got x y =
  if expect <> got then
    Alcotest.failf "%s: inputs %Lx %Lx: expected %Lx got %Lx (%.17g vs %.17g)" name x
      y expect got (Int64.float_of_bits expect) (Int64.float_of_bits got)

let binop_agrees name ~fpr_op ~float_op ~count ~erange =
  for _ = 1 to count do
    let x = random_double ~erange () and y = random_double ~erange () in
    let expect = Int64.bits_of_float (float_op (Fpr.to_float x) (Fpr.to_float y)) in
    let got = fpr_op x y in
    check_bits name expect got x y
  done

let soft_mul = Fpr.mul_emit ~emit:Fpr.no_emit
let soft_add = Fpr.add_emit ~emit:Fpr.no_emit

let test_mul_matches_fpu () =
  binop_agrees "mul" ~fpr_op:soft_mul ~float_op:( *. ) ~count:20000 ~erange:300

let test_add_matches_fpu () =
  binop_agrees "add" ~fpr_op:soft_add ~float_op:( +. ) ~count:20000 ~erange:300

let test_sub_matches_fpu () =
  binop_agrees "sub"
    ~fpr_op:(fun x y -> soft_add x (Fpr.neg y))
    ~float_op:( -. ) ~count:20000 ~erange:300

let test_add_close_exponents () =
  (* Cancellation-heavy regime: operands with nearby exponents. *)
  for _ = 1 to 20000 do
    let x = random_double ~erange:2 () and y = random_double ~erange:2 () in
    let expect = Int64.bits_of_float (Fpr.to_float x +. Fpr.to_float y) in
    check_bits "add-close" expect (soft_add x y) x y
  done

let test_native_matches_soft () =
  (* The untraced operations and the instrumented ones must be the same
     function: signed zeros, exact cancellation and the wide range. *)
  let nz = Fpr.neg Fpr.zero in
  let zeros = [ Fpr.zero; nz ] in
  let samples =
    zeros @ [ Fpr.one; Fpr.of_int (-3) ] @ List.init 2000 (fun _ -> random_double ())
  in
  let check x y =
    check_bits "mul" (soft_mul x y) (Fpr.mul x y) x y;
    check_bits "add" (soft_add x y) (Fpr.add x y) x y;
    check_bits "sub" (soft_add x (Fpr.neg y)) (Fpr.sub x y) x y
  in
  List.iter (fun z -> List.iter (fun x -> check z x; check x z) samples) zeros;
  List.iter (fun x -> check x (Fpr.neg x)) samples;
  let arr = Array.of_list samples in
  Array.iteri (fun i x -> check x arr.((i * 7919) mod Array.length arr)) arr

let test_div_sqrt_zero_contract () =
  let nz = Fpr.neg Fpr.zero and three = Fpr.of_int 3 in
  Alcotest.(check int64) "+0 / 3 = +0" Fpr.zero (Fpr.div Fpr.zero three);
  Alcotest.(check int64) "-0 / 3 = -0" nz (Fpr.div nz three);
  Alcotest.(check int64) "+0 / -3 = -0" nz (Fpr.div Fpr.zero (Fpr.neg three));
  Alcotest.(check int64) "-0 / -3 = +0" Fpr.zero (Fpr.div nz (Fpr.neg three));
  (* a zero dividend gives the signed zero even over a zero divisor *)
  Alcotest.(check int64) "+0 / +0 = +0" Fpr.zero (Fpr.div Fpr.zero Fpr.zero);
  Alcotest.(check int64) "-0 / +0 = -0" nz (Fpr.div nz Fpr.zero);
  Alcotest.(check int64) "sqrt +0 = +0" Fpr.zero (Fpr.sqrt Fpr.zero);
  Alcotest.(check int64) "sqrt -0 = +0" Fpr.zero (Fpr.sqrt nz);
  let asserts name f =
    match f () with
    | (_ : Fpr.t) -> Alcotest.failf "%s: no assertion failure" name
    | exception Assert_failure _ -> ()
  in
  asserts "3 / 0" (fun () -> Fpr.div three Fpr.zero);
  asserts "sqrt -3" (fun () -> Fpr.sqrt (Fpr.neg three))

let test_special_values () =
  Alcotest.(check int64) "1*1" Fpr.one (Fpr.mul Fpr.one Fpr.one);
  Alcotest.(check int64) "1+0" Fpr.one (Fpr.add Fpr.one Fpr.zero);
  Alcotest.(check int64) "0*x" Fpr.zero (Fpr.mul Fpr.zero (Fpr.of_int 7));
  Alcotest.(check int64) "x-x=+0" Fpr.zero (Fpr.sub (Fpr.of_int 42) (Fpr.of_int 42));
  Alcotest.(check int64) "neg" (Fpr.of_int (-3)) (Fpr.neg (Fpr.of_int 3));
  Alcotest.(check int64) "half" (Fpr.of_float 1.5) (Fpr.half (Fpr.of_int 3));
  Alcotest.(check int64) "double" (Fpr.of_int 6) (Fpr.double (Fpr.of_int 3));
  Alcotest.(check int64) "sqrt 0" Fpr.zero (Fpr.sqrt Fpr.zero);
  Alcotest.(check int64) "inv 4" (Fpr.of_float 0.25) (Fpr.inv (Fpr.of_int 4))

let test_of_int_exact () =
  for _ = 1 to 2000 do
    let i = Stats.Rng.bits rng 53 - (1 lsl 52) in
    Alcotest.(check int64) "of_int"
      (Int64.bits_of_float (float_of_int i))
      (Fpr.of_int i)
  done

let test_scaled () =
  Alcotest.(check int64) "3*2^-2" (Fpr.of_float 0.75) (Fpr.scaled 3 (-2));
  Alcotest.(check int64) "-5*2^10" (Fpr.of_float (-5120.)) (Fpr.scaled (-5) 10);
  Alcotest.(check int64) "0" Fpr.zero (Fpr.scaled 0 12)

(* Round-half-to-even oracle built from floor/ceil. *)
let rint_oracle x =
  let fl = Float.of_int (int_of_float (Float.floor x)) in
  let ce = fl +. 1. in
  let dl = x -. fl and dc = ce -. x in
  if dl < dc then int_of_float fl
  else if dc < dl then int_of_float ce
  else begin
    let fli = int_of_float fl in
    if fli land 1 = 0 then fli else fli + 1
  end

let test_rint () =
  for _ = 1 to 20000 do
    let v =
      (Stats.Rng.float01 rng -. 0.5) *. Float.of_int (1 lsl Stats.Rng.int_below rng 20)
    in
    let got = Fpr.rint (Fpr.of_float v) in
    let expect = rint_oracle v in
    if got <> expect then Alcotest.failf "rint %.17g: expected %d got %d" v expect got
  done;
  Alcotest.(check int) "tie 2.5 -> 2" 2 (Fpr.rint (Fpr.of_float 2.5));
  Alcotest.(check int) "tie 3.5 -> 4" 4 (Fpr.rint (Fpr.of_float 3.5));
  Alcotest.(check int) "tie -2.5 -> -2" (-2) (Fpr.rint (Fpr.of_float (-2.5)));
  Alcotest.(check int) "0.49" 0 (Fpr.rint (Fpr.of_float 0.49));
  Alcotest.(check int) "tiny" 0 (Fpr.rint (Fpr.of_float 1e-12))

let test_floor_trunc () =
  for _ = 1 to 20000 do
    let v = (Stats.Rng.float01 rng -. 0.5) *. 4096. in
    let f = Fpr.of_float v in
    let efloor = int_of_float (Float.floor v) in
    let etrunc = int_of_float (Float.trunc v) in
    if Fpr.floor f <> efloor then
      Alcotest.failf "floor %.17g: expected %d got %d" v efloor (Fpr.floor f);
    if Fpr.trunc f <> etrunc then
      Alcotest.failf "trunc %.17g: expected %d got %d" v etrunc (Fpr.trunc f)
  done

let test_comparisons () =
  Alcotest.(check bool) "lt" true (Fpr.lt (Fpr.of_int 2) (Fpr.of_int 3));
  Alcotest.(check bool) "not lt" false (Fpr.lt (Fpr.of_int 3) (Fpr.of_int 3));
  Alcotest.(check bool) "neg lt" true (Fpr.lt (Fpr.of_int (-5)) (Fpr.of_int 1));
  Alcotest.(check bool) "0 = -0" true (Fpr.equal Fpr.zero (Fpr.neg Fpr.zero))

let test_expm_p63 () =
  let x = Fpr.of_float 0.5 and ccs = Fpr.of_float 0.8 in
  let got = Int64.to_float (Fpr.expm_p63 x ccs) in
  let expect = 0.8 *. exp (-0.5) *. 0x1p63 in
  Alcotest.(check bool) "expm_p63 relative error" true
    (Float.abs (got -. expect) /. expect < 1e-9);
  Alcotest.(check bool) "expm_p63 0 close to ccs*2^63" true
    (Int64.to_float (Fpr.expm_p63 Fpr.zero Fpr.one) >= 0x1p62)

let test_field_accessors () =
  (* The coefficient attacked in the paper's Fig. 4. *)
  let c = 0xC06017BC8036B580L in
  Alcotest.(check int) "sign" 1 (Fpr.sign_bit c);
  Alcotest.(check int) "exp" 0x406 (Fpr.biased_exponent c);
  Alcotest.(check int) "mant" 0x017BC8036B580 (Fpr.mantissa c);
  Alcotest.(check int64) "make roundtrips" c
    (Fpr.make ~sign:1 ~exp:0x406 ~mant:0x017BC8036B580)

let test_mul_events () =
  (* The instrumented multiply must produce the reference event sequence
     and the same numerical result as the plain one. *)
  let x = Fpr.of_float (-128.742) and y = Fpr.of_float 3.25 in
  let events = ref [] in
  let r = Fpr.mul_emit ~emit:(fun e -> events := e :: !events) x y in
  Alcotest.(check int64) "same result" (Fpr.mul x y) r;
  let labels = List.rev_map (fun (e : Fpr.event) -> e.label) !events in
  Alcotest.(check int) "event count" 16 (List.length labels);
  Alcotest.(check bool) "order" true
    (labels
    = [
        Fpr.Load_x_lo; Fpr.Load_x_hi; Fpr.Load_y_lo; Fpr.Load_y_hi;
        Fpr.Mant_w00; Fpr.Mant_w10; Fpr.Mant_z1a; Fpr.Mant_w01; Fpr.Mant_z1;
        Fpr.Mant_w11; Fpr.Mant_zhigh; Fpr.Mant_norm; Fpr.Exp_sum; Fpr.Sign_xor;
        Fpr.Result_lo; Fpr.Result_hi;
      ]);
  (* The partial products must be consistent with the significand split. *)
  let find lbl =
    List.find (fun (e : Fpr.event) -> e.label = lbl) (List.rev !events)
  in
  let xu = Fpr.mantissa x lor (1 lsl 52) and yu = Fpr.mantissa y lor (1 lsl 52) in
  let m25 = (1 lsl 25) - 1 in
  Alcotest.(check int) "w00 = B*D" ((xu land m25) * (yu land m25)) (find Fpr.Mant_w00).value;
  Alcotest.(check int) "w10 = A*D" ((xu lsr 25) * (yu land m25)) (find Fpr.Mant_w10).value;
  Alcotest.(check int) "w01 = B*E" ((xu land m25) * (yu lsr 25)) (find Fpr.Mant_w01).value;
  Alcotest.(check int) "w11 = A*E" ((xu lsr 25) * (yu lsr 25)) (find Fpr.Mant_w11).value;
  Alcotest.(check int) "sign xor" 1 (find Fpr.Sign_xor).value

let prop_mul_commutes =
  QCheck.Test.make ~count:1000 ~name:"fpr mul commutes"
    QCheck.(pair (int_bound 1000000) (int_bound 1000000))
    (fun (a, b) ->
      let x = Fpr.of_int (a - 500000) and y = Fpr.of_int (b - 500000) in
      Fpr.mul x y = Fpr.mul y x)

let prop_add_commutes =
  QCheck.Test.make ~count:1000 ~name:"fpr add commutes"
    QCheck.(pair (int_bound 1000000) (int_bound 1000000))
    (fun (a, b) ->
      let x = Fpr.scaled (a - 500000) (-7) and y = Fpr.scaled (b - 500000) (-3) in
      Fpr.add x y = Fpr.add y x)

let prop_half_double =
  QCheck.Test.make ~count:1000 ~name:"half . double = id"
    QCheck.(int_bound 1000000)
    (fun a ->
      let x = Fpr.scaled (a + 1) (-9) in
      Fpr.half (Fpr.double x) = x)

let suite =
  [
    Alcotest.test_case "mul matches FPU (20k samples)" `Quick test_mul_matches_fpu;
    Alcotest.test_case "add matches FPU (20k samples)" `Quick test_add_matches_fpu;
    Alcotest.test_case "sub matches FPU (20k samples)" `Quick test_sub_matches_fpu;
    Alcotest.test_case "add matches FPU, close exponents" `Quick test_add_close_exponents;
    Alcotest.test_case "native mul/add/sub = soft datapath" `Quick test_native_matches_soft;
    Alcotest.test_case "div/sqrt zero contract" `Quick test_div_sqrt_zero_contract;
    Alcotest.test_case "special values" `Quick test_special_values;
    Alcotest.test_case "of_int exact" `Quick test_of_int_exact;
    Alcotest.test_case "scaled" `Quick test_scaled;
    Alcotest.test_case "rint round-half-even" `Quick test_rint;
    Alcotest.test_case "floor/trunc" `Quick test_floor_trunc;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "expm_p63" `Quick test_expm_p63;
    Alcotest.test_case "field accessors (paper coefficient)" `Quick test_field_accessors;
    Alcotest.test_case "mul event stream" `Quick test_mul_events;
    QCheck_alcotest.to_alcotest prop_mul_commutes;
    QCheck_alcotest.to_alcotest prop_add_commutes;
    QCheck_alcotest.to_alcotest prop_half_double;
  ]
