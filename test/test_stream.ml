(* Streaming (out-of-core) analysis engine: the property tests of the
   determinism contract.  Shard-checkpointed evolution (Welford.Cov
   merges in shard order) must match prefix rescans, and the
   store-backed rank / full-key paths must be bit-identical to the
   in-memory ones at every jobs value. *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs a)

let sk16 = lazy (fst (Falcon.Scheme.keygen ~n:16 ~seed:"stream test key"))
let model = { Leakage.default_model with noise_sigma = 0.4 }

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* one campaign, shared across the suite: 30 traces in shards of 8 *)
let with_campaign f =
  let sk = Lazy.force sk16 in
  let traces = Leakage.capture model ~seed:77 sk ~count:30 in
  let dir = Filename.temp_dir "fd_stream_test" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let w =
        Tracestore.Writer.create ~dir ~n:16
          ~width:(16 * Leakage.events_per_coeff)
          ~shard_traces:8
          ~model:
            {
              Tracestore.alpha = model.alpha;
              noise_sigma = model.noise_sigma;
              baseline = model.baseline;
            }
      in
      Array.iter (fun t -> Tracestore.Writer.append w (Leakage.to_record t)) traces;
      Tracestore.Writer.close w;
      f sk traces (Tracestore.Reader.open_store dir))

let test_stream_rank_bit_identical () =
  with_campaign @@ fun sk traces reader ->
  let d_true = (Fpr.mantissa sk.f_fft.Fft.re.(0) lor (1 lsl 52)) land 0x1FFFFFF in
  let candidates =
    Attack.Hypothesis.sampled
      (Stats.Rng.create ~seed:5)
      ~width:25 ~truth:d_true ~decoys:200 ()
  in
  let parts =
    [
      (Attack.Recover.sample Fpr.Mant_w00, Attack.Recover.p_w00);
      (Attack.Recover.sample Fpr.Mant_z1a, Attack.Recover.p_z1a);
    ]
  in
  let rows = Array.map (fun (t : Leakage.trace) -> t.samples) traces in
  let ks = Array.map (fun (t : Leakage.trace) -> t.c_fft.Fft.re.(0)) traces in
  (* a template store trained on this very campaign (known key) covers
     both ranked samples: coefficient 0, multiplication 0, window base 0 *)
  let profiled =
    Attack.Distinguisher.Profiled
      (Attack.Profile.train
         (Attack.Profile.default_spec ~window:Leakage.events_per_mul)
         ~targets:(Array.of_list (List.map fst parts))
         (fun add ->
           Array.iteri
             (fun i (t : Leakage.trace) ->
               List.iter
                 (fun (s, m) ->
                   add ~base:0 ~target:s
                     ~cls:(Bitops.popcount (Attack.Hypothesis.Model.apply m d_true ks.(i)))
                     t.samples)
                 parts)
             traces))
  in
  List.iter
    (fun sel ->
      let ctx jobs = Attack.Ctx.make ~jobs ~distinguisher:sel () in
      let mem jobs =
        Attack.Dema.rank ~ctx:(ctx jobs) ~traces:rows ~parts ~known:ks ~top:5
          (Array.to_seq candidates)
      in
      let streamed jobs =
        Attack.Dema.Stream.rank ~ctx:(ctx jobs) reader ~parts
          ~known:(fun (t : Leakage.trace) -> t.c_fft.Fft.re.(0))
          ~top:5 (Array.to_seq candidates)
      in
      let name = Attack.Distinguisher.name sel in
      let reference = mem 1 in
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: stream rank == memory rank at -j %d" name jobs)
            true
            (streamed jobs = reference))
        [ 1; 2; 3 ];
      Alcotest.(check bool)
        (name ^ ": memory rank itself jobs-invariant")
        true (mem 2 = reference))
    [ Attack.Distinguisher.Pearson_batched; profiled ]

let test_stream_evolution_matches_prefix_rescan () =
  with_campaign @@ fun sk traces reader ->
  let d_true = (Fpr.mantissa sk.f_fft.Fft.re.(0) lor (1 lsl 52)) land 0x1FFFFFF in
  let rows = Array.map (fun (t : Leakage.trace) -> t.samples) traces in
  let ks = Array.map (fun (t : Leakage.trace) -> t.c_fft.Fft.re.(0)) traces in
  let streamed jobs =
    Attack.Dema.Stream.evolution ~ctx:(Attack.Ctx.make ~jobs ()) reader
      ~sample:(Attack.Recover.sample Fpr.Mant_w00)
      ~model:Attack.Recover.m_w00
      ~known:(fun (t : Leakage.trace) -> t.c_fft.Fft.re.(0))
      ~guess:d_true
  in
  let checkpoints = streamed 1 in
  (* one checkpoint per shard boundary: 8, 16, 24, 30 *)
  Alcotest.(check (list int))
    "checkpoint trace counts" [ 8; 16; 24; 30 ] (List.map fst checkpoints);
  let rescans =
    Attack.Dema.evolution ~traces:rows
      ~sample:(Attack.Recover.sample Fpr.Mant_w00)
      ~model:Attack.Recover.m_w00 ~known:ks ~guess:d_true ~step:1
  in
  List.iter
    (fun (d, r) ->
      match List.assoc_opt d rescans with
      | None -> Alcotest.failf "no rescan at %d traces" d
      | Some r' ->
          if not (feq r r') then
            Alcotest.failf "checkpoint at %d traces: %.12f vs rescan %.12f" d r r')
    checkpoints;
  (* deterministic across jobs (same shard-order merge) *)
  Alcotest.(check bool) "evolution jobs-invariant" true (streamed 2 = checkpoints)

let oracle_strategy sk ~coeff ~mul =
  let truth =
    if mul = 0 then sk.Falcon.Scheme.f_fft.Fft.re.(coeff)
    else sk.Falcon.Scheme.f_fft.Fft.im.(coeff)
  in
  Attack.Recover.Eval_sampled
    { rng = Stats.Rng.create ~seed:((coeff * 7) + mul); decoys = 32; truth }

let same_fft (a : Fft.t) (b : Fft.t) = a.Fft.re = b.Fft.re && a.Fft.im = b.Fft.im

(* 30 traces in shards of 8: the last shard holds only 6 *)
let test_fullkey_store_matches_memory () =
  with_campaign @@ fun sk traces reader ->
  let strategy = oracle_strategy sk in
  let ctx jobs = Attack.Ctx.make ~jobs () in
  let mem = Attack.Fullkey.recover_f_fft ~ctx:(ctx 1) ~traces ~n:16 strategy in
  List.iter
    (fun jobs ->
      let st = Attack.Fullkey.recover_f_fft_store ~ctx:(ctx jobs) ~reader strategy in
      Alcotest.(check bool)
        (Printf.sprintf "store FFT(f) == memory FFT(f) at -j %d" jobs)
        true (same_fft st mem))
    [ 1; 2; 4 ];
  (* a cap inside shard 2 keeps exactly the first 20 traces *)
  let capped =
    Attack.Fullkey.recover_f_fft_store ~ctx:(ctx 2) ~max_traces:20 ~reader strategy
  in
  let first =
    Attack.Fullkey.recover_f_fft ~ctx:(ctx 1) ~traces:(Array.sub traces 0 20) ~n:16
      strategy
  in
  Alcotest.(check bool) "max_traces 20 == memory FFT(f) of the first 20 traces" true
    (same_fft capped first)

let contains_frag msg frag =
  let fl = String.length frag and ml = String.length msg in
  let rec scan i = i + fl <= ml && (String.sub msg i fl = frag || scan (i + 1)) in
  scan 0

let test_stream_evolution_single_shard () =
  (* a shard wide enough to swallow the whole campaign: exactly one
     checkpoint, equal to the full in-memory batch correlation *)
  let sk = Lazy.force sk16 in
  let traces = Leakage.capture model ~seed:78 sk ~count:24 in
  let dir = Filename.temp_dir "fd_stream_one" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let w =
        Tracestore.Writer.create ~dir ~n:16
          ~width:(16 * Leakage.events_per_coeff)
          ~shard_traces:64
          ~model:
            {
              Tracestore.alpha = model.alpha;
              noise_sigma = model.noise_sigma;
              baseline = model.baseline;
            }
      in
      Array.iter (fun t -> Tracestore.Writer.append w (Leakage.to_record t)) traces;
      Tracestore.Writer.close w;
      let reader = Tracestore.Reader.open_store dir in
      let d_true = (Fpr.mantissa sk.f_fft.Fft.re.(0) lor (1 lsl 52)) land 0x1FFFFFF in
      let known (t : Leakage.trace) = t.c_fft.Fft.re.(0) in
      match
        Attack.Dema.Stream.evolution reader
          ~sample:(Attack.Recover.sample Fpr.Mant_w00)
          ~model:Attack.Recover.m_w00 ~known ~guess:d_true
      with
      | [ (d, r) ] ->
          Alcotest.(check int) "checkpoint at full campaign" 24 d;
          let acc = Stats.Welford.Cov.create () in
          Array.iter
            (fun (t : Leakage.trace) ->
              Stats.Welford.Cov.add acc
                (float_of_int (Bitops.popcount (Attack.Recover.m_w00 d_true (known t))))
                t.samples.(Attack.Recover.sample Fpr.Mant_w00))
            traces;
          Alcotest.(check bool) "equals full batch correlation" true
            (feq r (Stats.Welford.Cov.correlation acc))
      | cps -> Alcotest.failf "expected one checkpoint, got %d" (List.length cps))

let test_stream_evolution_empty_store () =
  (* a store holding zero traces is a data error, not an empty series *)
  let dir = Filename.temp_dir "fd_stream_empty" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let w =
        Tracestore.Writer.create ~dir ~n:16
          ~width:(16 * Leakage.events_per_coeff)
          ~shard_traces:8
          ~model:{ Tracestore.alpha = 1.; noise_sigma = 0.; baseline = 0. }
      in
      Tracestore.Writer.close w;
      let reader = Tracestore.Reader.open_store dir in
      match
        Attack.Dema.Stream.evolution reader ~sample:0 ~model:(fun _ _ -> 0)
          ~known:(fun _ -> 0) ~guess:0
      with
      | _ -> Alcotest.fail "empty store accepted"
      | exception Failure msg ->
          Alcotest.(check bool) "message says the store is empty" true
            (contains_frag msg "no traces"))

let test_stream_rejects_width_mismatch () =
  (* a store whose sample width does not match 70n must be refused by
     the streaming engine up front *)
  let dir = Filename.temp_dir "fd_stream_bad" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let w =
        Tracestore.Writer.create ~dir ~n:16 ~width:7 ~shard_traces:4
          ~model:{ Tracestore.alpha = 1.; noise_sigma = 0.; baseline = 0. }
      in
      Tracestore.Writer.append w
        { Tracestore.msg = "m"; salt = "s"; body = "b"; samples = Array.make 7 0. };
      Tracestore.Writer.close w;
      let reader = Tracestore.Reader.open_store dir in
      match
        Attack.Dema.Stream.evolution reader ~sample:0 ~model:(fun _ _ -> 0)
          ~known:(fun _ -> 0) ~guess:0
      with
      | _ -> Alcotest.fail "width mismatch accepted"
      | exception Failure msg ->
          Alcotest.(check bool) "message names the width" true
            (let frag = "width" in
             let fl = String.length frag and ml = String.length msg in
             let rec scan i =
               i + fl <= ml && (String.sub msg i fl = frag || scan (i + 1))
             in
             scan 0))

(* ---- shard-loss and mmap robustness ----

   Same campaign as [with_campaign], but the directory outlives the
   store creation so individual shard files can be damaged and reopened:
   30 traces in shards of 8 → shards 0..3 holding 8/8/8/6 traces. *)
let with_campaign_dir f =
  let sk = Lazy.force sk16 in
  let traces = Leakage.capture model ~seed:77 sk ~count:30 in
  let dir = Filename.temp_dir "fd_stream_dir" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let w =
        Tracestore.Writer.create ~dir ~n:16
          ~width:(16 * Leakage.events_per_coeff)
          ~shard_traces:8
          ~model:
            {
              Tracestore.alpha = model.alpha;
              noise_sigma = model.noise_sigma;
              baseline = model.baseline;
            }
      in
      Array.iter (fun t -> Tracestore.Writer.append w (Leakage.to_record t)) traces;
      Tracestore.Writer.close w;
      f sk traces dir)

(* flip one payload byte in place: CRC mismatch, size unchanged *)
let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1))

let truncate_file path by =
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (size - by)

let rank_parts () =
  [
    (Attack.Recover.sample Fpr.Mant_w00, Attack.Recover.p_w00);
    (Attack.Recover.sample Fpr.Mant_z1a, Attack.Recover.p_z1a);
  ]

let candidates_for sk =
  let d_true = (Fpr.mantissa sk.Falcon.Scheme.f_fft.Fft.re.(0) lor (1 lsl 52)) land 0x1FFFFFF in
  Attack.Hypothesis.sampled
    (Stats.Rng.create ~seed:5)
    ~width:25 ~truth:d_true ~decoys:200 ()

let known_re0 (t : Leakage.trace) = t.c_fft.Fft.re.(0)

let test_corrupt_shard_fails_loudly () =
  with_campaign_dir @@ fun sk _traces dir ->
  (* damage a payload byte of shard 1 — header intact, CRC now wrong *)
  flip_byte (Filename.concat dir (Tracestore.shard_name 1)) 40;
  let candidates = candidates_for sk in
  let reader = Tracestore.Reader.open_store dir in
  let expect_loud name run =
    match run () with
    | _ -> Alcotest.failf "%s accepted a corrupt shard" name
    | exception Failure msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s error names shard 1" name)
          true (contains_frag msg "shard 1")
  in
  expect_loud "Stream.rank" (fun () ->
      Attack.Dema.Stream.rank reader ~parts:(rank_parts ()) ~known:known_re0 ~top:5
        (Array.to_seq candidates));
  expect_loud "Stream.extract" (fun () ->
      Attack.Dema.Stream.extract reader ~samples:[ 0 ] ~known:known_re0);
  expect_loud "Stream.evolution" (fun () ->
      Attack.Dema.Stream.evolution reader
        ~sample:(Attack.Recover.sample Fpr.Mant_w00)
        ~model:Attack.Recover.m_w00 ~known:known_re0 ~guess:1)

let test_truncated_shard_fails_loudly () =
  with_campaign_dir @@ fun sk _traces dir ->
  truncate_file (Filename.concat dir (Tracestore.shard_name 2)) 5;
  let reader = Tracestore.Reader.open_store dir in
  match
    Attack.Dema.Stream.rank reader ~parts:(rank_parts ()) ~known:known_re0 ~top:5
      (Array.to_seq (candidates_for sk))
  with
  | _ -> Alcotest.fail "truncated shard accepted"
  | exception Failure msg ->
      Alcotest.(check bool) "error names shard 2" true (contains_frag msg "shard 2");
      Alcotest.(check bool) "error says truncated" true (contains_frag msg "truncated")

let test_skip_policy_drops_and_counts () =
  with_campaign_dir @@ fun sk traces dir ->
  flip_byte (Filename.concat dir (Tracestore.shard_name 1)) 40;
  let candidates = candidates_for sk in
  let buf = Buffer.create 256 in
  let ctx =
    Attack.Ctx.make ~on_corrupt:`Skip ~obs:(Obs.make (Obs.Jsonl.to_buffer buf)) ()
  in
  let reader = Tracestore.Reader.open_store dir in
  let streamed =
    Attack.Dema.Stream.rank ~ctx reader ~parts:(rank_parts ())
      ~known:known_re0 ~top:5 (Array.to_seq candidates)
  in
  (* dropping shard 1 leaves traces 0..7 and 16..29: the ranking must be
     exactly the in-memory one over that subset *)
  let kept =
    Array.of_list
      (List.filteri (fun i _ -> i < 8 || i >= 16) (Array.to_list traces))
  in
  let mem =
    Attack.Dema.rank
      ~traces:(Array.map (fun (t : Leakage.trace) -> t.samples) kept)
      ~parts:(rank_parts ())
      ~known:(Array.map known_re0 kept)
      ~top:5 (Array.to_seq candidates)
  in
  Alcotest.(check bool) "skip rank == memory rank over surviving shards" true
    (streamed = mem);
  let skipped =
    List.exists
      (fun r ->
        Option.bind (Obs.Json.member "name" r) Obs.Json.to_string_opt
          = Some "dema.shards_skipped"
        && Option.bind (Obs.Json.member "value" r) Obs.Json.to_int_opt = Some 1)
      (Obs.Jsonl.read_string (Buffer.contents buf))
  in
  Alcotest.(check bool) "dema.shards_skipped == 1 emitted" true skipped

let test_fullkey_corrupt_shard () =
  with_campaign_dir @@ fun sk traces dir ->
  flip_byte (Filename.concat dir (Tracestore.shard_name 1)) 40;
  let strategy = oracle_strategy sk in
  (match
     Attack.Fullkey.recover_f_fft_store
       ~ctx:(Attack.Ctx.make ~jobs:2 ())
       ~reader:(Tracestore.Reader.open_store dir)
       strategy
   with
  | _ -> Alcotest.fail "recover_f_fft_store accepted a corrupt shard"
  | exception Failure msg ->
      Alcotest.(check bool) "error names shard 1" true (contains_frag msg "shard 1"));
  let skipped =
    Attack.Fullkey.recover_f_fft_store
      ~ctx:(Attack.Ctx.make ~jobs:2 ~on_corrupt:`Skip ())
      ~reader:(Tracestore.Reader.open_store dir)
      strategy
  in
  let kept =
    Array.of_list
      (List.filteri (fun i _ -> i < 8 || i >= 16) (Array.to_list traces))
  in
  let mem =
    Attack.Fullkey.recover_f_fft ~ctx:(Attack.Ctx.make ~jobs:1 ()) ~traces:kept ~n:16
      strategy
  in
  Alcotest.(check bool) "skip recovery == memory recovery of the surviving traces"
    true (same_fft skipped mem)

let counts_named name records =
  List.filter_map
    (fun r ->
      if Option.bind (Obs.Json.member "name" r) Obs.Json.to_string_opt = Some name then
        Option.bind (Obs.Json.member "value" r) Obs.Json.to_int_opt
      else None)
    records

let test_fullkey_store_single_pass () =
  with_campaign_dir @@ fun sk _traces dir ->
  let reader = Tracestore.Reader.open_store dir in
  let shards = Tracestore.Reader.shard_count reader in
  let bytes =
    List.fold_left ( + ) 0
      (List.init shards (fun i -> (Tracestore.Reader.entry reader i).Tracestore.bytes))
  in
  let buf = Buffer.create 4096 in
  let ctx = Attack.Ctx.make ~jobs:2 ~obs:(Obs.make (Obs.Jsonl.to_buffer buf)) () in
  ignore (Attack.Fullkey.recover_f_fft_store ~ctx ~reader (oracle_strategy sk));
  let records = Obs.Jsonl.read_string (Buffer.contents buf) in
  Alcotest.(check (list int)) "one tracestore.shards count, of every shard" [ shards ]
    (counts_named "tracestore.shards" records);
  Alcotest.(check (list int)) "one tracestore.bytes count, of the whole store" [ bytes ]
    (counts_named "tracestore.bytes" records);
  Alcotest.(check (list int)) "one tracestore.traces count, of every trace" [ 30 ]
    (counts_named "tracestore.traces" records)

let test_mmap_matches_read () =
  with_campaign_dir @@ fun sk _traces dir ->
  let mmap = Tracestore.Reader.open_store ~access:`Mmap dir in
  let read = Tracestore.Reader.open_store ~access:`Read dir in
  for i = 0 to Tracestore.Reader.shard_count read - 1 do
    let a = Tracestore.Reader.load_shard mmap i in
    let b = Tracestore.Reader.load_shard read i in
    Alcotest.(check bool)
      (Printf.sprintf "shard %d decodes identically under mmap" i)
      true (a = b)
  done;
  let candidates = candidates_for sk in
  let rank reader =
    Attack.Dema.Stream.rank reader ~parts:(rank_parts ()) ~known:known_re0 ~top:5
      (Array.to_seq candidates)
  in
  Alcotest.(check bool) "mmap rank == read rank" true (rank mmap = rank read)

(* A campaign left with no trace — every shard dropped under [`Skip],
   or an empty in-memory trace set — has no defined score: every
   ranking entry point fails instead of returning NaN scores. *)
let test_zero_traces_fail () =
  with_campaign_dir @@ fun sk _traces dir ->
  for i = 0 to 3 do
    flip_byte (Filename.concat dir (Tracestore.shard_name i)) 40
  done;
  let candidates = candidates_for sk in
  let ctx = Attack.Ctx.make ~on_corrupt:`Skip () in
  let reader () = Tracestore.Reader.open_store dir in
  let fails what f =
    match f () with
    | _ -> Alcotest.failf "%s scored zero traces" what
    | exception Failure msg ->
        Alcotest.(check bool) (what ^ ": message says no traces") true
          (contains_frag msg "no traces")
  in
  fails "Stream.rank" (fun () ->
      Attack.Dema.Stream.rank ~ctx (reader ()) ~parts:(rank_parts ()) ~known:known_re0
        ~top:5 (Array.to_seq candidates));
  fails "Stream.rank_until" (fun () ->
      Attack.Dema.Stream.rank_until ~ctx
        ~spec:(Sequential.Decision.spec ~alpha:1e-3 ())
        (reader ()) ~parts:(rank_parts ()) ~known:known_re0 ~top:5
        (Array.to_seq candidates));
  fails "Stream.evolution" (fun () ->
      Attack.Dema.Stream.evolution ~ctx (reader ())
        ~sample:(Attack.Recover.sample Fpr.Mant_w00)
        ~model:Attack.Recover.m_w00 ~known:known_re0 ~guess:1);
  fails "rank" (fun () ->
      Attack.Dema.rank ~traces:[||] ~parts:(rank_parts ()) ~known:[||] ~top:5
        (Array.to_seq candidates))

let suite =
  [
    Alcotest.test_case "stream rank bit-identical" `Quick
      test_stream_rank_bit_identical;
    Alcotest.test_case "evolution checkpoints == prefix rescans" `Quick
      test_stream_evolution_matches_prefix_rescan;
    Alcotest.test_case "fullkey store path == memory path" `Slow
      test_fullkey_store_matches_memory;
    Alcotest.test_case "stream rejects width mismatch" `Quick
      test_stream_rejects_width_mismatch;
    Alcotest.test_case "evolution on a single-shard store" `Quick
      test_stream_evolution_single_shard;
    Alcotest.test_case "evolution rejects an empty store" `Quick
      test_stream_evolution_empty_store;
    Alcotest.test_case "corrupt shard fails loudly with its index" `Quick
      test_corrupt_shard_fails_loudly;
    Alcotest.test_case "truncated shard fails loudly" `Quick
      test_truncated_shard_fails_loudly;
    Alcotest.test_case "skip policy drops the shard and counts it" `Quick
      test_skip_policy_drops_and_counts;
    Alcotest.test_case "fullkey store: corrupt shard fails, skip == survivors" `Slow
      test_fullkey_corrupt_shard;
    Alcotest.test_case "fullkey store reads the store in one pass" `Quick
      test_fullkey_store_single_pass;
    Alcotest.test_case "mmap and read decode identically" `Quick
      test_mmap_matches_read;
    Alcotest.test_case "zero traces fail every ranking entry point" `Quick
      test_zero_traces_fail;
  ]
