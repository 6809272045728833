type workload = Capture_store | Fullkey_store | Fullkey_mem

let workloads =
  [
    ("capture-store", Capture_store);
    ("fullkey-store", Fullkey_store);
    ("fullkey-mem", Fullkey_mem);
  ]

type spec = {
  workload : workload;
  n : int;
  traces : int;
  shard : int;
  decoys : int;
  setups : int;
  jobs : int;
}

let standard = function
  | Capture_store ->
      (* set-up is keygen alone, whose cost varies by key: more keys
         steady its median *)
      {
        workload = Capture_store;
        n = 128;
        traces = 1000;
        shard = 125;
        decoys = 512;
        setups = 15;
        jobs = 2;
      }
  | (Fullkey_store | Fullkey_mem) as workload ->
      (* at 1000 traces about one key in five misses a coefficient, and
         one in fifty at 1500; 2000 recovered every key tried.  The
         set-up campaigns are the only source of capture_tps here:
         fullkey-mem's six take about as long as its timed recoveries;
         fullkey-store's single recovery already fills most of a run's
         time limit, so it sets up three times. *)
      let setups = if workload = Fullkey_mem then 6 else 3 in
      { workload; n = 32; traces = 2000; shard = 125; decoys = 512; setups; jobs = 2 }

type metric = { name : string; unit_ : string; value : float }

(* ---- inputs, all derived from the workload seed ---- *)

let model = Leakage.default_model

(* Set-up [k] of a run, and the operations after it, use key [k].
   [Falcon.Scheme.keygen] is this with a 50-attempt NTRU budget, which
   about 0.5% of FALCON-128 seeds exhaust; the victim keeps drawing from
   the same stream instead, so a key that the default finds is
   unchanged. *)
let keygen ?(k = 0) spec ~seed =
  let kp =
    Ntru.Ntrugen.keygen ~max_attempts:1000 ~n:spec.n
      ~seed:(Printf.sprintf "perfbench victim %d/%d" seed k)
      ()
  in
  let sk = Falcon.Scheme.secret_of_keypair kp in
  (sk, Falcon.Scheme.public_of_secret sk)

(* The headline, oracle-assisted strategy: the true value, its alias
   class and [decoys] random candidates, seeded per (coeff, mul). *)
let strategy spec (sk : Falcon.Scheme.secret_key) ~coeff ~mul =
  let truth = if mul = 0 then sk.f_fft.Fft.re.(coeff) else sk.f_fft.Fft.im.(coeff) in
  Attack.Recover.Eval_sampled
    { rng = Stats.Rng.create ~seed:((coeff * 7) + mul); decoys = spec.decoys; truth }

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Sign [spec.traces] messages through the probe, handing each trace to
   [keep].  Returns the rate, in traces per second, of each block of
   [spec.shard] consecutive traces.  With a live [obs], every capture is
   its own span. *)
let capture ?(obs = Obs.null) spec ~seed sk keep =
  let next = Leakage.capture_stream model ~seed sk in
  let rates = ref [] and t0 = ref (now ()) and pending = ref 0 in
  for i = 1 to spec.traces do
    keep (Obs.span obs "leakage.capture_stream" next);
    incr pending;
    if i mod spec.shard = 0 || i = spec.traces then begin
      let t = now () in
      rates := (float_of_int !pending /. (t -. !t0)) :: !rates;
      t0 := t;
      pending := 0
    end
  done;
  List.rev !rates

(* [capture] appending each trace to a fresh store in [dir], one shard
   per block; [to_record] + [append] and the final [close] are spans. *)
let capture_to_store ?(obs = Obs.null) spec ~seed sk dir =
  let w =
    Tracestore.Writer.create ~dir ~n:spec.n
      ~width:(spec.n * Leakage.events_per_coeff)
      ~shard_traces:spec.shard
      ~model:
        {
          Tracestore.alpha = model.Leakage.alpha;
          noise_sigma = model.Leakage.noise_sigma;
          baseline = model.Leakage.baseline;
        }
  in
  let rates =
    capture ~obs spec ~seed sk (fun t ->
        Obs.span obs "tracestore.append" (fun () ->
            Tracestore.Writer.append w (Leakage.to_record t)))
  in
  Obs.span obs "tracestore.close" (fun () -> Tracestore.Writer.close w);
  rates

let capture_to_memory spec ~seed sk =
  let traces = ref [] in
  let rates = capture spec ~seed sk (fun t -> traces := t :: !traces) in
  (Array.of_list (List.rev !traces), rates)

type source = Store of string | Memory of Leakage.trace array

(* The timed part of a fullkey workload: campaign to verifying forgery. *)
let recover ?(obs = Obs.null) spec (sk, (pk : Falcon.Scheme.public_key)) source =
  let ctx = Attack.Ctx.make ~jobs:spec.jobs ~obs () in
  let strategy = strategy spec sk in
  let res =
    match source with
    | Store dir ->
        let reader = Tracestore.Reader.open_store dir in
        Attack.Fullkey.recover_key_store ~ctx ~reader ~h:pk.h strategy
    | Memory traces -> Attack.Fullkey.recover_key ~ctx ~traces ~h:pk.h strategy
  in
  (res, Checks.forgery pk res)

let check_recovery tally what (sk : Falcon.Scheme.secret_key) (res, forged) =
  Checks.record tally what (Checks.fullkey ~truth:sk.f_fft res ~forged)

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match Scanf.sscanf (input_line ic) "VmHWM: %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> go ()
      in
      go ())

(* Collect the heap left by the previous step, so that its garbage does
   not raise the next step's peak RSS. *)
let settle () = Gc.full_major ()

(* ---- untraced run: the end-to-end metrics ---- *)

(* One set-up: keygen, plus the campaign a fullkey workload recovers
   from, with its capture rates. *)
let setup spec ~seed ~k dir =
  let ((sk, _) as keys) = keygen ~k spec ~seed in
  match spec.workload with
  | Capture_store -> (keys, None, [])
  | Fullkey_store -> (keys, Some (Store dir), capture_to_store spec ~seed sk dir)
  | Fullkey_mem ->
      let traces, rates = capture_to_memory spec ~seed sk in
      (keys, Some (Memory traces), rates)

(* Set-ups and timed operations alternate: after set-up [k], operations
   on its inputs run while the next is expected to end within [k + 1]
   shares of [seconds] of operation time; set-up 0 always gets one.  So
   set-up times, operation times and capture rates each sample the whole
   run, not one stretch of it, and a spell of load on the shared machine
   moves their medians less.  Only one campaign is alive at a time. *)
let run spec ~seed ~seconds ~work tally =
  let dir = Filename.concat work "setup" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let setups = ref [] and ops = ref [] and rates = ref [] and op_time = ref 0. in
  for k = 0 to spec.setups - 1 do
    rm_rf dir;
    settle ();
    let (((sk, pk) as keys), source, r), d = time (fun () -> setup spec ~seed ~k dir) in
    setups := d :: !setups;
    rates := r :: !rates;
    let op () =
      match source with
      | None ->
          let campaign = Filename.concat work "campaign" in
          let r, d = time (fun () -> capture_to_store spec ~seed sk campaign) in
          Checks.attempt tally "capture campaign" (fun () ->
              Checks.store ~dir:campaign ~expected:spec.traces ~pk ~sample:16);
          rm_rf campaign;
          rates := r :: !rates;
          d
      | Some source ->
          let r, d = time (fun () -> recover spec keys source) in
          check_recovery tally "key extraction" sk r;
          d
    in
    let share = seconds *. float_of_int (k + 1) /. float_of_int spec.setups in
    while !ops = [] || !op_time +. Pstats.median !ops <= share do
      settle ();
      let d = op () in
      ops := d :: !ops;
      op_time := !op_time +. d
    done
  done;
  let rss = vm_hwm_mb () in
  [
    { name = "setup_s"; unit_ = "s"; value = Pstats.median !setups };
    { name = "op_s"; unit_ = "s"; value = Pstats.median !ops };
    { name = "capture_tps"; unit_ = "1/s"; value = Pstats.median (List.concat !rates) };
    { name = "peak_rss_mb"; unit_ = "MB"; value = rss };
  ]

(* ---- traced run: the per-layer metrics ---- *)

let collector () =
  let events = ref [] in
  let sink =
    {
      Obs.emit = (fun e -> events := e :: !events);
      progress = (fun ~label:_ ~total:_ _ -> ());
      flush = ignore;
    }
  in
  (Obs.make ~level:Obs.Debug sink, fun () -> List.rev !events)

let exact_counts events =
  ( Spantree.count_events "tracestore.shards" events,
    Spantree.count_sum "tracestore.bytes" events,
    Spantree.count_sum "dema.guesses" events )

(* Print a timing series as its median and highest supported tail. *)
let describe name xs =
  match Pstats.tail xs with
  | Some t ->
      Printf.printf "%s: p50 %.4g, p%g %.4g over %d samples\n" name (Pstats.median xs) t.pct
        t.value t.samples
  | None -> Printf.printf "%s: p50 %.4g over %d samples\n" name (Pstats.median xs) (List.length xs)

let traced spec ~seed ~work tally =
  let ((sk, pk) as keys) = keygen spec ~seed in
  let dir = Filename.concat work "traced" in
  let n = spec.n in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let check_store dir =
    Checks.attempt tally "capture campaign" (fun () ->
        Checks.store ~dir ~expected:spec.traces ~pk ~sample:16)
  in
  (* capture: per-call spans around capture_stream and the appends *)
  let obs, events = collector () in
  let _, traced_capture = time (fun () -> capture_to_store ~obs spec ~seed sk dir) in
  check_store dir;
  let campaign = Spantree.of_events (events ()) in
  let capture_ms =
    List.map (fun (s : Spantree.node) -> s.dur *. 1e3)
      (Spantree.nodes "leakage.capture_stream" campaign)
  in
  let append_s =
    Spantree.total "tracestore.append" campaign +. Spantree.total "tracestore.close" campaign
  in
  (* store read, then decode, of every record once *)
  let reader = Tracestore.Reader.open_store dir in
  let records, read_s =
    time (fun () ->
        Array.concat
          (List.init (Tracestore.Reader.shard_count reader) (Tracestore.Reader.load_shard reader)))
  in
  let traces, decode_s = time (fun () -> Array.map (Leakage.of_record ~n) records) in
  (* signing alone, on the same key and messages *)
  let rng = Prng.of_seed (Printf.sprintf "perfbench signer %d" seed) in
  let sign_ms =
    Array.to_list
      (Array.map
         (fun (t : Leakage.trace) ->
           1e3 *. snd (time (fun () -> Falcon.Scheme.sign ~rng sk t.msg)))
         traces)
  in
  (* unit 0 (coefficient 0, real part): extraction, and its low-phase
     ranking in memory and streamed, on the same candidates *)
  let ctx = Attack.Ctx.make ~jobs:spec.jobs () in
  let samples =
    List.concat_map
      (fun m -> List.init Leakage.events_per_mul (fun i -> (m * Leakage.events_per_mul) + i))
      (Attack.Fullkey.component_muls `Re)
  in
  let (narrow, known), extract_s =
    time (fun () ->
        Attack.Dema.Stream.extract ~ctx reader ~samples ~known:(fun (t : Leakage.trace) ->
            t.c_fft.Fft.re.(0)))
  in
  let low = (Fpr.mantissa sk.f_fft.Fft.re.(0) lor (1 lsl 52)) land 0x1FFFFFF in
  let candidates =
    Attack.Hypothesis.sampled (Stats.Rng.create ~seed:0)
      ~width:Attack.Recover.mantissa_low_width ~truth:low ~decoys:spec.decoys ()
  in
  let extend, prune = Attack.Recover.low_stages `Hw in
  let parts = List.map (fun (l, m) -> (Attack.Recover.sample l, m)) (extend @ prune) in
  let mem_ranked, rank_mem_s =
    time (fun () ->
        Attack.Dema.rank ~ctx ~traces:narrow ~parts ~known ~top:16 (Array.to_seq candidates))
  in
  let stream_ranked, rank_stream_s =
    time (fun () ->
        Attack.Dema.Stream.rank ~ctx reader ~parts
          ~known:(fun (t : Leakage.trace) -> t.c_fft.Fft.re.(0))
          ~top:16 (Array.to_seq candidates))
  in
  Checks.record tally "streamed ranking"
    (if mem_ranked = stream_ranked then [] else [ "differs from the in-memory ranking" ]);
  (* The recovery layers and the tracing overhead.  capture-store runs
     no recovery; its overhead is its campaign traced vs untraced.  A
     fullkey workload recovers twice under a sink: the first run's events
     give the layer breakdown, the second must repeat its exact counts.
     Its overhead is read on the in-memory recovery of the same campaign,
     untraced then traced: a third and fourth store recovery would not
     fit a run's time limit on a loaded machine, and the store path adds
     only three counters per pass. *)
  let recovery, overhead =
    match spec.workload with
    | Capture_store ->
        (* capture-store's op again, untraced, for the overhead *)
        let plain = Filename.concat work "plain" in
        let _, d = time (fun () -> capture_to_store spec ~seed sk plain) in
        check_store plain;
        rm_rf plain;
        (None, (traced_capture /. d) -. 1.)
    | Fullkey_store | Fullkey_mem ->
        let source = match spec.workload with Fullkey_store -> Store dir | _ -> Memory traces in
        let once ?obs what source =
          let ((res, _) as r), d = time (fun () -> recover ?obs spec keys source) in
          check_recovery tally what sk r;
          (res, d)
        in
        let traced_once source =
          let obs, events = collector () in
          let res, d = once ~obs "traced key extraction" source in
          (events (), res, d)
        in
        let ev, (res : Attack.Fullkey.result), _ = traced_once source in
        let ev_b, _, _ = traced_once source in
        Checks.record tally "exact counts"
          (if exact_counts ev = exact_counts ev_b then [] else [ "differ between two traced runs" ]);
        let mem, plain = once "key extraction" (Memory traces) in
        let _, _, traced = traced_once (Memory traces) in
        (* the store path must find the very key the in-memory path finds
           on the same campaign *)
        let same = Attack.Fullkey.count_correct res.f_fft ~truth:mem.f_fft in
        Checks.record tally "store/memory parity"
          (if same = 2 * n then []
           else [ Printf.sprintf "f_fft matches the in-memory recovery on %d/%d" same (2 * n) ]);
        (Some ev, (traced /. plain) -. 1.)
  in
  (* key completion and forgery, on the victim's own key *)
  let kp = sk.kp in
  let solved, solve_s = time (fun () -> Ntru.Ntrugen.recover_from_f ~n ~f:kp.f ~h:pk.h) in
  let forged, forge_verify_s =
    time (fun () -> Checks.forgery pk { f_fft = sk.f_fft; f = kp.f; keypair = solved })
  in
  Checks.record tally "key completion and forgery"
    (if forged then [] else [ "the victim's own f does not give a verifying forgery" ]);
  (* a workload without a recovery reads 0 on every recovery layer *)
  let ev = match recovery with Some ev -> ev | None -> [] in
  let tree = Spantree.of_events ev in
  let passes, bytes_read, guesses = exact_counts ev in
  let unit_s = List.map (fun (s : Spantree.node) -> s.dur) (Spantree.nodes "fullkey.task" tree) in
  let wall =
    Spantree.total "fullkey.recover_f_fft_store" tree +. Spantree.total "fullkey.recover_f_fft" tree
  in
  let prep_s = Spantree.total "dema.prep" tree and score_s = Spantree.total "dema.score" tree in
  describe "falcon.sign_ms" sign_ms;
  describe "leakage.capture_ms" capture_ms;
  if unit_s <> [] then describe "recover.unit_s" unit_s;
  let sum = List.fold_left ( +. ) 0. in
  let ratio a b = if b > 0. then a /. b else 0. in
  let pct xs p = if xs = [] then 0. else Pstats.percentile xs p in
  let m name unit_ value = { name; unit_; value } in
  let count name xs = m name "count" (float_of_int (List.length xs)) in
  [
    m "falcon.sign_ms.p50" "ms" (Pstats.median sign_ms);
    m "falcon.sign_ms.p99" "ms" (pct sign_ms 99.);
    count "falcon.sign_ms.n" sign_ms;
    m "leakage.capture_ms.p50" "ms" (Pstats.median capture_ms);
    m "leakage.capture_ms.p99" "ms" (pct capture_ms 99.);
    count "leakage.capture_ms.n" capture_ms;
    m "leakage.emit_share" "ratio" (1. -. ratio (sum sign_ms) (sum capture_ms));
    m "leakage.decode_s" "s" decode_s;
    m "tracestore.append_s" "s" append_s;
    m "tracestore.read_s" "s" read_s;
    m "tracestore.passes" "count" (float_of_int passes);
    m "tracestore.bytes_read" "bytes" (float_of_int bytes_read);
    m "dema.extract_s" "s" extract_s;
    m "dema.rank_mem_s" "s" rank_mem_s;
    m "dema.rank_stream_s" "s" rank_stream_s;
    m "dema.prep_s" "s" prep_s;
    m "dema.score_s" "s" score_s;
    m "dema.guesses" "count" (float_of_int guesses);
    m "dema.hyp_traces_per_s" "1/s" (ratio (float_of_int (guesses * spec.traces)) (prep_s +. score_s));
    m "recover.mantissa_low_s" "s" (Spantree.total "recover.mantissa_low" tree);
    m "recover.mantissa_high_s" "s" (Spantree.total "recover.mantissa_high" tree);
    m "recover.sign_exponent_s" "s" (Spantree.total "recover.sign_exponent" tree);
    m "recover.unit_s.p50" "s" (pct unit_s 50.);
    m "recover.unit_s.p80" "s" (pct unit_s 80.);
    count "recover.unit_s.n" unit_s;
    m "parallel.busy_share" "ratio" (ratio (sum unit_s) (float_of_int spec.jobs *. wall));
    m "fullkey.extract_self_s" "s" (Spantree.self_total "fullkey.task" tree);
    m "ntru.solve_s" "s" solve_s;
    m "fullkey.forge_verify_s" "s" forge_verify_s;
    m "obs.overhead" "ratio" overhead;
  ]
