type result = {
  f_fft : Fft.t;
  f : int array;
  keypair : Ntru.Ntrugen.keypair option;
}

(* Which multiplications a secret component leaks through, and the known
   operand of each — shared by the fixed driver, the adaptive driver and
   the Target enumerator. *)
let component_muls = function `Re -> [ 0; 3 ] | `Im -> [ 1; 2 ]
let mul_known (re, im) = function 0 | 2 -> re | _ -> im

(* Unit [t] is the (coefficient, component) task [2 coeff + mul]; [mul]
   (0 or 1) also names the strategy's multiplication. *)
let unit_of t = (t lsr 1, if t land 1 = 0 then `Re else `Im)
let mul_of = function `Re -> 0 | `Im -> 1

(* Fan the 2n independent (coefficient, component) attacks across the
   pool; leftover parallelism goes to the candidate sweeps inside.  Each
   task runs under a [Obs.buffered] child context (single-owner, one per
   task) and returns it with its result; the children are drained in
   task order after the join, so the merged event stream is
   deterministic at every [jobs] — the Obs ownership contract. *)
let fan_tasks ~ctx ~n task =
  let obs = ctx.Ctx.obs in
  let tasks = 2 * n in
  let outer = min ctx.Ctx.jobs tasks in
  let inner = max 1 (ctx.Ctx.jobs / max outer 1) in
  let done_ = Atomic.make 0 in
  let results =
    Parallel.map_array ~jobs:outer
      (fun t ->
        let child = Obs.buffered obs in
        let tctx = Ctx.with_obs child (Ctx.with_jobs inner ctx) in
        let k, component = unit_of t in
        let r =
          Obs.span child "fullkey.task"
            ~fields:
              [
                ("coeff", Obs.Int k);
                ("component", Obs.Str (match component with `Re -> "re" | `Im -> "im"));
              ]
            (fun () -> task ~tctx ~coeff:k ~component)
        in
        if Obs.enabled obs then
          Obs.progress ~total:tasks obs "coefficients"
            (1 + Atomic.fetch_and_add done_ 1);
        (r, child))
      (Array.init tasks Fun.id)
  in
  Array.iter (fun (_, child) -> Obs.drain ~into:obs child) results;
  let out = Fft.zero n in
  for k = 0 to n - 1 do
    out.Fft.re.(k) <- fst results.(2 * k);
    out.Fft.im.(k) <- fst results.((2 * k) + 1)
  done;
  out

let recover_f_fft ?(ctx = Ctx.default) ~traces ~n strategy =
  Obs.span ctx.Ctx.obs "fullkey.recover_f_fft"
    ~fields:[ ("n", Obs.Int n); ("jobs", Obs.Int ctx.Ctx.jobs) ]
  @@ fun () ->
  fan_tasks ~ctx ~n (fun ~tctx ~coeff ~component ->
      let views = Recover.views_for traces ~coeff ~component in
      Recover.coefficient ~ctx:tctx
        ~strategy:(strategy ~coeff ~mul:(mul_of component))
        views)

let recover_key ?ctx ~traces ~h strategy =
  let n = Array.length h in
  let f_fft = recover_f_fft ?ctx ~traces ~n strategy in
  let f = Fft.round_to_int (Fft.ifft f_fft) in
  let keypair = Ntru.Ntrugen.recover_from_f ~n ~f ~h in
  { f_fft; f; keypair }

(* ---- out-of-core recovery over a Tracestore campaign ----

   One streaming pass: each decoded batch is copied once into 2n
   per-unit buffers, a unit being one (coefficient, component) task,
   and the unchanged per-coefficient attack then runs on views built
   from them.  A buffer holds, per trace, the unit's two 16-sample
   windows (view order of [component_muls]) and its coefficient's
   FFT(c) pair, in Bigarrays sized from the campaign's trace count:
   O(traces x n) words, kept off the OCaml heap so the major GC neither
   scans nor grows for them, and each dropped as soon as its task has
   built its views.  Copying is arithmetic-free and in shard order, so
   a task's views are exactly the ones [Recover.views_for] builds from
   the in-memory corpus. *)

type buffer = {
  coeff : int;
  muls : int list;
  samples : int array;  (* 32 absolute sample indices, window order *)
  rows : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t;
  cs : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array2.t;
      (* FFT(c) of the coefficient: re, im *)
  mutable fill : int;
}

let buffer_create ~cap t =
  let coeff, component = unit_of t in
  let muls = component_muls component in
  let samples =
    Array.of_list
      (List.concat_map
         (fun m ->
           List.init Leakage.events_per_mul (fun i ->
               (coeff * Leakage.events_per_coeff) + (m * Leakage.events_per_mul) + i))
         muls)
  in
  {
    coeff;
    muls;
    samples;
    rows = Bigarray.Array2.create Bigarray.float64 Bigarray.c_layout cap (Array.length samples);
    cs = Bigarray.Array2.create Bigarray.int64 Bigarray.c_layout cap 2;
    fill = 0;
  }

(* Copy a batch in after the rows already held; returns its first row. *)
let buffer_append b (batch : Leakage.trace array) =
  let base = b.fill in
  Array.iteri
    (fun i (t : Leakage.trace) ->
      let r = base + i in
      Array.iteri (fun j s -> b.rows.{r, j} <- t.Leakage.samples.(s)) b.samples;
      b.cs.{r, 0} <- t.Leakage.c_fft.Fft.re.(b.coeff);
      b.cs.{r, 1} <- t.Leakage.c_fft.Fft.im.(b.coeff))
    batch;
  b.fill <- base + Array.length batch;
  base

let buffer_known b m r = mul_known (b.cs.{r, 0}, b.cs.{r, 1}) m

let buffer_views b =
  List.mapi
    (fun vi m ->
      let lo = vi * Leakage.events_per_mul in
      {
        Recover.traces =
          Array.init b.fill (fun r ->
              Array.init Leakage.events_per_mul (fun i -> b.rows.{r, lo + i}));
        known = Array.init b.fill (buffer_known b m);
      })
    b.muls

(* ---- adaptive (early-stopping) campaign over the same pass ----

   With [?stop] the 2n units are live: every still-undecided unit
   copies each batch into its buffer (the prefix its final attack will
   run on) and folds two incremental decision sweeps, one per mantissa
   half, on the d-free part sets of [Recover.decision_stages] over the
   strategy's held candidate sets ([Recover.candidate_sets]).  The
   unit's reported gap is the {e weaker} of the two sweeps'
   standardised gaps, so a stop certifies both halves separated at the
   spent level.  Once stopped, the unit is retired: its buffer stops
   growing and later batches skip its scoring entirely.

   Determinism: batches arrive in shard order, each unit's buffer and
   sweeps are touched only by its own fold in batch order with
   single-job inner sweeps (unit-level parallelism comes from the
   campaign driver), and decisions run on the owner domain in unit
   order — stop points, winners and the recovered key are bit-identical
   at every [jobs] and backend. *)

let supports_stop leakage = Recover.decision_stages leakage <> None

(* One decision sweep over a stage: a part per (label, view), label-major
   and view-minor, and the labels it reads its columns from. *)
type decision = { sweep : Fpr.t Dema.Sweep.t; labels : Fpr.label list }

let decision ~backend b (stage : Recover.stage) cands =
  {
    sweep =
      Dema.Sweep.create ~backend
        ~parts:(List.concat_map (fun (_, m) -> List.map (fun _ -> m) b.muls) stage)
        cands;
    labels = List.map fst stage;
  }

let unit_fold b decisions batch =
  let base = buffer_append b batch in
  let len = Array.length batch in
  (* per-view known operands and per-(view, label) columns *)
  let kvs =
    Array.of_list
      (List.map (fun m -> Array.init len (fun r -> buffer_known b m (base + r))) b.muls)
  in
  let nviews = Array.length kvs in
  let col vi lbl =
    let off = (vi * Leakage.events_per_mul) + Recover.sample lbl in
    Array.init len (fun r -> b.rows.{base + r, off})
  in
  List.iter
    (fun d ->
      Dema.Sweep.fold ~jobs:1 d.sweep
        (Array.concat
           (List.map
              (fun lbl -> Array.init nviews (fun vi -> (col vi lbl, kvs.(vi))))
              d.labels)))
    decisions

(* The unit separates only when BOTH halves do: report the weaker
   sweep's leaders, so the tester's one-sided gap test certifies the
   minimum of the two standardised gaps. *)
let unit_leaders ~low ~high () =
  let ll = Dema.Sweep.leaders ~jobs:1 low.sweep in
  let lh = Dema.Sweep.leaders ~jobs:1 high.sweep in
  let n = Dema.Sweep.n low.sweep in
  let z (l : Sequential.Campaign.leaders) =
    Stats.Signif.corr_gap_z ~n ~r1:l.best ~r2:l.runner_up
  in
  if z ll <= z lh then ll else lh

let campaign_unit ~backend ~stages:(low_stage, high_stage) strategy t b =
  let coeff, component = unit_of t in
  match Recover.candidate_sets (strategy ~coeff ~mul:(mul_of component)) with
  | Recover.Streamed _ ->
      invalid_arg
        "Fullkey: ?stop requires a sampled strategy — the exhaustive 2^25 \
         hypothesis space cannot be re-scored at every look"
  | Recover.Held (low_cands, high_cands) ->
      let low = decision ~backend b low_stage low_cands in
      let high = decision ~backend b high_stage high_cands in
      {
        Sequential.Campaign.fold = unit_fold b [ low; high ];
        leaders = unit_leaders ~low ~high;
      }

let recover_f_fft_store ?(ctx = Ctx.default) ?stop ?max_traces ?stop_report ~reader
    strategy =
  let obs = ctx.Ctx.obs in
  let n = (Tracestore.Reader.meta reader).Tracestore.n in
  Obs.span obs "fullkey.recover_f_fft_store"
    ~fields:
      [
        ("n", Obs.Int n);
        ("jobs", Obs.Int ctx.Ctx.jobs);
        ("adaptive", Obs.Bool (stop <> None));
      ]
  @@ fun () ->
  (* the adaptive plan — spec and unit part sets — checked before the
     pass starts *)
  let adaptive =
    match stop with
    | None -> None
    | Some spec ->
        let stages =
          match Recover.decision_stages ctx.Ctx.leakage with
          | Some stages -> stages
          | None ->
              invalid_arg
                "Fullkey: ?stop is not available under `Hd leakage — the \
                 streaming decision sweeps have no d-free Hamming-distance part \
                 set"
        in
        if Distinguisher.is_profiled ctx.Ctx.backend then
          invalid_arg
            "Fullkey: ?stop is not available under the profiled distinguisher — \
             the sequential gap testers are correlation statistics";
        Some (spec, stages)
  in
  let bufs =
    Obs.span obs "fullkey.store_pass" @@ fun () ->
    let fd = Dema.Stream.shard_feed ~ctx ?max_traces reader in
    Fun.protect ~finally:fd.Dema.Stream.close @@ fun () ->
    let total = fd.Dema.Stream.total in
    let bufs = Array.init (2 * n) (buffer_create ~cap:total) in
    (match adaptive with
    | None ->
        let rec loop () =
          match fd.Dema.Stream.next () with
          | None -> ()
          | Some batch ->
              Array.iter (fun b -> ignore (buffer_append b batch)) bufs;
              loop ()
        in
        loop ()
    | Some (spec, stages) ->
        let units =
          Array.mapi (campaign_unit ~backend:ctx.Ctx.backend ~stages strategy) bufs
        in
        let results =
          Sequential.Campaign.run ~jobs:ctx.Ctx.jobs ~obs ~spec ~total
            ~feed:fd.Dema.Stream.next ~length:Array.length units
        in
        Option.iter
          (fun f -> f (Sequential.Campaign.summarize ~total results))
          stop_report);
    bufs
  in
  (* the unchanged per-coefficient attack on each unit's buffered
     traces; a task drops its buffer once its views are built *)
  let slots = Array.map Option.some bufs in
  fan_tasks ~ctx ~n (fun ~tctx ~coeff ~component ->
      let t = (2 * coeff) + mul_of component in
      let views = buffer_views (Option.get slots.(t)) in
      slots.(t) <- None;
      Recover.coefficient ~ctx:tctx
        ~strategy:(strategy ~coeff ~mul:(mul_of component))
        views)

let recover_key_store ?ctx ?stop ?max_traces ?stop_report ~reader ~h strategy =
  let n = Array.length h in
  let store_n = (Tracestore.Reader.meta reader).Tracestore.n in
  if store_n <> n then
    failwith
      (Printf.sprintf
         "Fullkey.recover_key_store: store holds FALCON-%d traces but the public key \
          is FALCON-%d"
         store_n n);
  let f_fft =
    recover_f_fft_store ?ctx ?stop ?max_traces ?stop_report ~reader strategy
  in
  let f = Fft.round_to_int (Fft.ifft f_fft) in
  let keypair = Ntru.Ntrugen.recover_from_f ~n ~f ~h in
  { f_fft; f; keypair }

let count_correct recovered ~truth =
  let n = Fft.length recovered in
  assert (Fft.length truth = n);
  let ok = ref 0 in
  for k = 0 to n - 1 do
    if Fpr.equal recovered.Fft.re.(k) truth.Fft.re.(k) then incr ok;
    if Fpr.equal recovered.Fft.im.(k) truth.Fft.im.(k) then incr ok
  done;
  !ok

let forge ~keypair ~seed msg =
  let sk = Falcon.Scheme.secret_of_keypair keypair in
  Falcon.Scheme.sign ~rng:(Prng.of_seed seed) sk msg
