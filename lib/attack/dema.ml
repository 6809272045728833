type scored = { guess : int; corr : float }

(* Strict total order on scored candidates: higher score first, equal
   scores broken by the smaller guess value.  The tie-break is what makes
   top-k selection independent of enumeration order — the paper's
   mantissa sweeps produce *exactly* tied alias classes, so without it
   the returned ranking depends on how the candidate sequence happens to
   be ordered (and chunked parallel sweeps would be nondeterministic). *)
let compare_scored a b =
  match Float.compare b.corr a.corr with
  | 0 -> compare a.guess b.guess
  | c -> c

(* Streaming top-k accumulator under {!compare_scored}, kept worst-first
   so eviction inspects the head.  Selection under a strict total order
   is a pure function of the candidate multiset: processing order,
   chunking and merge order cannot change the result. *)
module Topk = struct
  type t = { top : int; mutable size : int; mutable worst_first : scored list }

  let create top = { top; size = 0; worst_first = [] }
  let cmp_worst_first a b = compare_scored b a

  let add t s =
    if t.top > 0 then begin
      if t.size < t.top then begin
        t.worst_first <- List.merge cmp_worst_first [ s ] t.worst_first;
        t.size <- t.size + 1
      end
      else
        match t.worst_first with
        | worst :: rest when compare_scored s worst < 0 ->
            t.worst_first <- List.merge cmp_worst_first [ s ] rest
        | _ -> ()
    end

  let merge into t =
    List.iter (add into) t.worst_first;
    into

  let of_scores top guesses scores =
    let t = create top in
    Array.iteri (fun i g -> add t { guess = g; corr = scores.(i) }) guesses;
    t

  let to_list t = List.rev t.worst_first
end

(* Candidates per unit of work distribution.  Scoring one candidate costs
   O(parts x traces) floating-point work (tens of thousands of ops at
   realistic trace counts), so ~512 candidates amortise the chunk
   hand-off far below the noise floor while still load-balancing the
   2^25-candidate enumerations of Section III-C. *)
let sweep_chunk = 512

let hyp_vector ~model ~known guess =
  Array.map (fun y -> float_of_int (Bitops.popcount (model guess y))) known

(* Zero folded traces leave every statistic 0/0: fail instead of
   returning a NaN-scored ranking. *)
let check_traces ~what n =
  if n = 0 then failwith (what ^ ": no traces to score (empty campaign)")

(* ---- one implementation per distinguisher ----

   A distinguisher bound to one sweep's part set splits its work three
   ways, and every ranking entry point drives exactly these functions:

   - [segment] runs on the owning domain, once per batch of traces and
     in global trace order: it validates the batch (per part, one column
     per entry of [needs] plus the known operands, all of one length),
     advances the sweep's candidate-independent running totals (trace
     count, Pearson column moments) and returns the batch's
     candidate-independent work (split-model prep tables, profiled
     class-score tables), which every candidate chunk then reads.
   - [acc] / [fold] hold and advance the accumulators of one candidate
     chunk; a chunk's state is touched by one domain at a time, so
     chunks fold in parallel.
   - [scores] finalises a chunk against the running totals, purely.

   Every accumulator receives its additions in global trace order, so
   scores are bit-identical at every [jobs], every candidate chunking
   and every split of the traces into segments (in-memory vs per-shard
   streaming). *)
module type BOUND = sig
  type k
  type seg
  type acc

  val needs : int list list
  val traces : unit -> int
  val segment : (float array array * k array) array -> seg
  val acc : int array -> acc
  val fold : acc -> seg -> unit
  val scores : acc -> float array
end

type 'k bound = (module BOUND with type k = 'k)

let needs_of (type a) ((module B) : a bound) = B.needs

let batch_len ~widths batch =
  if Array.length batch <> Array.length widths then
    invalid_arg "Dema: wrong number of part segments";
  let len = match batch with [||] -> 0 | _ -> Array.length (snd batch.(0)) in
  Array.iteri
    (fun j (cols, ks) ->
      if Array.length cols <> widths.(j) then
        invalid_arg "Dema: a part segment does not carry the columns its part needs";
      if Array.length ks <> len || Array.exists (fun c -> Array.length c <> len) cols
      then invalid_arg "Dema: ragged part segments")
    batch;
  len

(* Whole-sweep column moments of the Pearson parts: a running sum and
   sum of squares per part, advanced segment by segment — the very
   additions [Stats.Pearson.column_stats] makes on the concatenated
   column. *)
type moments = { mutable n : int; sums : float array; sqs : float array }

let moments nparts = { n = 0; sums = Array.make nparts 0.; sqs = Array.make nparts 0. }

(* Validate a Pearson batch (one column per part) and fold its columns
   into the moments; returns the per-part (column, known) segments. *)
let moments_segment m batch =
  let nparts = Array.length m.sums in
  let len = batch_len ~widths:(Array.make nparts 1) batch in
  let segs = Array.map (fun (cols, ks) -> (cols.(0), ks)) batch in
  Array.iteri
    (fun j (col, _) ->
      let s = ref m.sums.(j) and ss = ref m.sqs.(j) in
      for i = 0 to len - 1 do
        let v = Array.unsafe_get col i in
        s := !s +. v;
        ss := !ss +. (v *. v)
      done;
      m.sums.(j) <- !s;
      m.sqs.(j) <- !ss)
    segs;
  m.n <- m.n + len;
  (segs, len)

(* (sum, n * variance) of part [j]'s column: [column_stats]'s epilogue *)
let moments_stats m j =
  let nf = float_of_int m.n in
  (m.sums.(j), m.sqs.(j) -. (m.sums.(j) *. m.sums.(j) /. nf))

let pearson_needs parts = List.map (fun (s, _) -> [ s ]) parts

(* Scalar Pearson (Eq. 1), the reference the batched kernel is pinned
   against: per (part, guess) the guess's modelled leakage over the
   segment ([hyp_vector]) feeds running hypothesis moments, finalised
   with [Stats.Pearson.corr_with]'s epilogue; a guess scores the sum
   over parts of |r|, in part order. *)
let pearson_scalar (type a) (parts : (int * a Hypothesis.Model.t) list) : a bound =
  (module struct
    type k = a
    type seg = (float array * a array) array * int
    type acc = {
      guesses : int array;
      sh : float array array;  (* per part x guess: sum of hypotheses *)
      shh : float array array;  (* ... of their squares *)
      sht : float array array;  (* ... of hypothesis x sample *)
    }

    let models = Array.of_list (List.map (fun (_, m) -> Hypothesis.Model.apply m) parts)
    let nparts = Array.length models
    let needs = pearson_needs parts
    let mom = moments nparts
    let traces () = mom.n
    let segment batch = moments_segment mom batch

    let acc guesses =
      let g = Array.length guesses in
      let zeros () = Array.init nparts (fun _ -> Array.make g 0.) in
      { guesses; sh = zeros (); shh = zeros (); sht = zeros () }

    let fold a (segs, len) =
      Array.iteri
        (fun j (col, ks) ->
          let model = models.(j) in
          let sh = a.sh.(j) and shh = a.shh.(j) and sht = a.sht.(j) in
          Array.iteri
            (fun r guess ->
              let h = hyp_vector ~model ~known:ks guess in
              let s = ref (Array.unsafe_get sh r)
              and ss = ref (Array.unsafe_get shh r)
              and st = ref (Array.unsafe_get sht r) in
              for i = 0 to len - 1 do
                let x = Array.unsafe_get h i in
                s := !s +. x;
                ss := !ss +. (x *. x);
                st := !st +. (x *. Array.unsafe_get col i)
              done;
              Array.unsafe_set sh r !s;
              Array.unsafe_set shh r !ss;
              Array.unsafe_set sht r !st)
            a.guesses)
        segs

    let scores a =
      let nf = float_of_int mom.n in
      let out = Array.make (Array.length a.guesses) 0. in
      for j = 0 to nparts - 1 do
        let sum_t, var_t = moments_stats mom j in
        let sh = a.sh.(j) and shh = a.shh.(j) and sht = a.sht.(j) in
        Array.iteri
          (fun r s ->
            let vh = shh.(r) -. (s *. s /. nf) in
            let cov = sht.(r) -. (s *. sum_t /. nf) in
            let rr = if vh <= 0. || var_t <= 0. then 0. else cov /. sqrt (vh *. var_t) in
            out.(r) <- out.(r) +. Float.abs rr)
          sh
      done;
      out
  end)

(* Resolved hypothesis source over one segment of known operands: a
   split model becomes a precomputed per-trace table plus its integer
   evaluator (built once per segment, on the owning domain, shared
   read-only); a plain model becomes a closure over the segment.  Both
   yield exactly [hyp_vector]'s intermediates, so the choice never
   changes a result. *)
type seg_src =
  | Tab of int array * (int -> int -> int)
  | App of (int -> int -> int)  (* guess -> segment-local trace -> intermediate *)

let seg_src model known =
  match model with
  | Hypothesis.Model.Split (prep, eval) -> Tab (Array.map prep known, eval)
  | Hypothesis.Model.Fn f -> App (fun g i -> f g (Array.unsafe_get known i))

(* Consecutive parts sharing one model value (physical equality) over
   shared known operands form one group, scored from a single generated
   hypothesis stream — the hoisted refill.  Grouping preserves part
   order, so the per-guess score accumulation stays the scalar fold's
   addition sequence. *)
let group_parts ~shared models =
  let rec go j acc =
    if j >= Array.length models then List.rev acc
    else
      let e = ref (j + 1) in
      while shared && !e < Array.length models && models.(!e) == models.(j) do
        incr e
      done;
      go !e (Array.init (!e - j) (fun i -> j + i) :: acc)
  in
  Array.of_list (go 0 [])

(* Fused batched Pearson: no hypothesis block is ever materialised —
   {!Stats.Pearson.Batch.Fused} generates intermediates inside register
   tiles, one accumulator per part group per chunk, split models
   reading the segment's prep table.  Same additions into the same
   per-guess accumulators as the scalar kernel, same epilogue
   ([Fused.corr]): bit-identical scores.  [shared] says every part is
   fed the same known operands, which is what makes grouping valid. *)
let pearson_fused (type a) ~shared (parts : (int * a Hypothesis.Model.t) list) : a bound =
  (module struct
    type k = a
    type seg = (seg_src * float array array) array * int
    type acc = { guesses : int array; accs : Stats.Pearson.Batch.Fused.t array }

    let models = Array.of_list (List.map snd parts)
    let groups = group_parts ~shared models
    let needs = pearson_needs parts
    let mom = moments (Array.length models)
    let traces () = mom.n

    let segment batch =
      let segs, len = moments_segment mom batch in
      ( Array.map
          (fun js ->
            ( seg_src models.(js.(0)) (snd segs.(js.(0))),
              Array.map (fun j -> fst segs.(j)) js ))
          groups,
        len )

    let acc guesses =
      let rows = Array.length guesses in
      {
        guesses;
        accs =
          Array.map
            (fun js -> Stats.Pearson.Batch.Fused.create ~rows ~ncols:(Array.length js))
            groups;
      }

    let fold a (gsegs, len) =
      Array.iteri
        (fun gi (src, cols) ->
          let acc = a.accs.(gi) in
          match src with
          | Tab (prepped, eval) ->
              Stats.Pearson.Batch.Fused.fold_split acc ~eval ~guesses:a.guesses ~prepped
                ~cols ~len
          | App f ->
              Stats.Pearson.Batch.Fused.fold acc
                ~gen:(fun r i -> f (Array.unsafe_get a.guesses r) i)
                ~cols ~len)
        gsegs

    let scores a =
      let out = Array.make (Array.length a.guesses) 0. in
      Array.iteri
        (fun gi js ->
          Array.iteri
            (fun ci j ->
              let sum_t, var_t = moments_stats mom j in
              let rs =
                Stats.Pearson.Batch.Fused.corr a.accs.(gi) ~index:ci ~n:mom.n ~sum_t
                  ~var_t
              in
              Array.iteri (fun r v -> out.(r) <- out.(r) +. Float.abs v) rs)
            js)
        groups;
      out
  end)

(* Profiled template scoring: per (part, trace) the class-conditional
   log-likelihood table is candidate-independent, so it is computed once
   per segment from the template's points of interest and every guess
   just sums its predicted class's entry.  One accumulator per (part,
   guess) keeps every sum in global trace order however the traces are
   split; the score is the sum over parts, divided by the trace count
   (a mean, so scores stay comparable across budgets like a
   correlation). *)
let profiled (type a) (store : Profile.store)
    (parts : (int * a Hypothesis.Model.t) list) : a bound =
  (module struct
    type k = a
    type seg = (float array array * a array) array * int
    type acc = { guesses : int array; sll : float array array }

    let pts =
      Array.of_list
        (List.map
           (fun (s, m) -> (Profile.point store ~sample:s, Hypothesis.Model.apply m))
           parts)

    let needs =
      Array.to_list (Array.map (fun (pt, _) -> Array.to_list pt.Profile.abs_pois) pts)

    let widths = Array.map (fun (pt, _) -> Array.length pt.Profile.abs_pois) pts
    let n = ref 0
    let traces () = !n

    let segment batch =
      let len = batch_len ~widths batch in
      n := !n + len;
      ( Array.mapi
          (fun j (cols, ks) ->
            let tpl = (fst pts.(j)).Profile.tpl in
            ( Array.init len (fun i ->
                  Profile.class_scores_vec store tpl (Array.map (fun c -> c.(i)) cols)),
              ks ))
          batch,
        len )

    let acc guesses =
      { guesses; sll = Array.map (fun _ -> Array.make (Array.length guesses) 0.) pts }

    let fold a (tabs, len) =
      let nclass = store.Profile.nclass in
      Array.iteri
        (fun j (tbl, ks) ->
          let model = snd pts.(j) and sll = a.sll.(j) in
          Array.iteri
            (fun r guess ->
              let s = ref sll.(r) in
              for i = 0 to len - 1 do
                let cls = Bitops.popcount (model guess (Array.unsafe_get ks i)) in
                let cls = if cls >= nclass then nclass - 1 else cls in
                s := !s +. Array.unsafe_get (Array.unsafe_get tbl i) cls
              done;
              sll.(r) <- !s)
            a.guesses)
        tabs

    let scores a =
      let nrm = 1. /. float_of_int (max 1 !n) in
      Array.mapi
        (fun r _ ->
          let s = ref 0. in
          Array.iter (fun acc -> s := !s +. acc.(r)) a.sll;
          !s *. nrm)
        a.guesses
  end)

(* The calibrated absolute-level distinguisher: a guess scores the
   negative mean squared residual between the samples and
   [baseline + alpha * HW(model guess y)], one running error per guess
   over (part, trace) in order.  Its entry point feeds one segment. *)
let absolute (type a) ~alpha ~baseline (parts : (int * a Hypothesis.Model.t) list) :
    a bound =
  (module struct
    type k = a
    type seg = (float array * seg_src) array * int
    type acc = { guesses : int array; err : float array }

    let models = Array.of_list (List.map snd parts)
    let needs = pearson_needs parts
    let n = ref 0
    let traces () = !n

    let segment batch =
      let len = batch_len ~widths:(Array.make (Array.length models) 1) batch in
      n := !n + len;
      (Array.mapi (fun j (cols, ks) -> (cols.(0), seg_src models.(j) ks)) batch, len)

    let acc guesses = { guesses; err = Array.make (Array.length guesses) 0. }

    let fold a (segs, len) =
      Array.iter
        (fun (col, src) ->
          let gen =
            match src with
            | Tab (prepped, eval) -> fun g i -> eval g (Array.unsafe_get prepped i)
            | App f -> f
          in
          Array.iteri
            (fun r g ->
              let e = ref (Array.unsafe_get a.err r) in
              for i = 0 to len - 1 do
                let pred =
                  baseline +. (alpha *. float_of_int (Bitops.popcount (gen g i)))
                in
                let rr = Array.unsafe_get col i -. pred in
                e := !e +. (rr *. rr)
              done;
              Array.unsafe_set a.err r !e)
            a.guesses)
        segs

    let scores a =
      let nf = float_of_int !n in
      Array.map (fun e -> -.e /. nf) a.err
  end)

let bind (type a) ~shared sel (parts : (int * a Hypothesis.Model.t) list) : a bound =
  match sel with
  | Distinguisher.Pearson_scalar -> pearson_scalar parts
  | Distinguisher.Pearson_batched -> pearson_fused ~shared parts
  | Distinguisher.Profiled store -> profiled store parts

(* One batch from row accessors: per part, its needed columns (trace
   [i], absolute sample [s] read through [get i s]) and the known
   operands [ks], shared by every part. *)
let batch_of needs ~len ~get ks =
  Array.of_list
    (List.map
       (fun cols ->
         (Array.of_list (List.map (fun s -> Array.init len (fun i -> get i s)) cols), ks))
       needs)

(* ---- the chunked top-k driver ----

   Over a whole candidate sequence: the batches are prepared once
   (["dema.prep"]), then every candidate chunk gets fresh accumulators,
   folds every prepared segment and streams its scores into a per-domain
   top-k (["dema.score"]) — O(top) memory per domain, partial top-ks
   merged in chunk order.  Guesses are counted in a private Atomic and
   emitted once, after the join, from the owning domain (the Obs
   determinism contract).  Returns the ranking and the guess count. *)
let drive (type a) ~ctx ~what ((module B) : a bound) ~top batches candidates =
  let obs = ctx.Ctx.obs in
  let segs =
    Obs.span ~level:Obs.Debug obs "dema.prep" (fun () -> List.map B.segment batches)
  in
  let d = B.traces () in
  check_traces ~what d;
  let scored = Atomic.make 0 in
  let result =
    Obs.span ~level:Obs.Debug obs "dema.score" (fun () ->
        Topk.to_list
          (Parallel.map_reduce_chunks ~jobs:ctx.Ctx.jobs ~chunk:sweep_chunk
             ~map:(fun guesses ->
               ignore (Atomic.fetch_and_add scored (Array.length guesses));
               let a = B.acc guesses in
               List.iter (B.fold a) segs;
               Topk.of_scores top guesses (B.scores a))
             ~reduce:Topk.merge ~init:(Topk.create top) candidates))
  in
  let n = Atomic.get scored in
  Obs.count obs "dema.guesses" n;
  (* fewer traces than candidates: the top of the ranking is dominated
     by chance correlations, not evidence *)
  if d < n then
    Obs.count ~level:Obs.Error
      ~fields:[ ("traces", Obs.Int d); ("guesses", Obs.Int n) ]
      obs "dema.degenerate_rank" 1;
  (result, n)

(* The same driver with persistent accumulators: a fixed candidate array
   split into [sweep_chunk] chunks, one accumulator per chunk kept
   across folds.  A fold prepares its batch once on the owner and folds
   every chunk (chunks touch disjoint state, so any [jobs] gives the
   same state); [scores] finalises every chunk at any look without a
   reset. *)
module Chunked = struct
  type 'k t = {
    needs : int list list;
    traces : unit -> int;
    fold : jobs:int -> (float array array * 'k array) array -> unit;
    scores : jobs:int -> float array;
  }

  let create (type a) ((module B) : a bound) guesses : a t =
    let g = Array.length guesses in
    let accs =
      Array.init ((g + sweep_chunk - 1) / sweep_chunk) (fun c ->
          let off = c * sweep_chunk in
          B.acc (Array.sub guesses off (min sweep_chunk (g - off))))
    in
    let over ~jobs f = Parallel.map_array ~jobs f accs in
    {
      needs = B.needs;
      traces = B.traces;
      fold =
        (fun ~jobs batch ->
          let seg = B.segment batch in
          ignore (over ~jobs (fun a -> B.fold a seg)));
      scores =
        (fun ~jobs ->
          check_traces ~what:"Dema" (B.traces ());
          Array.concat (Array.to_list (over ~jobs B.scores)));
    }
end

let rank ?(ctx = Ctx.default) ~traces ~parts ~known ~top candidates =
  let obs = ctx.Ctx.obs in
  let d = Array.length traces in
  let nparts = List.length parts in
  let run () =
    let b = bind ~shared:true ctx.Ctx.backend parts in
    let batch = batch_of (needs_of b) ~len:d ~get:(fun i s -> traces.(i).(s)) known in
    let result, n = drive ~ctx ~what:"Dema.rank" b ~top [ batch ] candidates in
    (* one correlation = ~6 flops/trace (centre, multiply-accumulate,
       normalise amortised); a per-sweep order-of-magnitude estimate *)
    Obs.gauge obs "dema.flops_est"
      (float_of_int n *. float_of_int nparts *. 6. *. float_of_int d);
    result
  in
  if Obs.enabled obs then
    Obs.span obs "dema.rank"
      ~fields:
        [
          ("traces", Obs.Int d);
          ("parts", Obs.Int nparts);
          ("top", Obs.Int top);
          ("backend", Obs.Str (Distinguisher.name ctx.Ctx.backend));
          ("jobs", Obs.Int ctx.Ctx.jobs);
        ]
      run
  else run ()

let rank_absolute ?(ctx = Ctx.default) ~traces ~parts ~known ~top ~alpha ~baseline
    candidates =
  let d = Array.length traces in
  Obs.span ctx.Ctx.obs "dema.rank_absolute"
    ~fields:
      [
        ("traces", Obs.Int d);
        ("top", Obs.Int top);
        ("backend", Obs.Str (Distinguisher.name ctx.Ctx.backend));
      ]
    (fun () ->
      let b = absolute ~alpha ~baseline parts in
      let batch = batch_of (needs_of b) ~len:d ~get:(fun i s -> traces.(i).(s)) known in
      fst (drive ~ctx ~what:"Dema.rank_absolute" b ~top [ batch ] candidates))

(* ---- sequential early-stopping rank ---- *)

(* Incremental Pearson sweep over a fixed candidate array: the persistent
   driver, plus the ranking and leader reads the decision testers use. *)
module Sweep = struct
  type 'k t = { candidates : int array; nparts : int; st : 'k Chunked.t }

  let make b ~nparts candidates =
    if Array.length candidates < 2 then
      invalid_arg "Dema.Sweep.create: need at least two candidates";
    if nparts = 0 then invalid_arg "Dema.Sweep.create: no parts";
    { candidates; nparts; st = Chunked.create b candidates }

  (* parts may live on different views, so they are never grouped; the
     sample index of a part is its position (columns arrive per part) *)
  let create ~backend ~parts candidates =
    let parts = List.mapi (fun j m -> (j, m)) parts in
    make (bind ~shared:false backend parts) ~nparts:(List.length parts) candidates

  let n t = t.st.Chunked.traces ()

  let fold ~jobs t segs =
    t.st.Chunked.fold ~jobs (Array.map (fun (col, ks) -> ([| col |], ks)) segs)

  let scores ~jobs t = t.st.Chunked.scores ~jobs

  let ranking ~jobs t ~top =
    Topk.to_list (Topk.of_scores top t.candidates (scores ~jobs t))

  (* Top-1 vs runner-up under the deterministic total order, reported as
     mean |r| over parts so the statistic lives in [0, 1] like a single
     correlation — what the Fisher-z decision rules expect. *)
  let leaders ~jobs t =
    let sc = scores ~jobs t in
    let best = ref 0 in
    let second = ref (-1) in
    let better a b =
      compare_scored
        { guess = t.candidates.(a); corr = sc.(a) }
        { guess = t.candidates.(b); corr = sc.(b) }
      < 0
    in
    for i = 1 to Array.length sc - 1 do
      if better i !best then begin
        second := !best;
        best := i
      end
      else if !second < 0 || better i !second then second := i
    done;
    let np = float_of_int t.nparts in
    {
      Sequential.Campaign.winner = t.candidates.(!best);
      best = sc.(!best) /. np;
      runner_up = sc.(!second) /. np;
    }
end

type until = {
  ranking : scored list;
  stop : Sequential.Decision.stop option;
  n_traces : int;
  looks : int;
}

(* Single-unit campaign: one incremental sweep fed batch by batch, one
   tester looking at its leaders.  The unit's inner work (fold, score
   finalisation) parallelises over candidate chunks with the context's
   [jobs]; the campaign driver itself runs single-unit.  [feed needs]
   pulls the next batch carrying the columns [needs] lists.  The
   sequential gap testers are correlation statistics (Fisher-z on |r|),
   so a profiled selection is rejected. *)
let run_until ~ctx ~what ~spec ~total ~top ~parts ~feed candidates =
  let jobs = ctx.Ctx.jobs in
  if Distinguisher.is_profiled ctx.Ctx.backend then
    invalid_arg
      (what
     ^ ": the profiled distinguisher has no sequential gap tester; use a Pearson \
        backend");
  let b = bind ~shared:true ctx.Ctx.backend parts in
  let sweep = Sweep.make b ~nparts:(List.length parts) (Array.of_seq candidates) in
  let unit_ =
    {
      Sequential.Campaign.fold = (fun batch -> sweep.Sweep.st.Chunked.fold ~jobs batch);
      leaders = (fun () -> Sweep.leaders ~jobs sweep);
    }
  in
  let results =
    Sequential.Campaign.run ~jobs:1 ~obs:ctx.Ctx.obs ~spec ~total
      ~feed:(feed (needs_of b))
      ~length:(fun batch -> Array.length (snd batch.(0)))
      [| unit_ |]
  in
  let r = results.(0) in
  {
    ranking = Sweep.ranking ~jobs sweep ~top;
    stop = r.Sequential.Campaign.stop;
    n_traces = r.Sequential.Campaign.n_traces;
    looks = r.Sequential.Campaign.looks;
  }

let rank_until ?(ctx = Ctx.default) ~spec ?(batch = 64) ~traces ~parts ~known ~top
    candidates =
  if batch < 1 then invalid_arg "Dema.rank_until: batch must be >= 1";
  let total = Array.length traces in
  let pos = ref 0 in
  let feed needs () =
    if !pos >= total then None
    else begin
      let off = !pos in
      let len = min batch (total - off) in
      pos := off + len;
      Some
        (batch_of needs ~len
           ~get:(fun i s -> traces.(off + i).(s))
           (Array.sub known off len))
    end
  in
  run_until ~ctx ~what:"Dema.rank_until" ~spec ~total ~top ~parts ~feed candidates

(* ---- streaming engine over an on-disk trace store ----

   Everything below reads a Tracestore campaign one shard at a time:
   shards are decoded on the Parallel domain pool (one shard per work
   unit, so at most [jobs] decoded shards are ever live) and their
   per-shard results are combined in shard order.  Column extraction is
   arithmetic-free, so each shard is one segment of the same driver the
   in-memory path feeds one segment, and every ranking below is
   bit-identical to its in-memory counterpart at every [jobs]; the
   evolution path merges Welford/Chan accumulators in shard order,
   deterministic at every [jobs] and equal to a prefix rescan up to
   floating-point reassociation. *)
module Stream = struct
  type codec = {
    check : Tracestore.meta -> unit;
    decode : Tracestore.meta -> Tracestore.record -> Leakage.trace;
  }

  (* The historical decode path: a store of full FALCON signing traces,
     FFT(c) recomputed from the stored salt+message.  Every entry point
     defaults to it. *)
  let falcon_codec =
    {
      check =
        (fun m ->
          if m.Tracestore.width <> m.Tracestore.n * Leakage.events_per_coeff then
            failwith
              (Printf.sprintf
                 "Dema.Stream: store width %d does not match n = %d signing \
                  traces (want %d)"
                 m.Tracestore.width m.Tracestore.n
                 (m.Tracestore.n * Leakage.events_per_coeff)));
      decode = (fun m r -> Leakage.of_record ~n:m.Tracestore.n r);
    }

  let check_meta codec reader =
    let m = Tracestore.Reader.meta reader in
    codec.check m;
    m

  (* Read and decode shard [i]; [None] when the corrupt-shard policy
     drops it.  The reader's load is strict, so this is the one place a
     corrupt shard is forgiven.  A silently shrunken campaign skews
     every downstream statistic, so losing a shard is loud unless the
     caller opted in. *)
  let fetch ~on_corrupt ~codec m reader i =
    match Tracestore.Reader.load_shard reader i with
    | records -> Some (Array.map (codec.decode m) records)
    | exception Failure msg -> (
        match on_corrupt with `Fail -> failwith msg | `Skip -> None)

  let map_shards ~ctx ?(codec = falcon_codec) reader f =
    let obs = ctx.Ctx.obs in
    let m = check_meta codec reader in
    let shards = Tracestore.Reader.shard_count reader in
    (* [done_] and [skipped] are private worker-side Atomics; [done_]
       feeds only the lossy progress channel and the deterministic
       shard/byte/trace/skip counters are emitted below, after the join,
       from the owning domain. *)
    let done_ = Atomic.make 0 in
    let skipped = Atomic.make 0 in
    let results =
      List.filter_map Fun.id
        (Parallel.map_chunks ~jobs:ctx.Ctx.jobs ~chunk:1
           ~map:(fun _ chunk ->
             let i = chunk.(0) in
             let r =
               match fetch ~on_corrupt:ctx.Ctx.on_corrupt ~codec m reader i with
               | Some traces -> Some (f i traces)
               | None ->
                   Atomic.incr skipped;
                   None
             in
             if Obs.enabled obs then
               Obs.progress ~total:shards obs "shards" (1 + Atomic.fetch_and_add done_ 1);
             r)
           (Seq.init shards Fun.id))
    in
    if Obs.enabled obs then begin
      let bytes = ref 0 and traces = ref 0 in
      for i = 0 to shards - 1 do
        let e = Tracestore.Reader.entry reader i in
        bytes := !bytes + e.Tracestore.bytes;
        traces := !traces + e.Tracestore.count
      done;
      Obs.count obs "tracestore.shards" shards;
      Obs.count obs "tracestore.bytes" !bytes;
      Obs.count obs "tracestore.traces" !traces;
      let sk = Atomic.get skipped in
      if sk > 0 then Obs.count obs "dema.shards_skipped" sk
    end;
    results

  let extract ?(ctx = Ctx.default) ?codec reader ~samples ~known =
    let samples = Array.of_list samples in
    let pieces =
      map_shards ~ctx ?codec reader (fun _ traces ->
          ( Array.map
              (fun (t : Leakage.trace) -> Array.map (fun s -> t.samples.(s)) samples)
              traces,
            Array.map known traces ))
    in
    ( Array.concat (List.map fst pieces),
      Array.concat (List.map snd pieces) )

  (* One shard's batch: its needed columns and known operands. *)
  let shard_batch needs ~known (tr : Leakage.trace array) =
    batch_of needs ~len:(Array.length tr)
      ~get:(fun i s -> tr.(i).Leakage.samples.(s))
      (Array.map known tr)

  (* Streaming rank never materialises the campaign: each shard yields
     one segment of per-part columns, and the in-memory driver folds the
     segments in shard order — bit-identical to [Dema.rank] on the
     extracted campaign at every [jobs] and distinguisher. *)
  let rank ?(ctx = Ctx.default) ?codec reader ~parts ~known ~top candidates =
    let obs = ctx.Ctx.obs in
    Obs.span obs "dema.stream.rank"
      ~fields:
        [
          ("shards", Obs.Int (Tracestore.Reader.shard_count reader));
          ("backend", Obs.Str (Distinguisher.name ctx.Ctx.backend));
        ]
      (fun () ->
        let b = bind ~shared:true ctx.Ctx.backend parts in
        let batches =
          Obs.span ~level:Obs.Debug obs "dema.stream.extract" (fun () ->
              map_shards ~ctx ?codec reader (fun _ tr ->
                  shard_batch (needs_of b) ~known tr))
        in
        fst (drive ~ctx ~what:"Dema.Stream.rank" b ~top batches candidates))

  (* Pull-based shard feed for adaptive campaigns: decoded strictly in
     shard order, one at a time — the caller consumes at its own pace
     and simply stops pulling at the stopping point, so unread shards
     are never decoded. *)
  type feed = {
    next : unit -> Leakage.trace array option;
    close : unit -> unit;
    total : int;
    skipped : unit -> int;
  }

  let shard_feed ?(ctx = Ctx.default) ?(codec = falcon_codec) ?max_traces reader =
    let obs = ctx.Ctx.obs in
    let m = check_meta codec reader in
    let shards = Tracestore.Reader.shard_count reader in
    let cap =
      let avail = Tracestore.Reader.total_traces reader in
      match max_traces with
      | None -> avail
      | Some k ->
          if k < 1 then
            invalid_arg "Dema.Stream.shard_feed: max_traces must be >= 1";
          min k avail
    in
    let skipped = ref 0 in
    let idx = ref 0 in
    let delivered = ref 0 in
    let rec next () =
      if !delivered >= cap || !idx >= shards then None
      else begin
        let cur = fetch ~on_corrupt:ctx.Ctx.on_corrupt ~codec m reader !idx in
        incr idx;
        match cur with
        | None ->
            incr skipped;
            next ()
        | Some tr ->
            let room = cap - !delivered in
            let tr = if Array.length tr > room then Array.sub tr 0 room else tr in
            delivered := !delivered + Array.length tr;
            if Array.length tr = 0 then next () else Some tr
      end
    in
    (* The pass's counters, emitted once, on the first [close], by the
       domain that owns the feed: the shards it consumed, their bytes,
       and the traces it delivered. *)
    let closed = ref false in
    let close () =
      if not !closed then begin
        closed := true;
        if Obs.enabled obs then begin
          let bytes = ref 0 in
          for i = 0 to !idx - 1 do
            bytes := !bytes + (Tracestore.Reader.entry reader i).Tracestore.bytes
          done;
          Obs.count obs "tracestore.shards" !idx;
          Obs.count obs "tracestore.bytes" !bytes;
          Obs.count obs "tracestore.traces" !delivered;
          if !skipped > 0 then Obs.count obs "dema.shards_skipped" !skipped
        end
      end
    in
    { next; close; total = cap; skipped = (fun () -> !skipped) }

  (* Adaptive variant of [rank]: shards are decoded one at a time (with
     the same corrupt-shard policy) and fed to an incremental sweep; the
     tester looks after each shard past the spec's floor and the pull
     stops at the stopping point.  Fed to exhaustion it returns [rank]'s
     exact ranking. *)
  let rank_until ?(ctx = Ctx.default) ?codec ~spec ?max_traces reader ~parts ~known ~top
      candidates =
    let fd = shard_feed ~ctx ?codec ?max_traces reader in
    let feed needs () = Option.map (shard_batch needs ~known) (fd.next ()) in
    Fun.protect ~finally:fd.close (fun () ->
        Obs.span ctx.Ctx.obs "dema.stream.rank_until"
          ~fields:
            [
              ("shards", Obs.Int (Tracestore.Reader.shard_count reader));
              ("total", Obs.Int fd.total);
              ("backend", Obs.Str (Distinguisher.name ctx.Ctx.backend));
              ("jobs", Obs.Int ctx.Ctx.jobs);
            ]
          (fun () ->
            run_until ~ctx ~what:"Dema.Stream.rank_until" ~spec ~total:fd.total ~top
              ~parts ~feed candidates))

  let evolution ?(ctx = Ctx.default) ?codec reader ~sample ~model ~known ~guess =
    let tot = Tracestore.Reader.total_traces reader in
    check_traces ~what:"Dema.Stream.evolution" tot;
    (* below 4 traces the correlation (and any Fisher-z band on it) is
       pure noise — flag the degenerate campaign instead of silently
       returning it *)
    if tot <= 3 then
      Obs.count ~level:Obs.Error
        ~fields:[ ("traces", Obs.Int tot) ]
        ctx.Ctx.obs "dema.degenerate_evolution" 1;
    let per_shard =
      map_shards ~ctx ?codec reader (fun _ traces ->
          let acc = Stats.Welford.Cov.create () in
          Array.iter
            (fun (t : Leakage.trace) ->
              Stats.Welford.Cov.add acc
                (float_of_int (Bitops.popcount (model guess (known t))))
                t.samples.(sample))
            traces;
          acc)
    in
    let _, checkpoints =
      List.fold_left
        (fun (acc, out) shard_acc ->
          let acc = Stats.Welford.Cov.merge acc shard_acc in
          ( acc,
            (Stats.Welford.Cov.count acc, Stats.Welford.Cov.correlation acc) :: out ))
        (Stats.Welford.Cov.create (), [])
        per_shard
    in
    (* every shard dropped under [`Skip] leaves nothing to correlate *)
    check_traces ~what:"Dema.Stream.evolution"
      (match checkpoints with (n, _) :: _ -> n | [] -> 0);
    List.rev checkpoints
end

let corr_time ?(ctx = Ctx.default) ~traces ~model ~known ~guesses () =
  Obs.span ctx.Ctx.obs "dema.corr_time"
    ~fields:
      [
        ("guesses", Obs.Int (Array.length guesses));
        ("backend", Obs.Str (Distinguisher.name ctx.Ctx.backend));
      ]
    (fun () ->
      (* a correlation-vs-time matrix is Pearson by definition; a
         [Profiled] selection maps to the scalar kernel via {!Ctx.kernel} *)
      match Ctx.kernel ctx with
      | Stats.Pearson.Batch.Scalar ->
          let hyps = Array.map (hyp_vector ~model ~known) guesses in
          Stats.Pearson.corr_matrix ~traces ~hyps
      | Stats.Pearson.Batch.Batched ->
          let blk =
            Hypothesis.Block.create ~rows:(Array.length guesses)
              ~cols:(Array.length known)
          in
          let hb = Hypothesis.Block.fill blk ~model ~known guesses in
          Stats.Pearson.Batch.corr_matrix_blocked ~traces hb)

let evolution ~traces ~sample ~model ~known ~guess ~step =
  let hyp = hyp_vector ~model ~known guess in
  Stats.Pearson.evolution ~traces ~hyp ~sample ~step

(* The {!Distinguisher.S} seam over the same kernels and the persistent
   driver: driving an instance by hand scores exactly like the ranking
   entry points.  Parts folded through the seam carry their own known
   operands, so they are never grouped. *)
let distinguisher sel : (module Distinguisher.S) =
  (module struct
    let name = Distinguisher.name sel

    type 'k state = 'k Chunked.t

    let create ~parts ~guesses = Chunked.create (bind ~shared:false sel parts) guesses
    let needs st = st.Chunked.needs
    let fold ~jobs st batch = st.Chunked.fold ~jobs batch
    let finalize ~jobs st = st.Chunked.scores ~jobs
  end)
