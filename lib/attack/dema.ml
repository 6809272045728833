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

  let to_list t = List.rev t.worst_first
end

(* Candidates per unit of work distribution.  Scoring one candidate costs
   O(parts x traces) floating-point work (tens of thousands of ops at
   realistic trace counts), so ~512 candidates amortise the chunk
   hand-off far below the noise floor while still load-balancing the
   2^25-candidate enumerations of Section III-C. *)
let sweep_chunk = 512

let rank_scores ?ctx ?jobs ~score ~top candidates =
  let c = Ctx.resolve ?ctx ?jobs () in
  Topk.to_list
    (Parallel.map_reduce_chunks ~jobs:c.Ctx.jobs ~chunk:sweep_chunk
       ~map:(fun guesses ->
         let t = Topk.create top in
         Array.iter (fun g -> Topk.add t { guess = g; corr = score g }) guesses;
         t)
       ~reduce:Topk.merge ~init:(Topk.create top) candidates)

let rank_block_scores ?ctx ?jobs ~score_block ~top candidates =
  let c = Ctx.resolve ?ctx ?jobs () in
  Topk.to_list
    (Parallel.map_reduce_chunks ~jobs:c.Ctx.jobs ~chunk:sweep_chunk
       ~map:(fun guesses ->
         let scores = score_block guesses in
         let t = Topk.create top in
         Array.iteri (fun i g -> Topk.add t { guess = g; corr = scores.(i) }) guesses;
         t)
       ~reduce:Topk.merge ~init:(Topk.create top) candidates)

let hyp_vector ~model ~known guess =
  Array.map (fun y -> float_of_int (Bitops.popcount (model guess y))) known

let backend_name = Distinguisher.name

(* The sequential gap testers are correlation statistics (Fisher-z on
   |r|); a profiled selection has no incremental form of them. *)
let pearson_kernel_exn ~what = function
  | Distinguisher.Pearson_scalar -> Stats.Pearson.Batch.Scalar
  | Distinguisher.Pearson_batched -> Stats.Pearson.Batch.Batched
  | Distinguisher.Profiled _ ->
      invalid_arg
        (Printf.sprintf
           "%s: the profiled distinguisher has no sequential gap tester; use a \
            Pearson backend"
           what)

(* Shared profiled scoring: per (part, trace) the class-conditional
   log-likelihood table is candidate-independent, so it is computed once
   and every guess just sums its predicted class's entry — the template
   analogue of hoisting column statistics out of the Pearson sweep.  The
   mean (not sum) over traces keeps scores comparable across budgets,
   like a correlation. *)
let profiled_rank_scores ~ctx ~nclass ~tables ~known ~d ~top ~tick candidates =
  let nrm = 1. /. float_of_int (max 1 d) in
  let score guess =
    tick 1;
    let acc = ref 0. in
    List.iter
      (fun (model, tbl) ->
        for i = 0 to d - 1 do
          let cls = Bitops.popcount (model guess (Array.unsafe_get known i)) in
          let cls = if cls >= nclass then nclass - 1 else cls in
          acc := !acc +. Array.unsafe_get (Array.unsafe_get tbl i) cls
        done)
      tables;
    !acc *. nrm
  in
  rank_scores ~ctx ~score ~top candidates

(* Resolved hypothesis source over one segment of known operands: a
   split model becomes a precomputed per-trace table plus its integer
   evaluator (built once per sweep, on the owning domain, shared
   read-only); a plain model becomes a closure over the segment.  Both
   feed {!Stats.Pearson.Batch.Fused} with exactly [hyp_vector]'s
   intermediates, so the choice never changes a result. *)
type seg_src =
  | Tab of int array * (int -> int -> int)
  | App of (int -> int -> int)  (* guess -> segment-local trace -> intermediate *)

let seg_src model known =
  match model with
  | Hypothesis.Model.Split (prep, eval) -> Tab (Array.map prep known, eval)
  | Hypothesis.Model.Fn f -> App (fun g i -> f g (Array.unsafe_get known i))

let seg_fold acc src ~cols ~len guesses =
  match src with
  | Tab (prepped, eval) ->
      Stats.Pearson.Batch.Fused.fold_split acc ~eval ~guesses ~prepped ~cols ~len
  | App f ->
      Stats.Pearson.Batch.Fused.fold acc
        ~gen:(fun r i -> f (Array.unsafe_get guesses r) i)
        ~cols ~len

(* Consecutive parts sharing one model value (physical equality) score
   several columns from a single generated hypothesis stream — the
   hoisted refill.  Grouping preserves part order, so the per-guess
   score accumulation stays the scalar fold's addition sequence. *)
let group_parts parts =
  let rec go = function
    | [] -> []
    | (s, m) :: rest ->
        let rec take acc = function
          | (s', m') :: tl when m' == m -> take (s' :: acc) tl
          | tl -> (List.rev acc, tl)
        in
        let same, tl = take [ s ] rest in
        (m, Array.of_list same) :: go tl
  in
  go parts

(* ---- incremental hypothesis sweep for sequential campaigns ----

   The fixed-budget sweeps above see the whole campaign at once.  The
   adaptive engine instead feeds the same additions in batches and
   finalises correlations at every decision look, which the fused
   accumulators support directly: they persist across folds and
   [Fused.corr] reads them without resetting.  A sweep that is fed the
   campaign to exhaustion therefore scores bit-identically to
   [Stream.rank] / [rank], and at every intermediate look the Scalar and
   Batched backends agree bitwise (same additions, same epilogue) — the
   substrate for stop decisions that are reproducible across [jobs] and
   backends. *)
module Sweep = struct
  type 'k t = {
    backend : Stats.Pearson.Batch.backend;
    candidates : int array;
    models : 'k Hypothesis.Model.t array;
    appls : (int -> 'k -> int) array;
    nparts : int;
    mutable n : int;
    sums : float array;  (* per part: running column sum *)
    sqs : float array;  (* per part: running column sum of squares *)
    chunks : (int * int) array;  (* (offset, len) per candidate chunk *)
    cand_chunks : int array array;
    (* scalar arm: per part x candidate running hypothesis moments *)
    sh : float array array;
    shh : float array array;
    sht : float array array;
    (* batched arm: one persistent fused accumulator per (chunk, part) *)
    accs : Stats.Pearson.Batch.Fused.t array array;
  }

  let create ~backend ~parts candidates =
    let g = Array.length candidates in
    if g < 2 then invalid_arg "Dema.Sweep.create: need at least two candidates";
    let models = Array.of_list parts in
    let nparts = Array.length models in
    if nparts = 0 then invalid_arg "Dema.Sweep.create: no parts";
    let nchunks = (g + sweep_chunk - 1) / sweep_chunk in
    let chunks =
      Array.init nchunks (fun c ->
          let off = c * sweep_chunk in
          (off, min sweep_chunk (g - off)))
    in
    let scalar = backend = Stats.Pearson.Batch.Scalar in
    {
      backend;
      candidates;
      models;
      appls = Array.map Hypothesis.Model.apply models;
      nparts;
      n = 0;
      sums = Array.make nparts 0.;
      sqs = Array.make nparts 0.;
      chunks;
      cand_chunks =
        Array.map (fun (off, len) -> Array.sub candidates off len) chunks;
      sh = (if scalar then Array.init nparts (fun _ -> Array.make g 0.) else [||]);
      shh = (if scalar then Array.init nparts (fun _ -> Array.make g 0.) else [||]);
      sht = (if scalar then Array.init nparts (fun _ -> Array.make g 0.) else [||]);
      accs =
        (if scalar then [||]
         else
           Array.map
             (fun (_, len) ->
               Array.init nparts (fun _ ->
                   Stats.Pearson.Batch.Fused.create ~rows:len ~ncols:1))
             chunks);
    }

  let n t = t.n

  (* One batch: per part, its column segment plus the known operands the
     part's model digests (parts may live on different views, hence the
     per-part known array).  Additions land per (part, candidate)
     accumulator in global trace order — chunk parallelism touches
     disjoint candidate ranges, so every [jobs] produces the same
     state. *)
  let fold ?jobs t segs =
    if Array.length segs <> t.nparts then
      invalid_arg "Dema.Sweep.fold: wrong number of part segments";
    let len = Array.length (fst segs.(0)) in
    if len > 0 then begin
      Array.iter
        (fun (col, ks) ->
          if Array.length col <> len || Array.length ks <> len then
            invalid_arg "Dema.Sweep.fold: ragged part segments")
        segs;
      for j = 0 to t.nparts - 1 do
        let col, _ = segs.(j) in
        let s = ref t.sums.(j) and ss = ref t.sqs.(j) in
        for i = 0 to len - 1 do
          let v = Array.unsafe_get col i in
          s := !s +. v;
          ss := !ss +. (v *. v)
        done;
        t.sums.(j) <- !s;
        t.sqs.(j) <- !ss
      done;
      let jobs = min (Parallel.resolve jobs) (Array.length t.chunks) in
      (match t.backend with
      | Stats.Pearson.Batch.Scalar ->
          let work c =
            let off, clen = t.chunks.(c) in
            for j = 0 to t.nparts - 1 do
              let col, ks = segs.(j) in
              let model = t.appls.(j) in
              let sh = t.sh.(j) and shh = t.shh.(j) and sht = t.sht.(j) in
              for r = off to off + clen - 1 do
                let guess = Array.unsafe_get t.candidates r in
                let a = ref (Array.unsafe_get sh r)
                and aa = ref (Array.unsafe_get shh r)
                and at = ref (Array.unsafe_get sht r) in
                for i = 0 to len - 1 do
                  let x =
                    float_of_int
                      (Bitops.popcount (model guess (Array.unsafe_get ks i)))
                  in
                  a := !a +. x;
                  aa := !aa +. (x *. x);
                  at := !at +. (x *. Array.unsafe_get col i)
                done;
                Array.unsafe_set sh r !a;
                Array.unsafe_set shh r !aa;
                Array.unsafe_set sht r !at
              done
            done
          in
          ignore
            (Parallel.map_array ~jobs work
               (Array.init (Array.length t.chunks) Fun.id))
      | Stats.Pearson.Batch.Batched ->
          (* per-part segment sources (prep tables for split models) are
             built once on the owner and shared read-only by the chunks *)
          let srcs =
            Array.mapi (fun j (_, ks) -> seg_src t.models.(j) ks) segs
          in
          let work c =
            let guesses = t.cand_chunks.(c) in
            for j = 0 to t.nparts - 1 do
              let col, _ = segs.(j) in
              seg_fold t.accs.(c).(j) srcs.(j) ~cols:[| col |] ~len guesses
            done
          in
          ignore
            (Parallel.map_array ~jobs work
               (Array.init (Array.length t.chunks) Fun.id)));
      t.n <- t.n + len
    end

  (* Finalised per-candidate scores over everything folded so far: sum
     over parts of |r|, the fixed-budget sweeps' statistic, computed
     with their exact epilogue. *)
  let scores ?jobs t =
    let g = Array.length t.candidates in
    let out = Array.make g 0. in
    if t.n > 0 then begin
      let nf = float_of_int t.n in
      let stats =
        Array.init t.nparts (fun j ->
            (t.sums.(j), t.sqs.(j) -. (t.sums.(j) *. t.sums.(j) /. nf)))
      in
      let jobs = min (Parallel.resolve jobs) (Array.length t.chunks) in
      let work c =
        let off, clen = t.chunks.(c) in
        match t.backend with
        | Stats.Pearson.Batch.Scalar ->
            for j = 0 to t.nparts - 1 do
              let sum_t, var_t = stats.(j) in
              let sh = t.sh.(j) and shh = t.shh.(j) and sht = t.sht.(j) in
              for r = off to off + clen - 1 do
                let a = Array.unsafe_get sh r in
                let vh = Array.unsafe_get shh r -. (a *. a /. nf) in
                let cov = Array.unsafe_get sht r -. (a *. sum_t /. nf) in
                let rr =
                  if vh <= 0. || var_t <= 0. then 0.
                  else cov /. sqrt (vh *. var_t)
                in
                out.(r) <- out.(r) +. Float.abs rr
              done
            done
        | Stats.Pearson.Batch.Batched ->
            for j = 0 to t.nparts - 1 do
              let sum_t, var_t = stats.(j) in
              let rs =
                Stats.Pearson.Batch.Fused.corr t.accs.(c).(j) ~index:0 ~n:t.n
                  ~sum_t ~var_t
              in
              for i = 0 to clen - 1 do
                out.(off + i) <- out.(off + i) +. Float.abs rs.(i)
              done
            done
      in
      ignore
        (Parallel.map_array ~jobs work (Array.init (Array.length t.chunks) Fun.id))
    end;
    out

  let ranking ?jobs t ~top =
    let sc = scores ?jobs t in
    let tk = Topk.create top in
    Array.iteri
      (fun i s -> Topk.add tk { guess = t.candidates.(i); corr = s })
      sc;
    Topk.to_list tk

  (* Top-1 vs runner-up under the deterministic total order, reported as
     mean |r| over parts so the statistic lives in [0, 1] like a single
     correlation — what the Fisher-z decision rules expect. *)
  let leaders ?jobs t =
    let sc = scores ?jobs t in
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

let rank ?ctx ?jobs ?backend ~traces ~parts ~known ~top candidates =
  let c = Ctx.resolve ?ctx ?jobs ?backend () in
  let obs = c.Ctx.obs in
  let d = Array.length traces in
  let nparts = List.length parts in
  let run () =
    (* Guesses are scored on worker domains; the count accumulates in a
       private Atomic and is emitted once, after the join, from the
       owning domain (the Obs determinism contract). *)
    let scored = if Obs.enabled obs then Some (Atomic.make 0) else None in
    let tick n = match scored with Some a -> ignore (Atomic.fetch_and_add a n) | None -> () in
    let result =
      match c.Ctx.backend with
      | Distinguisher.Pearson_scalar ->
          (* column statistics are a per-sweep invariant: computed once
             here, shared read-only by every guess on every domain *)
          let cols =
            List.map
              (fun (s, model) ->
                (Stats.Pearson.column_stats traces s, Hypothesis.Model.apply model))
              parts
          in
          let score guess =
            tick 1;
            List.fold_left
              (fun acc (col, model) ->
                acc
                +. Float.abs
                     (Stats.Pearson.corr_with col (hyp_vector ~model ~known guess)))
              0. cols
          in
          rank_scores ~ctx:c ~score ~top candidates
      | Distinguisher.Pearson_batched ->
          (* Fused sweep: no hypothesis block is ever materialised.  The
             per-sweep invariants — column statistics and, for split
             models, the prep table over the known operands — are built
             once under "dema.prep"; each work chunk then runs one fused
             kernel pass per part group, generating intermediates on the
             fly inside the register tiles.  Scores accumulate per guess
             in part order, exactly like the scalar fold, so every total
             is bit-identical. *)
          let groups =
            Obs.span ~level:Obs.Debug obs "dema.prep" (fun () ->
                List.map
                  (fun (m, samples) ->
                    ( seg_src m known,
                      Array.map (fun s -> Stats.Pearson.column_stats traces s) samples
                    ))
                  (group_parts parts))
          in
          let score_block guesses =
            let g = Array.length guesses in
            tick g;
            let scores = Array.make g 0. in
            List.iter
              (fun (src, stats) ->
                let acc =
                  Stats.Pearson.Batch.Fused.create ~rows:g ~ncols:(Array.length stats)
                in
                let cols = Array.map (fun cs -> cs.Stats.Pearson.col) stats in
                seg_fold acc src ~cols ~len:d guesses;
                Array.iteri
                  (fun ci cs ->
                    let rs =
                      Stats.Pearson.Batch.Fused.corr acc ~index:ci ~n:d
                        ~sum_t:cs.Stats.Pearson.sum ~var_t:cs.Stats.Pearson.var_n
                    in
                    for i = 0 to g - 1 do
                      scores.(i) <- scores.(i) +. Float.abs rs.(i)
                    done)
                  stats)
              groups;
            scores
          in
          Obs.span ~level:Obs.Debug obs "dema.score" (fun () ->
              rank_block_scores ~ctx:c ~score_block ~top candidates)
      | Distinguisher.Profiled store ->
          (* profiled arm: per-(part, trace) class-score tables computed
             once from the template store's points of interest (read
             straight off the full trace rows), then summed per guess *)
          let tables =
            Obs.span ~level:Obs.Debug obs "dema.prep" (fun () ->
                List.map
                  (fun (s, m) ->
                    let pt = Profile.point store ~sample:s in
                    ( Hypothesis.Model.apply m,
                      Array.map
                        (fun t ->
                          Profile.class_scores store pt ~get:(fun j -> t.(j)))
                        traces ))
                  parts)
          in
          Obs.span ~level:Obs.Debug obs "dema.score" (fun () ->
              profiled_rank_scores ~ctx:c ~nclass:store.Profile.nclass ~tables
                ~known ~d ~top ~tick candidates)
    in
    (match scored with
    | Some a ->
        let n = Atomic.get a in
        Obs.count obs "dema.guesses" n;
        (* one correlation = ~6 flops/trace (centre, multiply-accumulate,
           normalise amortised); a per-sweep order-of-magnitude estimate *)
        Obs.gauge obs "dema.flops_est"
          (float_of_int n *. float_of_int nparts *. 6. *. float_of_int d);
        (* fewer traces than candidates: the top of the ranking is
           dominated by chance correlations, not evidence *)
        if d < n then
          Obs.count ~level:Obs.Error
            ~fields:[ ("traces", Obs.Int d); ("guesses", Obs.Int n) ]
            obs "dema.degenerate_rank" 1
    | None -> ());
    result
  in
  if Obs.enabled obs then
    Obs.span obs "dema.rank"
      ~fields:
        [
          ("traces", Obs.Int d);
          ("parts", Obs.Int nparts);
          ("top", Obs.Int top);
          ("backend", Obs.Str (backend_name c.Ctx.backend));
          ("jobs", Obs.Int c.Ctx.jobs);
        ]
      run
  else run ()

let rank_absolute ?ctx ?jobs ?backend ~traces ~parts ~known ~top ~alpha ~baseline
    candidates =
  let c = Ctx.resolve ?ctx ?jobs ?backend () in
  let obs = c.Ctx.obs in
  let d = Array.length traces in
  let run () =
    let scored = if Obs.enabled obs then Some (Atomic.make 0) else None in
    let tick n = match scored with Some a -> ignore (Atomic.fetch_and_add a n) | None -> () in
    let result =
      (* the absolute-level distinguisher is a calibrated least-squares
         statistic, not a correlation and not profiled: a [Profiled]
         selection runs it on the scalar kernel ({!Ctx.kernel}) *)
      match Ctx.kernel c with
      | Stats.Pearson.Batch.Scalar ->
          let cols =
            List.map
              (fun (s, model) ->
                (Array.map (fun t -> t.(s)) traces, Hypothesis.Model.apply model))
              parts
          in
          let score guess =
            tick 1;
            let err = ref 0. in
            List.iter
              (fun (col, model) ->
                for i = 0 to d - 1 do
                  let pred =
                    baseline
                    +. (alpha *. float_of_int (Bitops.popcount (model guess known.(i))))
                  in
                  let r = col.(i) -. pred in
                  err := !err +. (r *. r)
                done)
              cols;
            -. !err /. float_of_int d
          in
          rank_scores ~ctx:c ~score ~top candidates
      | Stats.Pearson.Batch.Batched ->
          (* Same additions in the same (part, trace) order as the scalar
             arm, one running error per guess row — bit-identical scores;
             split models additionally skip the per-guess operand digest
             via the per-sweep prep table. *)
          let cols =
            List.map
              (fun (s, model) ->
                (Array.map (fun t -> t.(s)) traces, seg_src model known))
              parts
          in
          let score_block guesses =
            let g = Array.length guesses in
            tick g;
            let err = Array.make g 0. in
            List.iter
              (fun (col, src) ->
                let gen =
                  match src with
                  | Tab (prepped, eval) ->
                      fun gu i -> eval gu (Array.unsafe_get prepped i)
                  | App f -> f
                in
                for r = 0 to g - 1 do
                  let gu = Array.unsafe_get guesses r in
                  let e = ref (Array.unsafe_get err r) in
                  for i = 0 to d - 1 do
                    let pred =
                      baseline +. (alpha *. float_of_int (Bitops.popcount (gen gu i)))
                    in
                    let rr = Array.unsafe_get col i -. pred in
                    e := !e +. (rr *. rr)
                  done;
                  Array.unsafe_set err r !e
                done)
              cols;
            Array.map (fun e -> -. e /. float_of_int d) err
          in
          rank_block_scores ~ctx:c ~score_block ~top candidates
    in
    (match scored with
    | Some a -> Obs.count obs "dema.guesses" (Atomic.get a)
    | None -> ());
    result
  in
  Obs.span obs "dema.rank_absolute"
    ~fields:
      [
        ("traces", Obs.Int d);
        ("top", Obs.Int top);
        ("backend", Obs.Str (backend_name c.Ctx.backend));
      ]
    run

(* ---- sequential early-stopping rank ---- *)

type until = {
  ranking : scored list;
  stop : Sequential.Decision.stop option;
  n_traces : int;
  looks : int;
}

(* Single-unit campaign: one incremental sweep fed batch by batch, one
   tester looking at its leaders.  The unit's inner work (fold, score
   finalisation) parallelises over candidate chunks with the context's
   [jobs]; the campaign driver itself runs single-unit. *)
let run_until ~ctx ~spec ~total ~top ~parts ~feed candidates =
  let jobs = ctx.Ctx.jobs in
  let backend = pearson_kernel_exn ~what:"Dema.rank_until" ctx.Ctx.backend in
  let sweep = Sweep.create ~backend ~parts candidates in
  let unit_ =
    {
      Sequential.Campaign.fold = (fun segs -> Sweep.fold ~jobs sweep segs);
      leaders = (fun () -> Sweep.leaders ~jobs sweep);
    }
  in
  let results =
    Sequential.Campaign.run ~jobs:1 ~obs:ctx.Ctx.obs ~spec ~total ~feed
      ~length:(fun segs -> Array.length (snd segs.(0)))
      [| unit_ |]
  in
  let r = results.(0) in
  {
    ranking = Sweep.ranking ~jobs sweep ~top;
    stop = r.Sequential.Campaign.stop;
    n_traces = r.Sequential.Campaign.n_traces;
    looks = r.Sequential.Campaign.looks;
  }

let rank_until ?ctx ?jobs ?backend ~spec ?(batch = 64) ~traces ~parts ~known
    ~top candidates =
  let c = Ctx.resolve ?ctx ?jobs ?backend () in
  if batch < 1 then invalid_arg "Dema.rank_until: batch must be >= 1";
  let total = Array.length traces in
  let samples = Array.of_list (List.map fst parts) in
  let models = List.map snd parts in
  let pos = ref 0 in
  let feed () =
    if !pos >= total then None
    else begin
      let off = !pos in
      let len = min batch (total - off) in
      pos := off + len;
      let ks = Array.init len (fun i -> known.(off + i)) in
      Some
        (Array.map
           (fun s -> (Array.init len (fun i -> traces.(off + i).(s)), ks))
           samples)
    end
  in
  run_until ~ctx:c ~spec ~total ~top ~parts:models ~feed
    (Array.of_seq candidates)

(* ---- streaming engine over an on-disk trace store ----

   Everything below reads a Tracestore campaign one shard at a time:
   shards are decoded on the Parallel domain pool (one shard per work
   unit, so at most [jobs] decoded shards are ever live) and their
   per-shard results are combined in shard order.  Column extraction is
   arithmetic-free, so the assembled columns are byte-for-byte the ones
   the in-memory path sees and every ranking below is bit-identical to
   its in-memory counterpart at every [jobs]; the evolution path merges
   Welford/Chan accumulators in shard order, deterministic at every
   [jobs] and equal to a prefix rescan up to floating-point
   reassociation. *)
module Stream = struct
  type codec = {
    check : Tracestore.meta -> unit;
    decode : Tracestore.meta -> Tracestore.record -> Leakage.trace;
  }

  (* The historical decode path: a store of full FALCON signing traces,
     FFT(c) recomputed from the stored salt+message.  Every entry point
     defaults to it, so pre-target callers are bitwise unchanged. *)
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

  let map_shards ?ctx ?jobs ?on_corrupt ?prefetch ?(codec = falcon_codec) reader
      f =
    let c = Ctx.resolve ?ctx ?jobs () in
    let on_corrupt = Option.value on_corrupt ~default:c.Ctx.on_corrupt in
    let prefetch = Option.value prefetch ~default:c.Ctx.prefetch in
    let obs = c.Ctx.obs in
    let m = check_meta codec reader in
    let shards = Tracestore.Reader.shard_count reader in
    (* [done_] and [skipped] are private worker-side Atomics; [done_]
       feeds only the lossy progress channel and the deterministic
       shard/byte/trace/skip counters are emitted below, after the join,
       from the owning domain. *)
    let done_ = Atomic.make 0 in
    let skipped = Atomic.make 0 in
    let fetch i =
      match Tracestore.Reader.read_shard reader i with
      | Some records -> Some (Array.map (codec.decode m) records)
      | None -> (
          (* the reader's [`Skip] policy swallowed a corrupt shard; a
             silently shrunken campaign skews every downstream statistic,
             so losing it must be loud unless the caller opted in *)
          match on_corrupt with
          | `Fail ->
              failwith
                (Printf.sprintf
                   "Dema.Stream: shard %d is corrupt or unreadable; pass \
                    ~on_corrupt:`Skip to drop it from the campaign"
                   i)
          | `Skip ->
              Atomic.incr skipped;
              None)
      | exception Failure msg -> (
          match on_corrupt with
          | `Fail -> failwith msg
          | `Skip ->
              Atomic.incr skipped;
              None)
    in
    let progress () =
      if Obs.enabled obs then
        Obs.progress ~total:shards obs "shards" (1 + Atomic.fetch_and_add done_ 1)
    in
    let results =
      if c.Ctx.jobs = 1 && prefetch && shards > 1 then begin
        (* single-job pipeline: a helper domain reads and decodes shard
           i+1 while the owner runs [f] on shard i, overlapping IO with
           scoring.  Results are consumed strictly in shard order, so the
           outcome is the sequential one. *)
        let out = ref [] in
        let next = ref (Some (Domain.spawn (fun () -> fetch 0))) in
        Fun.protect
          ~finally:(fun () ->
            match !next with
            | Some dm -> ( try ignore (Domain.join dm) with _ -> ())
            | None -> ())
          (fun () ->
            for i = 0 to shards - 1 do
              let cur = Domain.join (Option.get !next) in
              next :=
                if i + 1 < shards then Some (Domain.spawn (fun () -> fetch (i + 1)))
                else None;
              (match cur with
              | Some traces -> out := f i traces :: !out
              | None -> ());
              progress ()
            done);
        List.rev !out
      end
      else
        List.filter_map Fun.id
          (Parallel.map_chunks ~jobs:c.Ctx.jobs ~chunk:1
             ~map:(fun _ chunk ->
               let i = chunk.(0) in
               let r = Option.map (f i) (fetch i) in
               progress ();
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

  let extract ?ctx ?jobs ?on_corrupt ?prefetch ?codec reader ~samples ~known =
    let c = Ctx.resolve ?ctx ?jobs () in
    let samples = Array.of_list samples in
    let pieces =
      map_shards ~ctx:c ?on_corrupt ?prefetch ?codec reader (fun _ traces ->
          ( Array.map
              (fun (t : Leakage.trace) -> Array.map (fun s -> t.samples.(s)) samples)
              traces,
            Array.map known traces ))
    in
    ( Array.concat (List.map fst pieces),
      Array.concat (List.map snd pieces) )

  (* Streaming rank never materialises the campaign: each shard yields a
     per-part column segment plus its known operands, global column
     moments come from one sequential pass over the segments in shard
     order (the very additions [column_stats] makes on the concatenated
     column), and both backends then score the segments in shard order —
     the scalar arm with running corr_with accumulators, the batched arm
     by folding each part group's Fused accumulator across segments.
     Every addition lands in the same accumulator in the same global
     trace order as the in-memory sweep, so results are bit-identical to
     [Dema.rank] on the extracted campaign at every [jobs] and backend. *)
  let rank ?ctx ?jobs ?backend ?on_corrupt ?prefetch ?codec reader ~parts ~known
      ~top candidates =
    let c = Ctx.resolve ?ctx ?jobs ?backend () in
    let obs = c.Ctx.obs in
    (* profiled arm: extract each part's template POI columns (one
       arithmetic-free streaming pass, deterministic in shard order),
       compute the per-(part, trace) class tables, then score exactly
       like the in-memory profiled [rank] — bit-identical to it over the
       same traces at every [jobs] and prefetch setting. *)
    let run_profiled store =
      let pts =
        List.map
          (fun (s, m) ->
            (Profile.point store ~sample:s, Hypothesis.Model.apply m))
          parts
      in
      let samples =
        List.concat_map (fun (pt, _) -> Array.to_list pt.Profile.abs_pois) pts
      in
      let cols, ks =
        Obs.span ~level:Obs.Debug obs "dema.stream.extract" (fun () ->
            extract ~ctx:c ?on_corrupt ?prefetch ?codec reader ~samples ~known)
      in
      let d = Array.length ks in
      let scored = if Obs.enabled obs then Some (Atomic.make 0) else None in
      let tick n =
        match scored with Some a -> ignore (Atomic.fetch_and_add a n) | None -> ()
      in
      let tables =
        Obs.span ~level:Obs.Debug obs "dema.prep" (fun () ->
            let off = ref 0 in
            List.map
              (fun (pt, model) ->
                let base = !off in
                let npoi = Array.length pt.Profile.abs_pois in
                off := base + npoi;
                let pos = Hashtbl.create npoi in
                Array.iteri
                  (fun k a -> Hashtbl.replace pos a (base + k))
                  pt.Profile.abs_pois;
                ( model,
                  Array.map
                    (fun row ->
                      Profile.class_scores store pt ~get:(fun j ->
                          row.(Hashtbl.find pos j)))
                    cols ))
              pts)
      in
      let result =
        Obs.span ~level:Obs.Debug obs "dema.score" (fun () ->
            profiled_rank_scores ~ctx:c ~nclass:store.Profile.nclass ~tables
              ~known:ks ~d ~top ~tick candidates)
      in
      (match scored with
      | Some a ->
          let n = Atomic.get a in
          Obs.count obs "dema.guesses" n;
          if d < n then
            Obs.count ~level:Obs.Error
              ~fields:[ ("traces", Obs.Int d); ("guesses", Obs.Int n) ]
              obs "dema.degenerate_rank" 1
      | None -> ());
      result
    in
    let run_pearson () =
      let samples = Array.of_list (List.map fst parts) in
      let nsamp = Array.length samples in
      let pieces =
        Obs.span ~level:Obs.Debug obs "dema.stream.extract" (fun () ->
            Array.of_list
              (map_shards ~ctx:c ?on_corrupt ?prefetch ?codec reader
                 (fun _ traces ->
                   let pd = Array.length traces in
                   ( Array.init nsamp (fun j ->
                         let s = samples.(j) in
                         Array.init pd (fun i -> traces.(i).Leakage.samples.(s))),
                     Array.map known traces ))))
      in
      let total_d = Array.fold_left (fun a (_, ks) -> a + Array.length ks) 0 pieces in
      let nf = float_of_int total_d in
      let scored = if Obs.enabled obs then Some (Atomic.make 0) else None in
      let tick n = match scored with Some a -> ignore (Atomic.fetch_and_add a n) | None -> () in
      (* whole-campaign column moments, accumulated segment by segment in
         shard order — bit-identical to [column_stats] on the
         concatenated column *)
      let stats =
        Array.init nsamp (fun j ->
            let s = ref 0. and ss = ref 0. in
            Array.iter
              (fun (cols, _) ->
                let col = cols.(j) in
                for i = 0 to Array.length col - 1 do
                  let v = Array.unsafe_get col i in
                  s := !s +. v;
                  ss := !ss +. (v *. v)
                done)
              pieces;
            (!s, !ss -. (!s *. !s /. nf)))
      in
      let result =
        match c.Ctx.backend with
        | Distinguisher.Profiled _ -> assert false (* handled by run_profiled *)
        | Distinguisher.Pearson_scalar ->
            let models =
              Array.of_list (List.map (fun (_, m) -> Hypothesis.Model.apply m) parts)
            in
            let score guess =
              tick 1;
              let acc = ref 0. in
              for j = 0 to nsamp - 1 do
                let model = models.(j) in
                let sh = ref 0. and shh = ref 0. and sht = ref 0. in
                Array.iter
                  (fun (cols, ks) ->
                    let col = cols.(j) in
                    for i = 0 to Array.length ks - 1 do
                      let x = float_of_int (Bitops.popcount (model guess ks.(i))) in
                      sh := !sh +. x;
                      shh := !shh +. (x *. x);
                      sht := !sht +. (x *. Array.unsafe_get col i)
                    done)
                  pieces;
                let sum_t, var_t = stats.(j) in
                let vh = !shh -. (!sh *. !sh /. nf) in
                let cov = !sht -. (!sh *. sum_t /. nf) in
                let r =
                  if vh <= 0. || var_t <= 0. then 0. else cov /. sqrt (vh *. var_t)
                in
                acc := !acc +. Float.abs r
              done;
              !acc
            in
            rank_scores ~ctx:c ~score ~top candidates
        | Distinguisher.Pearson_batched ->
            let groups =
              Obs.span ~level:Obs.Debug obs "dema.prep" (fun () ->
                  List.map
                    (fun (m, js) ->
                      (js, Array.map (fun (_, ks) -> seg_src m ks) pieces))
                    (group_parts (List.mapi (fun j (_, m) -> (j, m)) parts)))
            in
            let score_block guesses =
              let g = Array.length guesses in
              tick g;
              let scores = Array.make g 0. in
              List.iter
                (fun (js, srcs) ->
                  let acc =
                    Stats.Pearson.Batch.Fused.create ~rows:g ~ncols:(Array.length js)
                  in
                  Array.iteri
                    (fun pi (cols, ks) ->
                      seg_fold acc srcs.(pi)
                        ~cols:(Array.map (fun j -> cols.(j)) js)
                        ~len:(Array.length ks) guesses)
                    pieces;
                  Array.iteri
                    (fun ci j ->
                      let sum_t, var_t = stats.(j) in
                      let rs =
                        Stats.Pearson.Batch.Fused.corr acc ~index:ci ~n:total_d
                          ~sum_t ~var_t
                      in
                      for i = 0 to g - 1 do
                        scores.(i) <- scores.(i) +. Float.abs rs.(i)
                      done)
                    js)
                groups;
              scores
            in
            Obs.span ~level:Obs.Debug obs "dema.score" (fun () ->
                rank_block_scores ~ctx:c ~score_block ~top candidates)
      in
      (match scored with
      | Some a ->
          let n = Atomic.get a in
          Obs.count obs "dema.guesses" n;
          (* degenerate rank regime: see [rank] *)
          if total_d < n then
            Obs.count ~level:Obs.Error
              ~fields:[ ("traces", Obs.Int total_d); ("guesses", Obs.Int n) ]
              obs "dema.degenerate_rank" 1
      | None -> ());
      result
    in
    let run () =
      match c.Ctx.backend with
      | Distinguisher.Profiled store -> run_profiled store
      | Distinguisher.Pearson_scalar | Distinguisher.Pearson_batched ->
          run_pearson ()
    in
    Obs.span obs "dema.stream.rank"
      ~fields:
        [
          ("shards", Obs.Int (Tracestore.Reader.shard_count reader));
          ("backend", Obs.Str (backend_name c.Ctx.backend));
        ]
      run

  (* Pull-based shard feed for adaptive campaigns: decoded strictly in
     shard order, one at a time, with one decode kept in flight on a
     helper domain when [prefetch] — the caller consumes at its own
     pace and simply stops pulling at the stopping point, so unread
     shards are never decoded.  The delivered trace sequence (order,
     skips, truncation at the cap) is independent of [prefetch]. *)
  type feed = {
    next : unit -> Leakage.trace array option;
    close : unit -> unit;
    total : int;
    skipped : unit -> int;
  }

  let shard_feed ?(obs = Obs.null) ?(on_corrupt = `Fail) ?(prefetch = true)
      ?(codec = falcon_codec) ?max_traces reader =
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
    let fetch i =
      match Tracestore.Reader.read_shard reader i with
      | Some records -> Some (Array.map (codec.decode m) records)
      | None -> (
          match on_corrupt with
          | `Fail ->
              failwith
                (Printf.sprintf
                   "Dema.Stream: shard %d is corrupt or unreadable; pass \
                    ~on_corrupt:`Skip to drop it from the campaign"
                   i)
          | `Skip -> None)
      | exception Failure msg -> (
          match on_corrupt with `Fail -> failwith msg | `Skip -> None)
    in
    let idx = ref 0 in
    let pending = ref None in
    let take () =
      let cur =
        match !pending with
        | Some d ->
            pending := None;
            Domain.join d
        | None -> fetch !idx
      in
      incr idx;
      if prefetch && !idx < shards then begin
        let i = !idx in
        pending := Some (Domain.spawn (fun () -> fetch i))
      end;
      (match cur with None -> incr skipped | Some _ -> ());
      cur
    in
    let delivered = ref 0 in
    let rec next () =
      if !delivered >= cap || !idx >= shards then None
      else
        match take () with
        | None -> next ()
        | Some tr ->
            let room = cap - !delivered in
            let tr =
              if Array.length tr > room then Array.sub tr 0 room else tr
            in
            delivered := !delivered + Array.length tr;
            if Array.length tr = 0 then next () else Some tr
    in
    (* The pass's counters, emitted once, on the first [close], by the
       domain that owns the feed: the shards it consumed (an in-flight
       decode ahead of the stopping point does not count), their bytes,
       and the traces it delivered. *)
    let closed = ref false in
    let close () =
      (match !pending with
      | Some d ->
          pending := None;
          (try ignore (Domain.join d) with _ -> ())
      | None -> ());
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
     the same corrupt-shard policy and an optional decode-ahead domain)
     and fed to an incremental sweep; the tester looks after each shard
     per the spec's schedule and the pull stops at the stopping point.
     Fed to exhaustion it returns [rank]'s exact ranking. *)
  let rank_until ?ctx ?jobs ?backend ?on_corrupt ?prefetch ?codec ~spec
      ?max_traces reader ~parts ~known ~top candidates =
    let c = Ctx.resolve ?ctx ?jobs ?backend () in
    let obs = c.Ctx.obs in
    let fd =
      shard_feed ~obs
        ~on_corrupt:(Option.value on_corrupt ~default:c.Ctx.on_corrupt)
        ~prefetch:(Option.value prefetch ~default:c.Ctx.prefetch)
        ?codec ?max_traces reader
    in
    let samples = Array.of_list (List.map fst parts) in
    let models = List.map snd parts in
    let feed () =
      match fd.next () with
      | None -> None
      | Some tr ->
          let ks = Array.map known tr in
          Some
            (Array.map
               (fun s ->
                 ( Array.map (fun (t : Leakage.trace) -> t.Leakage.samples.(s)) tr,
                   ks ))
               samples)
    in
    Fun.protect ~finally:fd.close (fun () ->
        Obs.span obs "dema.stream.rank_until"
          ~fields:
            [
              ("shards", Obs.Int (Tracestore.Reader.shard_count reader));
              ("total", Obs.Int fd.total);
              ("backend", Obs.Str (backend_name c.Ctx.backend));
              ("jobs", Obs.Int c.Ctx.jobs);
            ]
          (fun () ->
            run_until ~ctx:c ~spec ~total:fd.total ~top ~parts:models ~feed
              (Array.of_seq candidates)))

  let evolution ?ctx ?jobs ?on_corrupt ?prefetch ?codec reader ~sample ~model
      ~known ~guess =
    let c = Ctx.resolve ?ctx ?jobs () in
    if Tracestore.Reader.total_traces reader = 0 then
      failwith "Dema.Stream.evolution: store holds no traces (empty campaign)";
    (* below 4 traces the correlation (and any Fisher-z band on it) is
       pure noise — flag the degenerate campaign instead of silently
       returning it *)
    let tot = Tracestore.Reader.total_traces reader in
    if tot <= 3 then
      Obs.count ~level:Obs.Error
        ~fields:[ ("traces", Obs.Int tot) ]
        c.Ctx.obs "dema.degenerate_evolution" 1;
    let per_shard =
      map_shards ~ctx:c ?on_corrupt ?prefetch ?codec reader (fun _ traces ->
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
    List.rev checkpoints
end

let corr_time ?ctx ?backend ~traces ~model ~known ~guesses () =
  let c = Ctx.resolve ?ctx ?backend () in
  Obs.span c.Ctx.obs "dema.corr_time"
    ~fields:
      [
        ("guesses", Obs.Int (Array.length guesses));
        ("backend", Obs.Str (backend_name c.Ctx.backend));
      ]
    (fun () ->
      (* a correlation-vs-time matrix is Pearson by definition; a
         [Profiled] selection maps to the scalar kernel via {!Ctx.kernel} *)
      match Ctx.kernel c with
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

(* ---- registered distinguisher instances ----

   The {!Distinguisher.S} streaming seam, instantiated.  The two Pearson
   instances wrap the incremental {!Sweep} (whose fed-to-exhaustion
   parity with [rank] is test-pinned), so scoring through the interface
   is bit-identical to the pre-interface fixed-budget paths; the
   profiled instance accumulates template log-likelihoods per guess with
   the same class tables the [rank] arms use. *)

module Pearson_instance (K : sig
  val kernel : Stats.Pearson.Batch.backend
end) : Distinguisher.S = struct
  let name = Distinguisher.name (Distinguisher.of_pearson K.kernel)

  type 'k state = { sweep : 'k Sweep.t; needs : int list list }

  let create ~parts ~guesses =
    {
      sweep = Sweep.create ~backend:K.kernel ~parts:(List.map snd parts) guesses;
      needs = List.map (fun (s, _) -> [ s ]) parts;
    }

  let needs st = st.needs

  let fold ?jobs st batch =
    let segs =
      Array.map
        (fun (cols, ks) ->
          if Array.length cols <> 1 then
            invalid_arg
              "Dema.distinguisher: a Pearson part folds exactly one column";
          (cols.(0), ks))
        batch
    in
    Sweep.fold ?jobs st.sweep segs

  let finalize ?jobs st = Sweep.scores ?jobs st.sweep
end

module Pearson_scalar_instance = Pearson_instance (struct
  let kernel = Stats.Pearson.Batch.Scalar
end)

module Pearson_batched_instance = Pearson_instance (struct
  let kernel = Stats.Pearson.Batch.Batched
end)

module Profiled_instance (P : sig
  val store : Profile.store
end) : Distinguisher.S = struct
  let name = "profiled"

  type 'k state = {
    guesses : int array;
    parts : (Profile.template * (int -> 'k -> int)) array;
    needs : int list list;
    sll : float array array;
        (* per part x guess: summed class log-likelihood.  Keeping one
           accumulator per part means every accumulator sees its terms
           in global trace order no matter how the stream is chunked,
           so scores are bit-identical across batch splits (in-memory
           vs per-shard streaming), not just across [jobs]. *)
    mutable n : int;
  }

  let create ~parts ~guesses =
    let resolved =
      Array.of_list
        (List.map
           (fun (s, m) ->
             let pt = Profile.point P.store ~sample:s in
             (pt, Hypothesis.Model.apply m))
           parts)
    in
    {
      guesses;
      parts = Array.map (fun (pt, m) -> (pt.Profile.tpl, m)) resolved;
      needs =
        Array.to_list
          (Array.map
             (fun (pt, _) -> Array.to_list pt.Profile.abs_pois)
             resolved);
      sll =
        Array.init (List.length parts) (fun _ ->
            Array.make (Array.length guesses) 0.);
      n = 0;
    }

  let needs st = st.needs

  (* Accumulation is per-guess into disjoint slots in a fixed loop
     order, so [jobs] cannot change the result; the fold runs on the
     owner domain. *)
  let fold ?jobs st batch =
    ignore jobs;
    if Array.length batch <> Array.length st.parts then
      invalid_arg "Dema.distinguisher: wrong number of part segments";
    let nclass = P.store.Profile.nclass in
    let g = Array.length st.guesses in
    let len =
      match batch with [||] -> 0 | _ -> Array.length (snd batch.(0))
    in
    Array.iteri
      (fun j (cols, ks) ->
        let tpl, model = st.parts.(j) in
        let acc = st.sll.(j) in
        let npoi = Array.length tpl.Profile.pois in
        if Array.length cols <> npoi then
          invalid_arg
            "Dema.distinguisher: profiled part needs its template's POI columns";
        Array.iter
          (fun (col : float array) ->
            if Array.length col <> len then
              invalid_arg "Dema.distinguisher: ragged part segments")
          cols;
        if Array.length ks <> len then
          invalid_arg "Dema.distinguisher: ragged part segments";
        let x = Array.make npoi 0. in
        for i = 0 to len - 1 do
          for k = 0 to npoi - 1 do
            x.(k) <- cols.(k).(i)
          done;
          let scores = Profile.class_scores_vec P.store tpl x in
          let y = ks.(i) in
          for r = 0 to g - 1 do
            let cls = Bitops.popcount (model st.guesses.(r) y) in
            let cls = if cls >= nclass then nclass - 1 else cls in
            acc.(r) <- acc.(r) +. scores.(cls)
          done
        done)
      batch;
    st.n <- st.n + len

  let finalize ?jobs st =
    ignore jobs;
    let nrm = 1. /. float_of_int (max 1 st.n) in
    Array.init
      (Array.length st.guesses)
      (fun r ->
        let s = ref 0. in
        Array.iter (fun acc -> s := !s +. acc.(r)) st.sll;
        !s *. nrm)
end

let distinguisher : Distinguisher.selection -> (module Distinguisher.S) =
  function
  | Distinguisher.Pearson_scalar -> (module Pearson_scalar_instance)
  | Distinguisher.Pearson_batched -> (module Pearson_batched_instance)
  | Distinguisher.Profiled store ->
      (module Profiled_instance (struct
        let store = store
      end))
