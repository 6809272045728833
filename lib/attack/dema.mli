(** Differential EM analysis engine: the Pearson-correlation
    distinguisher of Eq. (1), in three shapes matched to the paper's
    plots and to streaming enumeration of large hypothesis spaces.

    {b Determinism.}  All rankings are selected under the strict total
    order {!compare_scored} (higher score first, exact ties broken by
    the smaller guess value), so the returned list is a pure function of
    the candidate {e multiset} — reordering the candidate sequence, or
    sweeping it in parallel chunks, yields bit-identical output.

    {b Parallelism.}  The sweeps accept [?jobs] (default
    {!Parallel.default_jobs}, i.e. 1): candidates are chunked across a
    fixed-size domain pool, each domain keeps a local top-k, and the
    partial top-ks are merged in chunk order.  Per-column trace
    statistics are computed once per sweep and shared read-only.

    {b Execution context.}  Every entry point also accepts [?ctx]
    ({!Ctx.t}), which bundles [jobs], the {!Distinguisher.selection}
    scoring the sweep and an observability context; an explicit
    [?jobs]/[?backend] argument overrides the corresponding [ctx] field
    ([?backend] is the deprecated Pearson-typed shim — see
    {!Distinguisher}).  Instrumentation is observationally transparent:
    with any sink attached the returned rankings are bit-identical to
    the uninstrumented path at every [jobs].

    {b Distinguisher dispatch.}  The two Pearson selections run the
    historical scalar / fused-batched arms byte for byte (parity is
    test-pinned).  A [Profiled] selection scores guesses by template
    log-likelihood instead of correlation: per (part, trace) the
    class-conditional scores are computed once from the
    {!Profile.store}'s points of interest, and each guess sums the
    entry of its predicted Hamming class, averaged over traces.  The
    correlation-only stages ({!rank_absolute}, {!corr_time},
    calibration) run on {!Ctx.kernel} under a profiled selection; the
    sequential testers ({!rank_until} and friends) reject it with
    [Invalid_argument]. *)

type scored = { guess : int; corr : float }

val compare_scored : scored -> scored -> int
(** Strict total order: descending score, ties by ascending guess. *)

val rank_scores :
  ?ctx:Ctx.t ->
  ?jobs:int ->
  score:(int -> float) ->
  top:int ->
  int Seq.t ->
  scored list
(** Generic deterministic top-[top] selection of [candidates] under an
    arbitrary scoring function (which must be pure and safe to call from
    any domain).  The building block of {!rank}, {!rank_absolute} and
    {!Template.rank}. *)

val rank_block_scores :
  ?ctx:Ctx.t ->
  ?jobs:int ->
  score_block:(int array -> float array) ->
  top:int ->
  int Seq.t ->
  scored list
(** Like {!rank_scores} but the scoring function receives a whole work
    chunk of candidates at once and returns their scores positionally —
    the entry point for batched (hypothesis-block) distinguishers.
    Candidates enter the top-k in chunk order, so the selection is
    bit-identical to [rank_scores] over the pointwise scores. *)

val rank :
  ?ctx:Ctx.t ->
  ?jobs:int ->
  ?backend:Stats.Pearson.Batch.backend ->
  traces:float array array ->
  parts:(int * 'k Hypothesis.Model.t) list ->
  known:'k array ->
  top:int ->
  int Seq.t ->
  scored list
(** [rank ~traces ~parts ~known ~top candidates] scores every candidate
    guess by the sum over [parts] of the absolute correlation between the
    modelled leakage [HW (model guess known.(d))] and the trace column at
    the part's sample index, streaming the candidate sequence with
    O(top) memory per domain.  Returns the [top] best, sorted by
    {!compare_scored}.  A part's {!Hypothesis.Model.t} predicts the
    integer intermediate of a trace whose known operand is [y].

    [backend] (default {!Stats.Pearson.Batch.default_backend}, i.e. the
    batched kernel unless [FD_PEARSON=scalar]) selects between the
    historical per-guess [hyp_vector]/[corr_with] loop and the fused
    kernel ({!Stats.Pearson.Batch.Fused}) that generates hypothesis
    intermediates on the fly inside register tiles — no per-guess
    vectors, no [G x D] block.  Consecutive parts sharing one model
    value (physical equality) are scored from a single generated
    stream, and {!Hypothesis.Model.Split} models additionally hoist the
    known-operand digest into a per-sweep prep table.  Both backends
    produce bit-identical scores, hence bit-identical rankings, at every
    [jobs]. *)

val rank_absolute :
  ?ctx:Ctx.t ->
  ?jobs:int ->
  ?backend:Stats.Pearson.Batch.backend ->
  traces:float array array ->
  parts:(int * 'k Hypothesis.Model.t) list ->
  known:'k array ->
  top:int ->
  alpha:float ->
  baseline:float ->
  int Seq.t ->
  scored list
(** Like {!rank} but with a calibrated absolute-level distinguisher: each
    guess is scored by the negative mean squared residual between the
    measured samples and [baseline + alpha * HW(model guess y)].  Unlike
    Pearson correlation this is {e not} invariant under constant shifts
    of the predicted Hamming weight, which is what disambiguates exponent
    hypotheses that differ by a per-trace constant (see
    {!Recover.attack_exponent}).  [alpha] and [baseline] come from
    {!Calibrate.estimate} — i.e. from the same traces, not from a
    profiling device.  [backend] dispatches like {!rank} (the batched
    arm keeps one running error per guess row, same additions in the
    same order — bit-identical scores). *)

(** {1 Sequential early-stopping sweeps}

    The adaptive campaign engine: the same distinguisher statistics,
    accumulated batch by batch, with a {!Sequential.Decision} tester
    looking at the top-1 vs runner-up correlation gap after each batch
    and stopping the sweep as soon as the leader separates at the
    requested confidence.

    {b Determinism.}  A sweep fed to exhaustion scores bit-identically
    to the fixed-budget sweeps, and at {e every intermediate look} the
    Scalar and Batched backends agree bitwise (same additions into
    per-candidate accumulators in global trace order, same finalisation
    epilogue), candidate-chunk parallelism touches disjoint state, and
    all decisions run on the owner domain — so stop points, winners and
    the returned ranking are bit-identical across [jobs], backends and
    prefetch settings. *)

(** Incremental per-candidate scoring state: a chunked sweep whose
    accumulators persist across batch folds and can be finalised at any
    look without a reset.  Used by {!rank_until} /
    {!Stream.rank_until} and by [Fullkey]'s per-coefficient decision
    sweeps. *)
module Sweep : sig
  type 'k t

  val create :
    backend:Stats.Pearson.Batch.backend ->
    parts:'k Hypothesis.Model.t list ->
    int array ->
    'k t
  (** One sweep over a fixed candidate array (at least two candidates —
      a runner-up must exist) and a list of part models.  Parts may live
      on different views, so each supplies its own known operands at
      fold time. *)

  val n : 'k t -> int
  (** Traces folded so far. *)

  val fold : ?jobs:int -> 'k t -> (float array * 'k array) array -> unit
  (** One batch: element [j] is part [j]'s (column segment, known
      operands), all of one equal length.  Raises [Invalid_argument] on
      a ragged or mis-sized batch. *)

  val scores : ?jobs:int -> 'k t -> float array
  (** Per-candidate sum over parts of |r| over everything folded so
      far, with the fixed-budget sweeps' exact epilogue. *)

  val ranking : ?jobs:int -> 'k t -> top:int -> scored list
  (** Top-[top] of {!scores} under {!compare_scored}. *)

  val leaders : ?jobs:int -> 'k t -> Sequential.Campaign.leaders
  (** Top-1 vs runner-up under {!compare_scored}, reported as mean |r|
      over parts (so the statistic lives in [0,1] like a single
      correlation — what the Fisher-z decision rules expect). *)
end

type until = {
  ranking : scored list;  (** the ranking at the stopping point *)
  stop : Sequential.Decision.stop option;
      (** [None]: the budget ran out before the leader separated *)
  n_traces : int;  (** traces actually consumed *)
  looks : int;
}

val rank_until :
  ?ctx:Ctx.t ->
  ?jobs:int ->
  ?backend:Stats.Pearson.Batch.backend ->
  spec:Sequential.Decision.spec ->
  ?batch:int ->
  traces:float array array ->
  parts:(int * 'k Hypothesis.Model.t) list ->
  known:'k array ->
  top:int ->
  int Seq.t ->
  until
(** In-memory adaptive {!rank}: traces are fed in batches of [?batch]
    (default 64) and the sweep stops as soon as the tester fires.  Fed
    to exhaustion (tester never fires) the ranking equals {!rank}'s
    bitwise.  This is how [Assess.Metrics] measures traces-to-decision
    on an experiment already held in memory. *)

(** Streaming engine over an on-disk {!Tracestore} campaign: the same
    distinguishers without ever materialising the corpus.  Shards are
    decoded on the domain pool (one shard per work unit, so peak memory
    is bounded by [jobs] decoded shards plus the extracted columns /
    accumulators) and combined in shard order.

    {b Determinism.}  Column extraction is arithmetic-free and both
    rank backends replay the in-memory sweep's additions in global trace
    order across shard segments, so {!Stream.rank} is {e bit-identical}
    to the in-memory {!rank} over the same traces, at every [jobs] and
    backend, with prefetch on or off.  {!Stream.evolution} merges
    {!Stats.Welford.Cov} accumulators in shard order (Chan's formula):
    deterministic at every [jobs], and equal to a prefix rescan up to
    floating-point reassociation (1e-9 in the property tests).

    {b Corrupt shards.}  All entry points raise [Failure] if the store's
    sample width does not match its ring size.  A shard the reader
    cannot produce — its own [`Fail] policy raised, or its [`Skip]
    policy returned [None] — is a {e data error} by default
    ([?on_corrupt] = [`Fail]): the sweep fails naming the shard index
    rather than silently analysing a shrunken campaign.  Passing
    [~on_corrupt:`Skip] drops such shards from the analysis; each drop
    is counted on the ["dema.shards_skipped"] observability counter
    (emitted only when non-zero).

    {b Prefetch.}  With [jobs = 1] and [?prefetch] [true] (the default),
    a helper domain reads and decodes shard [i+1] while shard [i] is
    being consumed, overlapping IO/decode with scoring; results are
    still consumed strictly in shard order.  With [jobs > 1] the domain
    pool already overlaps shards and the flag is ignored. *)
module Stream : sig
  (** How the stream turns a store's records back into traces.  The
      [check] half validates the store's meta (ring size vs sample
      width) before any shard is read; the [decode] half rebuilds one
      trace.  Both run on worker domains and must be pure.  Every entry
      point defaults to {!falcon_codec}, so existing callers are
      bitwise unchanged; non-FALCON {!Target}s supply their own. *)
  type codec = {
    check : Tracestore.meta -> unit;
    decode : Tracestore.meta -> Tracestore.record -> Leakage.trace;
  }

  val falcon_codec : codec
  (** The historical path: width must equal
      [n * Leakage.events_per_coeff], records decode through
      {!Leakage.of_record} (FFT(c) recomputed from salt+message). *)

  val map_shards :
    ?ctx:Ctx.t ->
    ?jobs:int ->
    ?on_corrupt:[ `Fail | `Skip ] ->
    ?prefetch:bool ->
    ?codec:codec ->
    Tracestore.Reader.t ->
    (int -> Leakage.trace array -> 'a) ->
    'a list
  (** Decode every shard into full traces on the domain pool and return
      per-shard results in shard order.  Raises [Failure] naming the
      shard on an unreadable shard unless [~on_corrupt:`Skip]. *)

  val extract :
    ?ctx:Ctx.t ->
    ?jobs:int ->
    ?on_corrupt:[ `Fail | `Skip ] ->
    ?prefetch:bool ->
    ?codec:codec ->
    Tracestore.Reader.t ->
    samples:int list ->
    known:(Leakage.trace -> 'k) ->
    float array array * 'k array
  (** One streaming pass assembling the narrow [D x |samples|] column
      matrix and the known-operand array, in global trace order. *)

  val rank :
    ?ctx:Ctx.t ->
    ?jobs:int ->
    ?backend:Stats.Pearson.Batch.backend ->
    ?on_corrupt:[ `Fail | `Skip ] ->
    ?prefetch:bool ->
    ?codec:codec ->
    Tracestore.Reader.t ->
    parts:(int * 'k Hypothesis.Model.t) list ->
    known:(Leakage.trace -> 'k) ->
    top:int ->
    int Seq.t ->
    scored list
  (** Store-backed {!rank}: part sample indices are {e absolute} trace
      sample positions (e.g. from [Leakage.sample_of]); [known] maps a
      trace to the operand fed to the part models.  The campaign is
      never concatenated: each shard contributes per-part column
      segments that both backends score in shard order with running
      accumulators, finalised against whole-campaign column moments —
      bit-identical to the in-memory {!rank} on the extracted corpus. *)

  (** Pull-based shard feed for adaptive campaigns. *)
  type feed = {
    next : unit -> Leakage.trace array option;
        (** next non-empty decoded shard in shard order, truncated at
            the cap; [None] once the campaign (or the cap) is exhausted *)
    close : unit -> unit;
        (** join any in-flight decode; call when abandoning the feed
            early (idempotent, [Fun.protect ~finally] material) *)
    total : int;  (** the capped campaign budget the feed will deliver *)
    skipped : unit -> int;  (** corrupt shards dropped so far *)
  }

  val shard_feed :
    ?obs:Obs.t ->
    ?on_corrupt:[ `Fail | `Skip ] ->
    ?prefetch:bool ->
    ?codec:codec ->
    ?max_traces:int ->
    Tracestore.Reader.t ->
    feed
  (** Decode shards strictly in shard order, one pull at a time, with
      one decode kept in flight on a helper domain when [?prefetch]
      (the default).  The delivered trace sequence is independent of
      [prefetch].  Unpulled shards are never decoded — the property
      adaptive campaigns stop early on.  Raises like {!map_shards} on
      corrupt shards under [`Fail].

      The first [close] emits the pass's counters to [?obs] (default
      {!Obs.null}) from the calling domain: [tracestore.shards] and
      [tracestore.bytes] for the shards the pass consumed,
      [tracestore.traces] for the traces it delivered, and
      [dema.shards_skipped] when corrupt shards were dropped.  A pass
      read to its end reports the whole store, as {!map_shards} does. *)

  val rank_until :
    ?ctx:Ctx.t ->
    ?jobs:int ->
    ?backend:Stats.Pearson.Batch.backend ->
    ?on_corrupt:[ `Fail | `Skip ] ->
    ?prefetch:bool ->
    ?codec:codec ->
    spec:Sequential.Decision.spec ->
    ?max_traces:int ->
    Tracestore.Reader.t ->
    parts:(int * 'k Hypothesis.Model.t) list ->
    known:(Leakage.trace -> 'k) ->
    top:int ->
    int Seq.t ->
    until
  (** Store-backed adaptive {!rank}: shards are decoded strictly in
      shard order, one at a time (with one decode kept in flight when
      [?prefetch], the default), fed to an incremental sweep, and the
      pull stops at the stopping point — unread shards are never
      decoded.  [?max_traces] caps the campaign (the budget an
      equivalent fixed run would use; also the baseline for the
      [seq.traces_saved] counter).  Batches are shard-sized, so looks
      land on shard boundaries; fed to exhaustion the ranking equals
      {!Stream.rank}'s bitwise.  Corrupt-shard policy as above
      ([`Skip] drops the shard from the campaign and counts it). *)

  val evolution :
    ?ctx:Ctx.t ->
    ?jobs:int ->
    ?on_corrupt:[ `Fail | `Skip ] ->
    ?prefetch:bool ->
    ?codec:codec ->
    Tracestore.Reader.t ->
    sample:int ->
    model:(int -> 'k -> int) ->
    known:(Leakage.trace -> 'k) ->
    guess:int ->
    (int * float) list
  (** Correlation-vs-trace-count checkpoints, one per shard boundary
      (Fig. 4 e-h at campaign scale): running accumulators instead of
      prefix rescans.  Raises [Failure] on a store holding no traces —
      an empty campaign is a data error, not an empty evolution. *)
end

val corr_time :
  ?ctx:Ctx.t ->
  ?backend:Stats.Pearson.Batch.backend ->
  traces:float array array ->
  model:(int -> 'k -> int) ->
  known:'k array ->
  guesses:int array ->
  unit ->
  float array array
(** Correlation-versus-time matrix (one row per guess) — Fig. 4 (a-d).
    [backend] selects the per-guess {!Stats.Pearson.corr_matrix} path or
    the blocked {!Stats.Pearson.Batch.corr_matrix_blocked} kernel; the
    matrices are bit-identical. *)

val evolution :
  traces:float array array ->
  sample:int ->
  model:(int -> 'k -> int) ->
  known:'k array ->
  guess:int ->
  step:int ->
  (int * float) list
(** Correlation at [sample] as a function of the trace count —
    Fig. 4 (e-h). *)

val hyp_vector : model:(int -> 'k -> int) -> known:'k array -> int -> float array
(** The modelled leakage vector (Hamming weights as floats) of one guess. *)

val backend_name : Distinguisher.selection -> string
(** {!Distinguisher.name} — kept here for the CLIs' report vocabulary. *)

val distinguisher : Distinguisher.selection -> (module Distinguisher.S)
(** The registered streaming instances behind the {!Distinguisher.S}
    seam: the Pearson selections wrap the incremental {!Sweep} (so
    scoring through the interface is bit-identical to the fixed-budget
    Pearson paths — parity-tested), and [Profiled] accumulates template
    log-likelihoods from its store's POI columns.  The Pearson instances
    require at least two guesses ({!Sweep.create}'s contract). *)
