(** Differential EM analysis engine: the Pearson-correlation
    distinguisher of Eq. (1), the profiled template distinguisher and
    the calibrated absolute-level exponent statistic, behind one chunked
    top-k driver.

    {b One implementation per distinguisher.}  Each distinguisher is
    written once, split into candidate-independent work (trace count,
    column moments, split-model prep tables, profiled class-score
    tables — computed once per segment of traces on the owning domain
    and shared read-only) and per-candidate-chunk accumulators.  Every
    entry point below drives those same functions: in-memory {!rank}
    feeds one segment, {!Stream.rank} one segment per shard, and
    {!Sweep}, {!rank_until} and {!Stream.rank_until} keep one persistent
    accumulator per candidate chunk across batches.  So the same traces
    score bit-identically through every entry point, however they are
    split into segments.

    {b Determinism.}  All rankings are selected under the strict total
    order {!compare_scored} (higher score first, exact ties broken by
    the smaller guess value), so the returned list is a pure function of
    the candidate {e multiset} — reordering the candidate sequence, or
    sweeping it in parallel chunks, yields bit-identical output.

    {b Execution context.}  Every entry point takes [?ctx] ({!Ctx.t},
    default {!Ctx.default}): [jobs] domains sweep candidate chunks (each
    keeps a local top-k; partial top-ks merge in chunk order), the
    {!Distinguisher.selection} scores the sweep, and [obs] receives the
    instrumentation — observationally transparent, the rankings are
    bit-identical with any sink attached at every [jobs].  The two
    Pearson selections produce bit-identical scores.  The
    correlation-only stages ({!rank_absolute}, {!corr_time}) run on
    {!Ctx.kernel} under a profiled selection; the sequential testers
    ({!rank_until} and friends) reject it with [Invalid_argument].

    {b Empty campaigns.}  A ranking over zero traces has no defined
    score: every ranking entry point raises [Failure] when it folded no
    trace (an empty trace array, or a store whose every shard was
    dropped under [`Skip]). *)

type scored = { guess : int; corr : float }

val compare_scored : scored -> scored -> int
(** Strict total order: descending score, ties by ascending guess. *)

val rank :
  ?ctx:Ctx.t ->
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

    The Pearson selection of [ctx] (default [Pearson_batched]) picks
    between the scalar reference loop and the fused kernel
    ({!Stats.Pearson.Batch.Fused}) that generates hypothesis
    intermediates on the fly inside register tiles — no
    per-guess vectors, no [G x D] block.  Consecutive parts sharing one
    model value (physical equality) are scored from a single generated
    stream, and {!Hypothesis.Model.Split} models additionally hoist the
    known-operand digest into a per-segment prep table.  Both produce
    bit-identical scores, hence bit-identical rankings, at every [jobs].
    A [Profiled] selection scores each guess by its mean template
    log-likelihood instead: per (part, trace) the class-conditional
    scores are computed once from the {!Profile.store}'s points of
    interest, and each guess sums the entry of its predicted Hamming
    class. *)

val rank_absolute :
  ?ctx:Ctx.t ->
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
    {!Recover.sign_exponent_multi}).  [alpha] and [baseline] come from
    {!Calibrate.estimate} — i.e. from the same traces, not from a
    profiling device.  The statistic is the same under every
    selection. *)

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
    the returned ranking are bit-identical across [jobs] and
    backends. *)

(** Incremental per-candidate scoring state: a chunked sweep whose
    accumulators persist across batch folds and can be finalised at any
    look without a reset.  Used by {!rank_until} /
    {!Stream.rank_until} and by [Fullkey]'s per-coefficient decision
    sweeps. *)
module Sweep : sig
  type 'k t

  val create :
    backend:Distinguisher.selection ->
    parts:'k Hypothesis.Model.t list ->
    int array ->
    'k t
  (** One sweep over a fixed candidate array (at least two candidates —
      a runner-up must exist) and a list of part models, scored by the
      selection as every other entry point binds it.  Parts may live on
      different views, so each supplies its own known operands at fold
      time.  {!leaders} reads correlation statistics: a caller feeding
      them to a decision tester must reject a profiled selection. *)

  val n : 'k t -> int
  (** Traces folded so far. *)

  val fold : jobs:int -> 'k t -> (float array * 'k array) array -> unit
  (** One batch: element [j] is part [j]'s (column segment, known
      operands), all of one equal length.  Raises [Invalid_argument] on
      a ragged or mis-sized batch. *)

  val scores : jobs:int -> 'k t -> float array
  (** Per-candidate sum over parts of |r| over everything folded so
      far, with the fixed-budget sweeps' exact epilogue.  Raises
      [Failure] before the first trace is folded. *)

  val ranking : jobs:int -> 'k t -> top:int -> scored list
  (** Top-[top] of {!scores} under {!compare_scored}. *)

  val leaders : jobs:int -> 'k t -> Sequential.Campaign.leaders
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

    {b Determinism.}  Column extraction is arithmetic-free and each
    shard is one segment of the driver the in-memory path feeds one
    segment, so {!Stream.rank} is {e bit-identical} to the in-memory
    {!rank} over the same traces, at every [jobs] and distinguisher.
    {!Stream.evolution} merges {!Stats.Welford.Cov} accumulators in
    shard order (Chan's formula): deterministic at every [jobs], and
    equal to a prefix rescan up to floating-point reassociation (1e-9 in
    the property tests).

    {b Corrupt shards.}  All entry points raise [Failure] if the store's
    sample width does not match its ring size.  A shard the reader
    cannot load ({!Tracestore.Reader.load_shard} raised) is a
    {e data error} by default
    ([ctx.on_corrupt] = [`Fail]): the sweep fails naming the shard index
    rather than silently analysing a shrunken campaign.  A context with
    [on_corrupt = `Skip] drops such shards from the analysis; each drop
    is counted on the ["dema.shards_skipped"] observability counter
    (emitted only when non-zero).  A campaign left with no trace fails
    like an empty one. *)
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

  val extract :
    ?ctx:Ctx.t ->
    ?codec:codec ->
    Tracestore.Reader.t ->
    samples:int list ->
    known:(Leakage.trace -> 'k) ->
    float array array * 'k array
  (** One streaming pass assembling the narrow [D x |samples|] column
      matrix and the known-operand array, in global trace order. *)

  val rank :
    ?ctx:Ctx.t ->
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
      never concatenated: each shard contributes one segment of per-part
      columns, folded in shard order into running accumulators and
      finalised against whole-campaign totals — bit-identical to the
      in-memory {!rank} on the extracted corpus, under every
      distinguisher. *)

  (** Pull-based shard feed for adaptive campaigns. *)
  type feed = {
    next : unit -> Leakage.trace array option;
        (** next non-empty decoded shard in shard order, truncated at
            the cap; [None] once the campaign (or the cap) is exhausted *)
    close : unit -> unit;
        (** end the pass and emit its counters; call when abandoning
            the feed early too (idempotent, [Fun.protect ~finally]
            material) *)
    total : int;  (** the capped campaign budget the feed will deliver *)
    skipped : unit -> int;  (** corrupt shards dropped so far *)
  }

  val shard_feed :
    ?ctx:Ctx.t -> ?codec:codec -> ?max_traces:int -> Tracestore.Reader.t -> feed
  (** Decode shards strictly in shard order, one per pull, on the
      calling domain.  Unpulled shards are never decoded — the property
      adaptive campaigns stop early on.  Corrupt shards follow
      [ctx.on_corrupt] as above.

      The first [close] emits the pass's counters to [ctx.obs] from the
      calling domain: [tracestore.shards] and [tracestore.bytes] for the
      shards the pass consumed, [tracestore.traces] for the traces it
      delivered, and [dema.shards_skipped] when corrupt shards were
      dropped.  A pass read to its end reports the whole store, as
      {!rank} does. *)

  val rank_until :
    ?ctx:Ctx.t ->
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
      shard order, one at a time, fed to an incremental sweep, and the
      pull stops at the stopping point — unread shards are never
      decoded.  [?max_traces] caps the campaign (the budget an
      equivalent fixed run would use; also the baseline for the
      [seq.traces_saved] counter).  Batches are shard-sized, so looks
      land on shard boundaries; fed to exhaustion the ranking equals
      {!Stream.rank}'s bitwise.  Corrupt-shard policy as above
      ([`Skip] drops the shard from the campaign and counts it). *)

  val evolution :
    ?ctx:Ctx.t ->
    ?codec:codec ->
    Tracestore.Reader.t ->
    sample:int ->
    model:(int -> 'k -> int) ->
    known:(Leakage.trace -> 'k) ->
    guess:int ->
    (int * float) list
  (** Correlation-vs-trace-count checkpoints, one per shard boundary
      (Fig. 4 e-h at campaign scale): running accumulators instead of
      prefix rescans.  Raises [Failure] on a campaign holding no traces
      (an empty store, or every shard dropped under [`Skip]) — an empty
      campaign is a data error, not an empty evolution. *)
end

val corr_time :
  ?ctx:Ctx.t ->
  traces:float array array ->
  model:(int -> 'k -> int) ->
  known:'k array ->
  guesses:int array ->
  unit ->
  float array array
(** Correlation-versus-time matrix (one row per guess) — Fig. 4 (a-d).
    {!Ctx.kernel} selects the per-guess {!Stats.Pearson.corr_matrix} path
    or the blocked {!Stats.Pearson.Batch.corr_matrix_blocked} kernel; the
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

val distinguisher : Distinguisher.selection -> (module Distinguisher.S)
(** The registered streaming instances behind the {!Distinguisher.S}
    seam: the same per-distinguisher code every ranking entry point
    runs, with one persistent accumulator per candidate chunk — so
    scoring through the interface is bit-identical to {!rank}
    (parity-tested).  Each part of a batch carries its own known
    operands.  [finalize] raises [Failure] before the first trace is
    folded. *)
