(** End-to-end attack: from EM traces of signing operations to a forged
    signature (Sections III and IV).

    Pipeline: per-coefficient divide-and-conquer recovers every value of
    FFT(f); the inverse FFT (one-to-one, Section III-A) yields the
    private element f; g = f h mod q follows from the public key; the
    NTRU equation gives (F, G); the rebuilt secret key signs arbitrary
    messages. *)

type result = {
  f_fft : Fft.t;  (** recovered FFT(f) bit patterns *)
  f : int array;  (** rounded inverse transform *)
  keypair : Ntru.Ntrugen.keypair option;
      (** full private key, when f is invertible and the NTRU solve
          succeeds — i.e. when the recovered f is the right one *)
}

val recover_f_fft :
  ?ctx:Ctx.t ->
  traces:Leakage.trace array ->
  n:int ->
  (coeff:int -> mul:int -> Recover.strategy) ->
  Fft.t
(** Attack every (coefficient, component) of FFT(f): the real part leaks
    through multiplication 0 (c_re x f_re), the imaginary part through
    multiplication 1 (c_im x f_im).

    [ctx.jobs] fans the 2n independent per-coefficient attacks out
    across a domain pool (leftover parallelism flows into the candidate
    sweeps); the recovered transform is bit-identical at every [jobs]
    provided [strategy] is pure per (coeff, mul) — e.g. builds any RNG
    it uses from a (coeff, mul)-derived seed.  [ctx.leakage] selects the
    hypothesis models the per-coefficient attacks are matched against
    (see {!Recover.leakage}).

    [?ctx] also carries the Pearson backend and an observability
    context: each task runs under a buffered child context whose events
    ("fullkey.task" spans labelled with coefficient and component, and
    everything the per-coefficient attack emits) are drained in task
    order after the join — the merged event stream is deterministic at
    every [jobs], and all results stay bit-identical with any sink. *)

val recover_key :
  ?ctx:Ctx.t ->
  traces:Leakage.trace array ->
  h:int array ->
  (coeff:int -> mul:int -> Recover.strategy) ->
  result

val recover_f_fft_store :
  ?ctx:Ctx.t ->
  ?stop:Sequential.Decision.spec ->
  ?max_traces:int ->
  ?stop_report:(Sequential.Campaign.summary -> unit) ->
  reader:Tracestore.Reader.t ->
  (coeff:int -> mul:int -> Recover.strategy) ->
  Fft.t
(** Out-of-core {!recover_f_fft} over a {!Tracestore} campaign, in a
    single streaming pass (a [fullkey.store_pass] span): each shard is
    read, CRC-checked and decoded once, and every (coefficient,
    component) unit copies its two 16-sample windows and its
    coefficient's FFT(c) pair into its own buffer.  The unchanged
    per-coefficient attacks then run on views built from those
    buffers, each dropping its buffer once its views are built.  The
    buffers are Bigarrays off the OCaml heap, sized from the store's
    trace count: O(traces x n) words, 2n x (32 + 2) per trace (34.8 MB
    at n = 32 and 2000 traces, 2.8 GB at FALCON-512 with 10k traces) —
    what the adaptive [?stop] driver buffers — plus one decoded shard
    in flight.  Bit-identical to the in-memory path over the same
    traces, at every [jobs].  [?max_traces] caps the campaign at its
    first that many traces.  The pass reads through
    {!Dema.Stream.shard_feed}: by default ([ctx.on_corrupt] = [`Fail]) a
    corrupt shard fails the whole recovery loudly; under [`Skip] the
    result is the in-memory recovery of the surviving traces.  The pass emits one
    [tracestore.shards] / [tracestore.bytes] / [tracestore.traces]
    count each.

    {b Adaptive budgets.}  With [?stop], the 2n units of the same
    single pass become live: each still-undecided (coefficient,
    component) buffers its windows from every batch and folds two
    incremental decision sweeps, one per mantissa half, on the part
    sets of {!Recover.decision_stages} (low half on [w00; w10; z1a],
    high half on [w01; w11]) over the held candidate sets
    {!Recover.candidate_sets} makes of the strategy — the same sets
    the final attack ranks; a unit stops — and is retired from all
    later batches — once the {e weaker} of its two top-1 vs runner-up
    gaps passes the sequential test, and the unchanged per-coefficient
    attack then runs on its buffered prefix.  [?stop_report] receives
    the per-unit traces-used summary.
    Stop points and the recovered transform are bit-identical across
    [jobs] and backends.  Raises [Invalid_argument] if [?stop] is
    combined with a strategy whose candidate sets are streamed rather
    than held ([Exhaustive]: the 2^25 space cannot be re-scored at
    every look), with a leakage family {!supports_stop} rejects
    ([`Hd]: every usable high-half bus transition takes the recovered
    d, so there is no d-free decision sweep) or with the profiled
    distinguisher; [?stop_report] is called only with [?stop].

    [ctx.leakage] selects the hypothesis models as in {!recover_f_fft};
    attack a bus-HD campaign ([Leakage.hd_emitter]) with
    [Ctx.with_leakage `Hd]. *)

val supports_stop : Recover.leakage -> bool
(** Whether {!recover_f_fft_store} accepts [?stop] under that leakage
    family: exactly when {!Recover.decision_stages} has a d-free part
    set for it ([`Hw] only). *)

val recover_key_store :
  ?ctx:Ctx.t ->
  ?stop:Sequential.Decision.spec ->
  ?max_traces:int ->
  ?stop_report:(Sequential.Campaign.summary -> unit) ->
  reader:Tracestore.Reader.t ->
  h:int array ->
  (coeff:int -> mul:int -> Recover.strategy) ->
  result
(** [recover_key] reading from a trace store.  Raises [Failure] if the
    store's ring size disagrees with the public key, or (by default) if
    any shard is corrupt — a context with [on_corrupt = `Skip] drops bad
    shards from the campaign instead. *)

val component_muls : [ `Re | `Im ] -> int list
(** The two multiplications a secret component leaks through: f_re in
    (c_re x f_re) and (c_im x f_re) — muls 0 and 3; f_im in muls 1 and
    2.  The view order of {!Recover.views_for} and of the streaming
    extraction. *)

val mul_known : Fpr.t * Fpr.t -> int -> Fpr.t
(** [mul_known (c_re, c_im) mul] — the known operand of a
    multiplication, given the coefficient's FFT(c) component pair. *)

val count_correct : Fft.t -> truth:Fft.t -> int
(** Number of bit-exact coefficient matches (out of 2n values). *)

val forge :
  keypair:Ntru.Ntrugen.keypair -> seed:string -> string -> Falcon.Scheme.signature
(** Sign an arbitrary message with the recovered key. *)
