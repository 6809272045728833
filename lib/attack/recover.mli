(** Per-coefficient key recovery: the divide-and-conquer of Section III-B
    and the extend-and-prune of Section III-C.

    The unit of attack is one soft-float multiplication with a secret
    operand and a known, per-trace-varying operand.  A {!view} holds the
    16-sample leakage window of that multiplication across D traces, plus
    the known operands.  The two mantissa halves, then sign and exponent,
    are recovered separately and reassembled ({!coefficient}). *)

type view = {
  traces : float array array;  (** D x 16 window samples *)
  known : Fpr.t array;  (** known operand of each trace *)
}

val sub_view : Leakage.trace array -> coeff:int -> mul:int -> view
(** Extract the window of (coefficient, multiplication) from full signing
    traces; the known operand is the matching component of FFT(c). *)

val views_for :
  Leakage.trace array -> coeff:int -> component:[ `Re | `Im ] -> view list
(** The two windows in which the chosen secret component appears: f_re
    leaks in (c_re x f_re) and (c_im x f_re), f_im in the other two.
    Joint attacks over both windows use all available information. *)

val sample : Fpr.label -> int
(** Sample index of a multiplication event inside a window. *)

(** {1 Leakage models (predicted intermediates)} *)

val m_sign : int -> Fpr.t -> int
val m_exp : int -> Fpr.t -> int
val m_w00 : int -> Fpr.t -> int
(** guess = D (secret low 25 bits); predicted D x B. *)

val m_w10 : int -> Fpr.t -> int
(** guess = D; predicted D x A. *)

val m_z1a : int -> Fpr.t -> int
(** guess = D; predicted (DB >> 25) + (DA mod 2^25). *)

(** {2 Hamming-distance forms}

    Matched models for bus-HD leakage ({!Leakage.Register_file.bus}: one
    shared write-back register, so sample j leaks
    [HW(v_(j-1) lxor v_j)]).  Each is the XOR of the two values
    co-resident on the bus at that sample; the models stay exact, so the
    HD attack keeps the full correlation of the HW one.  The component
    attacks below select them from [ctx.Ctx.leakage] through the stage
    lists ({!low_stages}, {!high_stages}). *)

type leakage = [ `Hw | `Hd ]
(** Which device model the hypothesis models are matched against:
    the idealized Hamming-weight probe (the default, matching
    [Leakage.default_emitter]) or bus Hamming-distance
    ([Leakage.hd_emitter]).  Every component attack reads it from
    [ctx.Ctx.leakage] ([`Hw] by default). *)

val hd_w10 : int -> Fpr.t -> int
(** guess = D; predicted (D x B) xor (D x A) — the w10-sample bus
    transition. *)

(** {2 Split forms}

    Models as {!Hypothesis.Model.Split} values: the known operand is
    digested once per sweep ([prep]) and the candidate loop runs on
    plain ints ([eval]) inside the fused Pearson kernel.  For every
    model, [eval g (prep y) = m_* g y] exactly (integer arithmetic), so
    rankings are bit-identical to the plain functions on either
    backend.  The low-half HW models are exported for hand-built part
    lists; every other split model (high half, bus-HD) reaches callers
    only through the stage lists below. *)

val p_w00 : Fpr.t Hypothesis.Model.t
val p_w10 : Fpr.t Hypothesis.Model.t
val p_z1a : Fpr.t Hypothesis.Model.t

(** {2 Stage part sets}

    The (event label, split model) lists each mantissa phase correlates
    against, per leakage family — the single source of those lists: the
    fixed per-coefficient attacks, the adaptive units of
    {!Fullkey.recover_f_fft_store} (through {!decision_stages}), the
    {!Target} enumerator and [Assess.Metrics] all build their part lists
    from them.  First component: the extend stage; second: the prune
    stage. *)

type stage = (Fpr.label * Fpr.t Hypothesis.Model.t) list

val low_stages : leakage -> stage * stage
(** Low 25-bit phase.  [`Hw]: extend on w00+w10, prune on z1a; [`Hd]:
    the w00 transition needs the secret high word and drops out, so
    extend on the w10 transition, prune on the z1a transition. *)

val high_stages : d:int -> leakage -> stage * stage
(** High 28-bit phase given the recovered low half [d]: extend on
    w01+w11, prune on z1+zhigh (transitions thereof under [`Hd]). *)

val mantissa_low_width : int
(** 25 — the guess width of the low phase ({!low_stages} candidates). *)

val mantissa_high_width : int
(** 28 — the guess width of the high phase (top bit fixed to 1). *)

val decision_stages : leakage -> (stage * stage) option
(** The d-free part sets an adaptive (early-stopping) unit decides each
    mantissa half on, re-scored at every look before the low half is
    known: for the low half the whole {!low_stages} plan (extend @
    prune — z1a is what breaks the exact shift-alias ties of w00/w10),
    for the high half the extend stage of {!high_stages} (w01 + w11,
    whose candidate range excludes shift aliases).  [None] under [`Hd]:
    every usable high-half bus transition takes the recovered d, so
    there is no d-free high part set — the one place that restriction
    lives. *)

(** {1 Component attacks} *)

val attack_sign : view -> int * float
(** Recovered sign bit and its correlation at the sign sample (the
    correct guess correlates positively). *)

val attack_sign_exponent :
  ?ctx:Ctx.t ->
  ?exp_candidates:int Seq.t ->
  mant:int ->
  view ->
  int * int * Dema.scored list
(** Single-window variant of {!sign_exponent_multi}. *)

val sign_exponent_multi :
  ?ctx:Ctx.t ->
  ?exp_candidates:int Seq.t ->
  mant:int ->
  view list ->
  int * int * Dema.scored list
(** Joint recovery of (sign, biased exponent) with the calibrated
    absolute-level distinguisher over the exponent register, the sign XOR
    and the result's high-word store, given the recovered mantissa (the
    divide-and-conquer recovers the mantissa first).  Needs far fewer
    traces for the sign bit than the plain differential {!attack_sign}
    (which follows the paper's Fig. 4(a) method).  Exponent hypotheses
    that differ by multiples of 64 predict per-trace-constant
    Hamming-weight shifts and are invisible to a correlation
    distinguisher; the default exponent window [992, 1056) applies the
    coefficient-magnitude prior 2^-31 <= |FFT(f)_k| < 2^33, which
    contains exactly one member of each tie class. *)


type mantissa_result = {
  winner : int;
  extend : Dema.scored list;  (** ranking after the multiplication phase *)
  pruned : Dema.scored list;  (** re-ranking on the intermediate addition *)
}

val mantissa_low_multi :
  ?ctx:Ctx.t ->
  ?top:int ->
  candidates:int Seq.t ->
  view list ->
  mantissa_result

val attack_mantissa_low :
  ?ctx:Ctx.t ->
  ?top:int ->
  candidates:int Seq.t ->
  view ->
  mantissa_result
(** Extend on the partial products D x B and D x A, prune on the
    intermediate addition z1a.  Candidates are 25-bit values.  Under
    [`Hd] leakage the stage swaps to the matched bus-transition models
    (extend on the w10 transition, prune on the z1a transition). *)

val attack_mantissa_low_naive :
  ?ctx:Ctx.t ->
  ?top:int ->
  candidates:int Seq.t ->
  view ->
  Dema.scored list
(** The straight differential attack on the multiplication only — the
    baseline whose exact-tie false positives motivate the paper. *)

val mantissa_high_multi :
  ?ctx:Ctx.t ->
  ?top:int ->
  candidates:int Seq.t ->
  d:int ->
  view list ->
  mantissa_result

val attack_mantissa_high :
  ?ctx:Ctx.t ->
  ?top:int ->
  candidates:int Seq.t ->
  d:int ->
  view ->
  mantissa_result
(** Same for the high 28 bits (top bit fixed to 1), pruning on the
    high-word accumulation, with the already-recovered low half [d]. *)

(** {1 Whole coefficient} *)

type strategy =
  | Exhaustive
      (** paper-scale enumeration: 2^25 + 2^27 hypotheses per coefficient *)
  | Eval_sampled of { rng : Stats.Rng.t; decoys : int; truth : Fpr.t }
      (** evaluation mode: truth + alias class + decoys (see DESIGN.md) *)

(** What a strategy ranks each mantissa half over — the one interpreter
    of {!strategy}, shared by {!coefficient} and the adaptive units of
    {!Fullkey.recover_f_fft_store}. *)
type candidate_sets =
  | Streamed of int Seq.t * int Seq.t
      (** (low, high) spaces too large to hold, enumerated lazily: the
          exhaustive 2^25 and 2^27 ranges *)
  | Held of int array * int array
      (** (low, high) sets held in memory, small enough to re-score at
          every look of an adaptive campaign *)

val candidate_sets : strategy -> candidate_sets
(** [Exhaustive] streams both full ranges (the high one with its top
    bit fixed).  [Eval_sampled] draws both sets from its [rng] with
    {!Hypothesis.sampled} around the truth's halves — the high set
    first, then the low set — so calling it on a fresh strategy value
    always yields the same arrays. *)

val sampled_strategy : ?seed:int -> Fft.t -> coeff:int -> mul:int -> strategy
(** [sampled_strategy ?seed f_fft] is the evaluation strategy every
    driver of this repository attacks with: [Eval_sampled] around the
    true value [f_fft.re.(coeff)] ([mul = 0]) or [f_fft.im.(coeff)]
    ([mul = 1]), with 512 decoys and a fresh rng seeded
    [seed + 7 coeff + mul] ([seed] defaults to 0).  Pure per
    (coeff, mul), so recovery with it is bit-identical at every
    [jobs]. *)

val coefficient :
  ?ctx:Ctx.t ->
  strategy:strategy ->
  view list ->
  Fpr.t
(** Run all component attacks jointly over the given windows (typically
    {!views_for}) and reassemble the 64-bit value.  [?ctx] ({!Ctx.t},
    here and on every ranking entry point above) sets the worker-domain
    count of the underlying candidate sweeps (see {!Dema}), the
    distinguisher scoring the mantissa rankings, the leakage family and
    the observability context; the output is bit-identical at every
    [jobs], under both Pearson kernels and with any sink attached. *)
