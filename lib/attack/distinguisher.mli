(** The scoring seam: which statistic turns traces into per-guess scores.

    A {!selection} names {e which} distinguisher scores a sweep: one of
    the two Pearson kernels of Eq. (1) ({!Stats.Pearson.Batch.backend})
    or a profiled template store.  {!Ctx.t} carries a [selection]
    ([Pearson_batched] in {!Ctx.default}); nothing else chooses one.

    {b The streaming contract} ({!S}): a distinguisher instance is
    created from a part set and a fixed guess array, declares which
    absolute trace-sample columns it needs per part ([needs]), folds
    per-part column batches in global trace order, and finalises to one
    score per guess.  Determinism is part of the contract: folding the
    same batches in the same order must yield bit-identical scores at
    every [jobs] and every batch split, which is what lets the streaming
    engine merge per-shard work in shard order.  Instances are
    registered in [Dema] ([Dema.distinguisher]); every Dema ranking
    entry point scores through the same per-distinguisher code, so an
    instance driven by hand scores exactly like [Dema.rank]. *)

type selection =
  | Pearson_scalar  (** the scalar reference correlation loop *)
  | Pearson_batched  (** the fused register-tiled Pearson kernel *)
  | Profiled of Profile.store
      (** template log-likelihood scoring against a trained
          {!Profile.store} (GALACTICS-style profiled attack) *)

val kernel : selection -> Stats.Pearson.Batch.backend
(** The Pearson kernel a selection implies for the correlation-only
    stages that have no profiled form (calibration, correlation-vs-time
    matrices, the absolute-level exponent sweep): the identity on the
    Pearson instances, [Scalar] under [Profiled]. *)

val name : selection -> string
(** ["scalar"], ["batched"] or ["profiled"] — stable CLI/report
    vocabulary. *)

val names : string list
(** The CLI vocabulary, in declaration order. *)

val is_profiled : selection -> bool

(** The streaming distinguisher interface (prep / fold / finalize). *)
module type S = sig
  val name : string

  type 'k state

  val create :
    parts:(int * 'k Hypothesis.Model.t) list -> guesses:int array -> 'k state
  (** One sweep over a fixed guess array and an ordered part set; part
      sample indices are absolute trace positions. *)

  val needs : 'k state -> int list list
  (** Per part (in [create] order), the absolute sample columns every
      {!fold} batch must supply for that part, in order.  Pearson needs
      exactly the part's own column; a profiled instance needs its
      template's points of interest. *)

  val fold : jobs:int -> 'k state -> (float array array * 'k array) array -> unit
  (** One batch: element [j] holds part [j]'s column segments (one
      [float array] per entry of [needs], all of one equal length) and
      the matching known operands.  Batches must arrive in global trace
      order; accumulation is deterministic at every [jobs].  Raises
      [Invalid_argument] on a ragged or mis-shaped batch. *)

  val finalize : jobs:int -> 'k state -> float array
  (** Per-guess scores over everything folded so far (positionally
      matching the [create] guess array).  Pure with respect to the
      state — finalising twice, or finalising mid-stream at a look,
      yields the same scores as the equivalent one-shot sweep.  Raises
      [Failure] before the first trace is folded. *)
end
