(** Unified execution context for the attack pipeline.

    Every tunable of an attack run — worker count, distinguisher
    selection, observability, the leakage family and the corrupt-shard
    policy — lives in one record that entry points accept as [?ctx]
    (omitted: {!default}).  [Ctx.t] is the only configuration carrier:
    no entry point takes a per-field optional beside it and no process
    state fills one in, so a run computes with exactly the context its
    caller built with {!make} or the [with_*] builders. *)

type t = {
  jobs : int;  (** worker domains for [Parallel] sweeps (>= 1) *)
  backend : Distinguisher.selection;  (** which distinguisher scores sweeps *)
  obs : Obs.t;  (** observability context; [Obs.null] by default *)
  leakage : [ `Hw | `Hd ];
      (** hypothesis-model family ([Recover.leakage]); [`Hw] by default *)
  on_corrupt : [ `Fail | `Skip ];
      (** streaming corrupt-shard policy; loud [`Fail] by default *)
}

val default : t
(** One sequential worker, [Pearson_batched], [Obs.null], [`Hw],
    [`Fail]. *)

val make :
  ?jobs:int ->
  ?distinguisher:Distinguisher.selection ->
  ?obs:Obs.t ->
  ?leakage:[ `Hw | `Hd ] ->
  ?on_corrupt:[ `Fail | `Skip ] ->
  unit ->
  t
(** {!default} with the given fields overridden.  Raises
    [Invalid_argument] if [jobs < 1]. *)

val with_jobs : int -> t -> t
val with_backend : Distinguisher.selection -> t -> t
val with_obs : Obs.t -> t -> t
val with_leakage : [ `Hw | `Hd ] -> t -> t

val sequential : t -> t
(** [with_jobs 1], for handing a context to per-task inner work that
    must not nest parallelism. *)

val kernel : t -> Stats.Pearson.Batch.backend
(** {!Distinguisher.kernel} of the selection — the Pearson kernel the
    correlation-only stages use under this context. *)
