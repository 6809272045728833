(** Known-plaintext workload generation for per-coefficient experiments.

    Figure 3 and Figure 4 of the paper study a single FFT(f) coefficient;
    each measurement comes from a signing run whose hashed message c is
    public.  This module produces the matching per-trace known operands —
    genuine FFT(c) coefficient values from salted message hashes — and
    simulated leakage windows for one secret soft-float value, without
    paying for full signing runs. *)

val known_inputs :
  ?ctx:Ctx.t ->
  n:int ->
  coeff:int ->
  component:[ `Re | `Im ] ->
  count:int ->
  seed:string ->
  unit ->
  Fpr.t array
(** FFT(c) values at [coeff] for [count] random salted messages.  Each
    entry is an independent hash-and-FFT, generated across [ctx.jobs]
    worker domains (deterministically — the
    value at every index is a pure function of [seed] and the index;
    the trace simulation in {!mul_views} stays sequential: it consumes
    one shared noise-RNG stream). *)

val mul_views :
  Leakage.model -> Stats.Rng.t -> x:Fpr.t -> known:Fpr.t array -> Recover.view
(** Simulated leakage windows of the multiplication [x * known.(d)] for
    every d — one window per trace. *)

val known_input_pairs :
  ?ctx:Ctx.t ->
  n:int ->
  coeff:int ->
  count:int ->
  seed:string ->
  unit ->
  (Fpr.t * Fpr.t) array
(** Both FFT(c) components (re, im) at [coeff] for [count] random salted
    messages — in a real signing trace the secret component multiplies
    both of them (see {!Recover.views_for}). *)

val mul_view_pair :
  Leakage.model ->
  Stats.Rng.t ->
  x:Fpr.t ->
  known_pairs:(Fpr.t * Fpr.t) array ->
  Recover.view * Recover.view
(** The two leakage windows per trace in which the secret [x] appears —
    one multiplied by each component of the known pair. *)
