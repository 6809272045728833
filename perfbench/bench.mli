(** The repository benchmark: three workloads over the capture → store
    → ranking → recovery → forgery pipeline, each run either untraced
    for the end-to-end metrics or traced for a per-layer breakdown.

    Layers are measured from outside: the benchmark times calls into
    each library's public functions and reads the spans and counters
    the libraries already emit through an [Obs] context in
    [Attack.Ctx]. *)

type workload =
  | Capture_store  (** FALCON-128 signer, 1000 traces captured into a fresh store *)
  | Fullkey_store  (** FALCON-32 key, forgery and verify from a 16-shard store *)
  | Fullkey_mem  (** the same recovery from the campaign held in memory *)

val workloads : (string * workload) list
(** Command-line names. *)

type spec = {
  workload : workload;
  n : int;  (** ring size *)
  traces : int;  (** campaign size *)
  shard : int;  (** traces per store shard *)
  decoys : int;  (** decoys per candidate set of the sampled strategy *)
  setups : int;  (** set-ups per run; [setup_s] is their median *)
  jobs : int;  (** worker domains of the recovery *)
}

val standard : workload -> spec
(** The sizes the benchmark measures. *)

val keygen :
  ?k:int -> spec -> seed:int -> Falcon.Scheme.secret_key * Falcon.Scheme.public_key
(** Victim key [k] (default 0) of a seed.  Set-up [k] of a run, and the
    timed operations after it, use key [k]; the traced run uses key 0. *)

type metric = { name : string; unit_ : string; value : float }

val run : spec -> seed:int -> seconds:float -> work:string -> Checks.tally -> metric list
(** Untraced run: set up [spec.setups] times and, interleaved with
    the set-ups, repeat the workload's timed operation on the latest
    set-up's inputs for about [seconds] in all (at least once),
    checking every output into the tally.  Returns the [end_to_end]
    metrics of BENCHMARK.json, in its order.  Stores go under
    [work]. *)

val traced : spec -> seed:int -> work:string -> Checks.tally -> metric list
(** Traced run: one set-up with per-call capture spans, the layer
    probes, the workload's recovery twice under a collecting [Obs] sink,
    and the in-memory recovery of the same campaign untraced and traced
    for the tracing overhead.  Returns the [per_layer] metrics of BENCHMARK.json, in
    its order.
    Layers a workload does not reach read 0: every recovery layer on
    [Capture_store], and the store counters on [Fullkey_mem]. *)

val rm_rf : string -> unit
