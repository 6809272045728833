(** Fixed-size domain pool for embarrassingly parallel sweeps.

    Built on stock OCaml 5 [Domain]s — no external dependencies.  All
    combinators take an explicit [jobs] worker count (1 = run in the
    calling domain, no spawning) and guarantee {e deterministic} output:
    results are delivered in input order regardless of which domain
    computed them or in which order chunks finished, so a caller that is
    itself deterministic produces bit-identical output at every [jobs].

    The intended granularity is coarse (thousands of floating-point
    operations per element or chunk); the combinators serialise only the
    work distribution, never the work itself. *)

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()] — what the hardware allows. *)

val check_jobs : int -> int
(** [check_jobs j] is [j]; raises [Invalid_argument] if [j < 1].  Every
    combinator below validates its [jobs] this way. *)

val run_workers : jobs:int -> (int -> unit) -> unit
(** [run_workers ~jobs body] runs [body w] for worker indices
    [0 .. jobs-1] concurrently: worker 0 in the calling domain, the rest
    in freshly spawned domains that are all joined before returning.
    The first exception raised by any worker is re-raised after every
    domain has been joined. *)

val map_array : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array ~jobs f arr] is [Array.map f arr] with elements processed
    by a pool of [jobs] workers pulling indices from a shared atomic
    cursor.  [out.(i) = f arr.(i)] for every [i] — output order never
    depends on scheduling.  [f] must be safe to call from any domain. *)

val map_chunks :
  jobs:int -> chunk:int -> map:(int -> 'a array -> 'b) -> 'a Seq.t -> 'b list
(** [map_chunks ~jobs ~chunk ~map seq] splits [seq] into consecutive
    arrays of [chunk] elements (the last may be shorter), applies
    [map chunk_index arr] to each on the worker pool, and returns the
    results in chunk order.  The sequence is forced only under the
    internal distribution lock, one chunk at a time, so an impure
    generator sees the same access pattern at every [jobs]; chunk
    boundaries are identical at every [jobs], including [jobs = 1]. *)

val map_reduce_chunks :
  jobs:int ->
  chunk:int ->
  map:('a array -> 'b) ->
  reduce:('c -> 'b -> 'c) ->
  init:'c ->
  'a Seq.t ->
  'c
(** Deterministic ordered reduce:
    [fold_left reduce init [map c0; map c1; ...]] where [c0, c1, ...]
    are the chunks of the sequence in order.  [reduce] runs in the
    calling domain after all workers have joined, so it needs no
    synchronisation and may be non-commutative. *)
