(** Order statistics for the benchmark's timings. *)

val median : float list -> float
(** Midpoint of the sorted sample (mean of the two middle values when
    the count is even).  Raises [Invalid_argument] on an empty list. *)

val percentile : float list -> float -> float
(** [percentile xs p] is the nearest-rank [p]-th percentile: the
    smallest sample with at least [p]% of the sample at or below it.
    Raises [Invalid_argument] on an empty list. *)

type tail = {
  pct : float;  (** percentile level, e.g. [99.] *)
  value : float;  (** the sample at that level *)
  samples : int;  (** sample count it was read from *)
}

val tail : float list -> tail option
(** The highest of p99.9, p99, p95, p90, p80 and p50 that has at least
    ten samples strictly beyond its rank, with its value and the sample
    count; [None] when even the median has fewer than ten beyond it
    (fewer than 20 samples). *)
