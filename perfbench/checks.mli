(** Output checks and the failure tally behind [fail_rate].

    Every operation the benchmark attempts is recorded exactly once;
    an operation that misses any check, or raises, counts as failed.
    Nothing is ever dropped from the tally. *)

type tally

val tally : unit -> tally

val record : tally -> string -> string list -> unit
(** [record t what misses] counts one attempted operation [what]; it
    failed when [misses] (the checks it missed) is non-empty, which is
    also reported on stderr. *)

val attempt : tally -> string -> (unit -> string list) -> unit
(** Run a check-returning operation and {!record} it; an exception
    counts as a miss. *)

val attempted : tally -> int
val failed : tally -> int

val fail_rate : tally -> float
(** [failed / attempted]; 0 before any attempt. *)

val forgery : Falcon.Scheme.public_key -> Attack.Fullkey.result -> bool
(** Sign a fixed message with the recovered key and verify it under the
    victim's public key; [false] when no key was rebuilt. *)

val fullkey :
  truth:Fft.t -> Attack.Fullkey.result -> forged:bool -> string list
(** Misses of a full-key extraction: FFT(f) not 2n/2n bit-exact, no
    rebuilt keypair, or a forgery that does not verify. *)

val store :
  dir:string -> expected:int -> pk:Falcon.Scheme.public_key -> sample:int -> string list
(** Misses of a captured store: any shard failing [Tracestore.verify],
    a record count other than [expected], or one of [sample] evenly
    spaced decoded records whose signature does not verify under [pk]. *)
