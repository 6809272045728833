(** Arbitrary-precision signed integers.

    FALCON's key generation solves the NTRU equation fG - gF = q over
    towers of rings whose coefficients grow to thousands of bits; the
    sealed build environment has no GMP/zarith, so this module provides
    the required bignum arithmetic from scratch (sign-magnitude, 26-bit
    limbs, schoolbook multiplication, binary extended GCD). *)

type t

val zero : t
val one : t

val of_int : int -> t
val to_int : t -> int
(** Raises [Failure] if the value does not fit in a native int. *)

val to_int_opt : t -> int option
val fits_int : t -> bool

val sign : t -> int
(** -1, 0 or 1. *)

val is_zero : t -> bool
val is_even : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val bit_length : t -> int
(** Bits in the magnitude; 0 for zero. *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Arithmetic shift: floor division by 2^k (rounds toward minus
    infinity, like OCaml's [asr]). *)

val divmod : t -> t -> t * t
(** Truncated division: [a = q*b + r] with |r| < |b| and [r] carrying the
    sign of [a].  Raises [Division_by_zero]. *)

val divmod_int : t -> int -> t * int
(** Same contract for a native divisor with |d| < 2^36. *)

val gcd : t -> t -> t
val egcd : t -> t -> t * t * t
(** [egcd a b = (g, u, v)] with [u*a + v*b = g = gcd a b >= 0]. *)

val to_float_scaled : t -> float * int
(** [(m, e)] such that the value is approximately [m *. 2. ** e], with
    [m] holding the top 53 bits ([0.5 <= |m| < 1]); [(0., 0)] for zero. *)

val to_float : t -> float
(** Nearest double (infinite for huge values). *)

val of_string : string -> t
(** Decimal, with optional leading ['-']. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
