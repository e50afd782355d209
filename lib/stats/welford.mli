(** Online mean and variance (Welford's algorithm).

    Numerically stable single-pass accumulation; O(1) space.  Used wherever
    a long-running average is needed without retaining samples. *)

type t
(** Mutable accumulator. *)

val create : unit -> t

val add : t -> float -> unit
(** Accumulate one observation. *)

val count : t -> int
val mean : t -> float
(** Mean of the observations so far; [0.] when empty. *)

val variance : t -> float
(** Population variance ([/n]); [0.] when fewer than two samples. *)

val std : t -> float
(** Population standard deviation. *)

val min : t -> float
(** Smallest observation; [nan] when empty. *)

val max : t -> float
(** Largest observation; [nan] when empty. *)

val merge : t -> t -> t
(** [merge a b] is an accumulator equivalent to having seen both streams
    (Chan et al. parallel combination). Inputs are not mutated. *)
