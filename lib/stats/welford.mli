(** Online mean and standard deviation (Welford's algorithm).

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

val std : t -> float
(** Population standard deviation ([/n]); [0.] when fewer than two
    samples. *)
