(** Batch summary statistics over a collection of samples.

    Used by the benchmark harness to report what the paper's figures show:
    means, percentiles and empirical CDFs (read as percentiles) of
    detection / out-of-service times. *)

type t
(** An immutable summary of a batch of samples. *)

val of_list : float list -> t

val count : t -> int
val mean : t -> float
val std : t -> float
(** Population standard deviation. *)

val min : t -> float
val max : t -> float

val percentile : t -> float -> float
(** [percentile t q] with [q] in [\[0, 100\]]; linear interpolation between
    order statistics.  [nan] when empty. *)

val median : t -> float
