(** Batch summary statistics over a collection of samples.

    Used by the benchmark harness to report what the paper's figures show:
    means, percentiles and empirical CDFs of detection / out-of-service
    times. *)

type t
(** An immutable summary of a batch of samples. *)

val of_list : float list -> t

val of_parts : t list -> t
(** [of_parts parts] summarizes the union of the samples behind
    [parts].  Because a summary retains every sample, this is exactly
    [of_list] applied to the concatenated raw samples — percentiles
    and CDFs included — so campaign shards can be summarized
    independently and merged without losing precision. *)

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

val cdf : t -> points:int -> (float * float) list
(** [cdf t ~points] is an empirical CDF sampled at [points] evenly spaced
    cumulative probabilities: pairs [(value, prob)] with [prob] in
    (0, 1].  Empty summary yields []. *)

val cdf_at : t -> float -> float
(** [cdf_at t v] is the fraction of samples [<= v]. *)
