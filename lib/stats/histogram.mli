(** Fixed-width histograms with text rendering.

    The benchmark harness renders distributions (detection time, OTS time)
    as ASCII histograms alongside the CDF tables. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** Uniform bins over [\[lo, hi)]; out-of-range samples land in saturating
    underflow/overflow bins.  Requires [lo < hi] and [bins > 0]. *)

val add : t -> float -> unit

val merge : t -> t -> t
(** [merge a b] is a fresh histogram whose every bin (including
    under/overflow) holds the sum of the corresponding bins of [a] and
    [b] — exactly the histogram that adding both sample streams to one
    accumulator would produce, which is what makes sharded campaigns
    mergeable without approximation.  Neither input is mutated.  Raises
    [Invalid_argument] if the bin layouts ([lo], [hi], bin count)
    differ. *)

val copy : t -> t
(** An independent histogram with the same layout and counts — what the
    telemetry registry hands out in snapshots so later samples don't
    mutate an already-taken snapshot. *)

val count : t -> int
(** Total samples added, including under/overflow. *)

val bins : t -> int
(** Number of regular bins (excluding under/overflow). *)

val lo : t -> float
val hi : t -> float

val bin_count : t -> int -> int
(** Samples in bin [i], [0 <= i < bins]. *)

val underflow : t -> int
val overflow : t -> int

val bin_bounds : t -> int -> float * float
(** [bin_bounds t i] is the [(lo, hi)] range of bin [i]. *)
