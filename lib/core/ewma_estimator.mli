(** EWMA-based RTT estimation — an alternative backend to the paper's
    sliding-window [RTTs] list (Section III-C1).

    Uses the Jacobson/Karels smoothed estimators that TCP retransmission
    timers use: [srtt ← (1−α)·srtt + α·r] and
    [rttvar ← (1−β)·rttvar + β·|r − srtt|] with [β = α/2 ... 2α]
    (we use [β = 2α] capped at 1, TCP's classic α = 1/8, β = 1/4
    ratio).  The election timeout becomes [Et = srtt + s·rttvar].

    Compared to the window: O(1) memory regardless of list size, smooth
    decay instead of abrupt eviction, but slower to forget an outage and
    unable to distinguish one spike from a level shift.  The ablation
    bench quantifies the trade (adaptation lag vs. stability). *)

type t

val create : ?alpha:float -> min_samples:int -> unit -> t
(** [alpha] defaults to 1/8 (TCP's).  Requires [0 < alpha <= 1] and
    [min_samples > 0]. *)

val observe : t -> Des.Time.span -> unit
val length : t -> int
(** Samples observed since the last [clear] (saturates; only used for
    warm-up detection). *)

val warmed_up : t -> bool
val mean : t -> Des.Time.span
(** Smoothed RTT; [0] when no samples. *)

val deviation : t -> Des.Time.span
(** Smoothed mean absolute deviation (the [rttvar] term). *)

val election_timeout : t -> s:float -> Des.Time.span
(** [srtt + s·rttvar], whether warmed up or not: callers check
    {!warmed_up} first. *)

val clear : t -> unit
