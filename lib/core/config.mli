(** Dynatune runtime parameters (Section III-E).

    These are the four knobs the paper exposes as runtime arguments —
    safety factor [s], arrival probability [x], and the two list-size
    bounds — plus the choice of RTT estimator.  The safety clamps that
    keep a mis-measured path from driving the timers to degenerate
    values are constants.  The base (fallback) election parameters the
    tuner starts from and falls back to are not here: they are
    [Raft.Config]'s [election_timeout] and [heartbeat_interval], in every
    mode, and {!Tuner.create} and {!Leader_path.create} take them as
    arguments. *)

type estimator =
  | Sliding_window
      (** the paper's [RTTs] list: bounded window, batch μ/σ *)
  | Ewma of float
      (** Jacobson/Karels smoothing with the given α (TCP uses 1/8) —
          an O(1)-memory alternative evaluated by the ablation bench *)

type t = {
  rtt_estimator : estimator;
      (** which RTT statistics backend derives [Et] (default:
          [Sliding_window], the paper's design) *)
  safety_factor : float;
      (** [s] in [Et = μ_RTT + s·σ_RTT].  Larger values tolerate more RTT
          variance at the cost of slower failure detection.  Paper
          default: 2. *)
  arrival_probability : float;
      (** [x]: the target probability that at least one heartbeat arrives
          within [Et].  Determines [K = ⌈log_p(1−x)⌉].  Paper default:
          0.999. *)
  min_list_size : int;
      (** Below this many samples the tuner stays in Step 0 (defaults in
          force).  Paper default: 20. *)
  max_list_size : int;
      (** Sample windows evict their oldest entry beyond this size.  Paper
          default: 100. *)
}

val min_election_timeout : Des.Time.span
(** Lower clamp on tuned [Et], 10 ms (guards against a zero-variance
    window on an idealized link). *)

val max_election_timeout : Des.Time.span
(** Upper clamp on tuned [Et], 5000 ms: the conservative ceiling. *)

val min_heartbeat_interval : Des.Time.span
(** Lower clamp on tuned [h], 1 ms: bounds the heartbeat rate, hence
    the leader's resource consumption. *)

val default : t
(** The paper's experimental configuration: [s = 2], [x = 0.999],
    [min_list_size = 20], [max_list_size = 100]. *)

val validate : t -> (t, string) result
(** Check internal consistency (safety factor finite and non-negative,
    list sizes ordered, probabilities in range, EWMA α in (0, 1]). *)
