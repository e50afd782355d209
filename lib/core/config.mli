(** Dynatune runtime parameters (Section III-E).

    These are the four knobs the paper exposes as runtime arguments —
    safety factor [s], arrival probability [x], and the two list-size
    bounds — plus the default (fallback) election parameters and safety
    clamps that keep a mis-measured path from driving the timers to
    degenerate values. *)

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
  default_election_timeout : Des.Time.span;
      (** Fallback [Et]; also the value restored when an election timer
          expires.  Paper default: 1000 ms (etcd default). *)
  default_heartbeat_interval : Des.Time.span;
      (** Fallback [h].  Paper default: 100 ms (etcd default). *)
  min_election_timeout : Des.Time.span;
      (** Lower clamp on tuned [Et] (guards against a zero-variance
          window on an idealized link). *)
  max_election_timeout : Des.Time.span;
      (** Upper clamp on tuned [Et]; the conservative default is the
          natural ceiling. *)
  min_heartbeat_interval : Des.Time.span;
      (** Lower clamp on tuned [h]; bounds the heartbeat rate, hence the
          leader's resource consumption. *)
}

val default : t
(** The paper's experimental configuration: [s = 2], [x = 0.999],
    [min_list_size = 20], [max_list_size = 100], defaults 1000 ms /
    100 ms, clamps 10 ms / 5000 ms / 1 ms. *)

val validate : t -> (t, string) result
(** Check internal consistency (list sizes ordered, probabilities in
    range, clamps ordered). *)
