(** The Dynatune tuning policy for one leader→follower path (Sections
    III-B through III-D).

    This is the follower-side state machine:

    - {b Step 0} ([`Warming]): record heartbeat metadata until both sample
      lists reach [min_list_size]; the base election parameters are in
      force.
    - {b Steps 1–3} ([`Tuned]): on every heartbeat, re-estimate RTT
      statistics and loss rate, derive [Et = μ + s·σ] and
      [h = Et / K] with [K = ⌈log_p(1−x)⌉], and piggyback [h] to the
      leader in the heartbeat response.

    [reset] implements the fallback rule: when the election timer expires
    (leader failure or RTT spike), all measurements are discarded and the
    conservative base parameters are restored.

    The tuner is the one owner of [(Et, K, h)]: it recomputes them when
    their inputs change (on each recorded heartbeat and on {!reset}), and
    the readers below return stored values. *)

type t

val create :
  ?fixed_k:int -> Config.t -> election_timeout:Des.Time.span ->
  heartbeat_interval:Des.Time.span -> t
(** A tuner whose base [Et] and [h] — in force while warming and after
    {!reset} — are the Raft server's configured ones.

    [fixed_k] selects the Fix-K baseline: [Et] is tuned as above, but
    once tuned [K] is [fixed_k] whatever the loss rate, with no
    [Et / {!Config.min_heartbeat_interval}] cap, and
    [h = max min_heartbeat_interval (Et / fixed_k)].

    Raises [Invalid_argument] if the base [Et] or [h] or [fixed_k] is not
    positive, or the configuration fails {!Config.validate}. *)

type phase = Warming | Tuned

val phase : t -> phase

val observe_heartbeat : t -> hb_id:int -> rtt:Des.Time.span option -> unit
(** Record one received heartbeat: its sequence id, and the previous
    heartbeat's RTT measurement if the leader included one.  Duplicate ids
    are ignored. *)

val election_timeout : t -> Des.Time.span
(** Current [Et]: the tuned value clamped to
    [[{!Config.min_election_timeout}, {!Config.max_election_timeout}]]
    when [Tuned], the base otherwise. *)

val heartbeat_interval : t -> Des.Time.span
(** Current [h = Et / K], clamped below by
    {!Config.min_heartbeat_interval};
    the base interval while [Warming]. *)

val required_heartbeats : t -> int
(** Current [K]: 1 while [Warming]; once [Tuned], [fixed_k] if given,
    else [⌈log_p(1−x)⌉] (1 when the measured loss rate is 0) capped at
    [Et / min_heartbeat_interval]. *)

val piggyback_h : t -> Des.Time.span option
(** The [h] to piggyback to the leader (Step 3): [None] while [Warming].
    The [Some] box is reused while [h] is unchanged, across {!reset}
    too, so shipping an unchanged [h] allocates nothing. *)

type decision =
  | Unchanged
  | First  (** the first tuned [(Et, K, h)] since creation or {!reset} *)
  | Moved  (** a recompute changed the tuned [(Et, K, h)] since the last
             decision was taken *)

val take_decision : t -> decision
(** Whether [(Et, K, h)] moved since the last decision was taken, without
    allocating.  [First] and [Moved] mark the current values as taken;
    [Unchanged] while [Warming].  A caller that takes a decision after
    every {!observe_heartbeat} sees each change of the triple once, with
    the values the triple moved to. *)

val loss_rate : t -> float
val rtt_mean : t -> Des.Time.span
val rtt_std : t -> Des.Time.span
val samples : t -> int
(** RTT samples currently held. *)

val reset : t -> unit
(** Discard all measurements and fall back to the base parameters (back
    to Step 0). *)

val required_heartbeats_for : p:float -> x:float -> int
(** The pure formula [K = ⌈log_p(1−x)⌉], exposed for analysis and
    property tests: [p <= 0] yields 1; [p >= 1] yields [max_int] (no
    finite K can satisfy the target). *)

val pp : Format.formatter -> t -> unit
