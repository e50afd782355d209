(** Leader-side per-follower state (the tuning half that runs on the
    leader).

    For each follower the leader (a) allocates sequential heartbeat ids,
    (b) stamps heartbeats with its local send time, (c) computes the RTT
    when the echo comes back and forwards that measurement to the follower
    in the next heartbeat, and (d) applies the [h] the follower piggybacks
    in its response as the sending interval toward that follower
    (Steps 0 and 3 of Section III-B).

    RTT computation uses only the leader's clock via the echoed timestamp,
    so it is robust to reordering, loss and clock skew (Section
    III-C1). *)

type t

val create : heartbeat_interval:Des.Time.span -> t
(** A path whose sending interval starts at the base
    [heartbeat_interval] (the Raft server's configured [h]), with no
    heartbeat sent and no RTT pending.  A leader builds a fresh path per
    follower each time it takes office. *)

val next_id : t -> int
(** Allocate the sequential id for the next heartbeat on this path. *)

val take_rtt : t -> Des.Time.span option
(** Consume the pending RTT measurement (each measurement is shipped
    exactly once, in the heartbeat after its echo arrived).  Returns the
    stored option value itself, so shipping it allocates nothing. *)

val on_response :
  t -> now:Des.Time.t -> echo_sent_at:Des.Time.t -> tuned_h:Des.Time.span option -> unit
(** Process a heartbeat response: compute the RTT from the echoed send
    time and stash it for the next heartbeat; apply the follower's tuned
    [h] (clamped below by {!Config.min_heartbeat_interval}) as the new sending
    interval.  Replies whose echoed timestamp is in the future (clock
    anomaly) are ignored. *)

val interval : t -> Des.Time.span
(** Current heartbeat sending interval toward this follower. *)
