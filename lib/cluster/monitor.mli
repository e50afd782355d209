(** Live measurement utilities over a running cluster.

    These implement the paper's observation methodology: per-second
    sampling of the (f+1)-th smallest randomizedTimeout (Fig 6), of the
    applied heartbeat interval (Fig 7a), and observation windows over
    the probe stream: false detections, pre-vote aborts, elections and
    out-of-service intervals (the background shading of Fig 6). *)

val randomized_timeouts_ms : Cluster.t -> float list
(** Current randomizedTimeout of every non-leader node, ms, unsorted. *)

val majority_randomized_ms : Cluster.t -> float option
(** The (f+1)-th smallest of the above — the value at which a pre-vote
    quorum becomes possible.  [None] when not enough followers. *)

val election_timeout_ms : Cluster.t -> Netsim.Node_id.t -> float
(** Node's current base [Et] (tuned or default). *)

val leader_h_ms : Cluster.t -> follower:Netsim.Node_id.t -> float option
(** The heartbeat interval the current leader applies toward [follower];
    [None] when there is no leader (or the follower {e is} the leader). *)

val gap : float option -> float
(** [None] rendered as [nan] — for plotted time series, where a missing
    sample must become a gap in the curve rather than a point. *)

val has_leader : Cluster.t -> bool

val watch :
  Cluster.t ->
  every:Des.Time.span ->
  duration:Des.Time.span ->
  (Cluster.t -> 'a) ->
  (float * 'a) list
(** Advance the simulation by [duration], calling the reader at the
    given period; returns its samples with their times in seconds,
    oldest first (NaN samples as-is: plotted series show gaps).  No
    sampling event stays queued after it returns, even when [duration]
    is not a multiple of [every]. *)

type expiry = {
  at : Des.Time.t;
  node : Netsim.Node_id.t;
  randomized : Des.Time.span;  (** the randomizedTimeout that expired *)
}

type window = {
  timeouts : expiry list;  (** election-timer expiries, oldest first *)
  pre_vote_aborts : int;
  elections : Des.Time.t list;
      (** start instants of the real campaigns, oldest first *)
  leaderless : (Des.Time.t * Des.Time.t) list;
      (** out-of-service intervals, oldest first, clipped to the
          window: no leader is serving.  A leader serves unless it is
          paused or has a leadership transfer pending — from its
          [Transfer_started] until [Transfer_aborted] or its next
          [Role_change] it refuses proposals. *)
}

val observe : Cluster.t -> (unit -> 'a) -> 'a * window
(** [observe t f] runs [f], which advances the simulation, and returns
    its result with what the probe stream showed over the window
    [(from, until]]: [from] is the instant [f] starts, [until] the one
    it returns at.  The expiries, the campaigns and the pre-vote abort
    count cover probes stamped inside the window.
    The leaderless intervals are seeded from the nodes' roles, pause
    flags and pending transfers when the window opens, which is exact:
    every role change, pause/resume and transfer start/abort emits a
    probe.  Nothing before [from] is needed,
    and nothing is retained after [f] returns. *)

val ots_ms : window -> float
(** Sum of the window's leaderless interval lengths, ms. *)
