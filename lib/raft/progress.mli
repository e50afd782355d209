(** Leader-side replication state for one follower.

    Follows etcd's two-state flow.  A follower starts out {e probed}:
    one append at a time until the consistency check passes.  The first
    success switches it to {e replicating}: the leader streams batches
    optimistically (advancing [next] at send time) with up to
    [max_inflight_appends] batches unacknowledged.  A conflict response
    — or a stall detected through the response clock — rewinds [next],
    clears the in-flight window and drops back to probing. *)

type t

val create : last_index:Types.index -> path:Dynatune.Leader_path.t -> t
(** Fresh state when a leader takes office: [next = last_index + 1],
    [match = 0], probing, nothing in flight.  [path] is the heartbeat
    path toward this follower; the leader passes a fresh one, so each
    leadership starts its heartbeat ids at 0 with no RTT pending and
    the base interval. *)

val path : t -> Dynatune.Leader_path.t
(** The leader's heartbeat path toward this follower (Steps 0 and 3 of
    Section III-B): the next heartbeat id, the RTT measured from the
    last echo, and the interval from the follower's piggybacked h. *)

val next_index : t -> Types.index
(** First entry index to send next. *)

val match_index : t -> Types.index
(** Highest entry known replicated on the follower. *)

val inflight : t -> int
(** Entry-carrying appends (and snapshots) sent but not yet
    acknowledged.  Forgotten wholesale by a rewind. *)

val may_send : t -> window:int -> bool
(** May another entry-carrying append be handed to the transport?
    Probing: only when nothing is outstanding.  Replicating: while the
    in-flight count is below [window]. *)

val record_sent : t -> upto:Types.index -> unit
(** Entries up to [upto] were handed to the (reliable) transport:
    advance [next] optimistically so the pipeline never re-sends
    in-flight entries, and count the send against the window. *)

val record_success : t -> upto:Types.index -> unit
(** An AppendEntries covering entries up to [upto] succeeded: advance
    [match]/[next], retire one in-flight send, and enter (or stay in)
    the replicating state. *)

val record_conflict : t -> hint:Types.index -> unit
(** Unconditional rewind: back [next] off to [hint] (never below 1,
    never above the current [next]), forget the in-flight window, and
    drop back to probing.  Used when the leader itself decides to rewind
    (stale response clock, compacted backlog). *)

val record_conflict_response :
  t -> req_prev:Types.index -> hint:Types.index -> [ `Rewound | `Stale ]
(** A conflict response whose request probed position [req_prev + 1].
    [`Rewound]: the conflict is current — [next] was rewound as
    {!record_conflict} does, and the caller should resend.  [`Stale]:
    the response answers a send from before an earlier rewind (its
    position lies beyond the current [next]); the probe already in
    flight supersedes it and no resend must happen, or every stale nack
    would re-append the same entries. *)

val needs_entries : t -> last_index:Types.index -> bool
(** Are there entries this follower has not been sent yet? *)

val note_response : t -> at:Des.Time.t -> unit
(** Record that an AppendEntries response (success or conflict) arrived. *)

val last_response_at : t -> Des.Time.t
(** Instant of the last AppendEntries response ([Time.zero] if none). *)

val reads_confirmed : t -> int
(** Registration number of the newest pending linearizable read this
    follower has confirmed (a heartbeat echo sent at or after the read's
    registration); -1 before any.  Read numbers are the leader's and
    increase with registration order. *)

val set_reads_confirmed : t -> int -> unit

val note_ack : t -> round:int -> unit
(** Record a voter's acknowledgement in the leader's CheckQuorum round
    [round] (a number the leader bumps whenever it starts a round). *)

val acked_in : t -> round:int -> bool
(** Did this follower acknowledge, as a voter, during [round]? *)
