(** The Raft protocol state machine for one server.

    Written transition-style: {!handle} consumes one event and returns the
    list of {!action}s the host must carry out (messages to send, timers to
    arm, entries to apply).  The server never touches the network or the
    clock directly — the DES binding ({!Node}) and the unit tests are both
    hosts.  The only ambient effect is the server's private PRNG stream,
    used to randomize election timeouts.

    Protocol surface implemented: leader election with randomized
    timeouts ([randomizedTimeout ∈ \[Et, 2·Et)], as etcd draws them),
    etcd-style pre-vote with leader-stickiness lease, log replication with
    conflict back-off, commit/apply tracking, and the Dynatune tuning
    loop of Section III (measurement metadata on heartbeats, follower-side
    [Et]/[h] derivation, piggybacked [h], reset-to-defaults fallback). *)

type event =
  | Message of { mutable from : Netsim.Node_id.t; mutable msg : Rpc.message }
      (** Mutable so a passthrough host can reuse one scratch event per
          delivery; {!handle} reads the fields once at entry and never
          retains the event. *)
  | Election_timeout_fired
  | Heartbeat_due of Netsim.Node_id.t
      (** per-follower heartbeat timer (tuned modes) *)
  | Broadcast_due  (** the single heartbeat timer of static mode *)
  | Quorum_check_due
      (** periodic CheckQuorum evaluation on the leader *)
  | Flush_due  (** replication batch flush *)
  | Propose of { payload : string; client_id : int; seq : int }
  | Read of { client_id : int; seq : int }
      (** linearizable read request (ReadIndex protocol) *)
  | Transfer_leadership of Netsim.Node_id.t
      (** hand leadership to a peer (etcd's MoveLeader) *)
  | Snapshot_ready of { upto : Types.index; data : string }
      (** the host captured the state machine in response to
          [Take_snapshot]; the log can now be compacted *)
  | Restarted  (** the host came back from a pause *)

type action =
  | Send of {
      dst : Netsim.Node_id.t;
      kind : Netsim.Transport.kind;
      msg : Rpc.message;
    }
  | Arm_election of Des.Time.span
      (** (re)arm the election timer with this randomized span *)
  | Disarm_election
  | Arm_heartbeat of { peer : Netsim.Node_id.t; after : Des.Time.span }
  | Arm_broadcast of Des.Time.span
  | Arm_quorum_check of Des.Time.span
  | Disarm_heartbeats
  | Request_flush
      (** ask the host to deliver [Flush_due] shortly (batching) *)
  | Commit of Log.entry array
      (** newly committed entries, in order, to apply to the SM (a log
          slice — do not mutate) *)
  | Take_snapshot of { upto : Types.index }
      (** capture the state machine (which reflects exactly the entries
          up to [upto]) and reply with [Snapshot_ready] *)
  | Install_sm of { data : string; last_index : Types.index }
      (** replace the state machine with a received snapshot *)
  | Serve_read of { client_id : int; seq : int; read_index : Types.index }
      (** the registered read is linearizable now: leadership was
          confirmed by a quorum and the state machine covers
          [read_index] *)
  | Reject_proposal of { client_id : int; seq : int }
  | Probe of Probe.t

type t

type persistent = {
  term : Types.term;
  voted_for : Netsim.Node_id.t option;
  entries : Log.entry array;
  snapshot : (Types.index * Types.term * string) option;
      (** compaction boundary and the state-machine snapshot at it *)
  base_voters : Netsim.Node_id.t list;
      (** voting membership at the snapshot boundary (initial membership
          until the first compaction); config entries in [entries] apply
          on top of it *)
  base_learners : Netsim.Node_id.t list;
}
(** What Raft requires on stable storage: current term, vote, the log,
    the latest snapshot and the configuration at its boundary.
    Everything else (role, commit index, measurement windows) is
    volatile and rebuilt after a crash. *)

type reconfigure_result =
  [ `Ok of Types.index  (** the index of the appended config entry *)
  | `Not_leader
  | `Pending
    (** a previous config change is not yet committed, or a leadership
        transfer is in flight *)
  | `Invalid of string ]

val create :
  ?restore:persistent ->
  ?pool:Rpc.Pool.t ->
  ?joining:bool ->
  id:Netsim.Node_id.t ->
  peers:Netsim.Node_id.t list ->
  config:Config.t ->
  rng:Stats.Rng.t ->
  unit ->
  t
(** A fresh follower at term 0, or — with [restore] — a follower
    recovering from a crash with its persisted state reloaded.  [peers]
    excludes [id].  With [joining] (default false) the server starts
    {e outside} the configuration — [peers] are the existing members —
    and joins once it receives the [Add_learner] entry naming it; until
    then it neither votes nor campaigns.  Raises [Invalid_argument] on
    an invalid configuration.

    [pool] is the message free-list the server allocates its hot
    payloads from and releases delivered messages into (fresh private
    pool by default).  Servers that exchange messages should share one —
    records released at the receiver then refill the sender — and a pool
    must never be shared across domains. *)

val pool : t -> Rpc.Pool.t
(** The server's message pool (for the host's restart path and the
    benchmark loops). *)

val reconfigure :
  t -> now:Des.Time.t -> Log.change -> action list * reconfigure_result
(** Leader-side single-server membership change.  The change is appended
    to the log and takes effect immediately (applied-on-append); at most
    one change may be uncommitted at a time, and changes are refused
    while a leadership transfer is pending.  The host must carry out the
    returned actions regardless of the result. *)

val persisted : t -> persistent
(** Snapshot of the server's durable state (what a WAL would hold). *)

val start : t -> action list
(** Initial actions (arms the election timer). *)

val handle : t -> now:Des.Time.t -> event -> action list

(** {2 Introspection} *)

val id : t -> Netsim.Node_id.t
val role : t -> Types.role
val term : t -> Types.term

val voted_for : t -> Netsim.Node_id.t option
(** The vote cast in the current term, if any (durable state; the
    invariant checker asserts it never changes within a term). *)

val leader : t -> Netsim.Node_id.t option
(** The leader this server currently believes in ([None] after its own
    timeout — this is also the stickiness lease). *)

val commit_index : t -> Types.index
val log : t -> Log.t
val config : t -> Config.t

val randomized_timeout : t -> Des.Time.span
(** The most recently drawn randomizedTimeout (the quantity Fig 6
    samples). *)

val election_timeout_now : t -> Des.Time.span
(** The current base [Et] (tuned when warmed up, default otherwise). *)

val tuner : t -> Dynatune.Tuner.t option
(** The follower-side tuner, when a tuned mode is configured. *)

val set_instrument : t -> bool -> unit
(** Enable (or disable) emission of [Probe.Tuner_decision] events.  Off
    by default so plain campaigns pay nothing; the telemetry harness
    turns it on, and must turn it on again after a restart (a restart
    builds a fresh server). *)

val set_congestion_probe : t -> (Netsim.Node_id.t -> int) -> unit
(** Install the per-destination egress-depth probe the replication
    driver throttles bulk appends on (typically the fabric's
    [pending] count).  Defaults to [fun _ -> 0] — no backpressure —
    and, like {!set_instrument}, must be reinstalled after a restart. *)

val appends_inflight : t -> int
(** Entry-carrying appends (and snapshots) sent but not yet
    acknowledged, summed over all followers.  [0] on non-leaders. *)

val heartbeat_interval_to : t -> Netsim.Node_id.t -> Des.Time.span option
(** Leader only: the interval currently applied toward a follower (the
    quantity Fig 7a plots). *)

val tuning_active : t -> bool
(** Whether measurement/tuning work is being performed (for cost
    accounting). *)

(** {2 Membership introspection} *)

val voters : t -> Netsim.Node_id.t list
(** Voting members of the live configuration, in membership order
    (includes this server when it is a voter). *)

val learners : t -> Netsim.Node_id.t list

val members : t -> Netsim.Node_id.t list
(** All members (voters then learners interleaved in insertion order). *)

val is_voter : t -> Netsim.Node_id.t -> bool

val votes : t -> Netsim.Node_id.t list
(** The votes gathered in the current campaign (empty outside one).  The
    invariant checker asserts none come from a learner. *)

val transfer_pending : t -> Netsim.Node_id.t option
(** The target of an in-flight leadership transfer, if any. *)

val pending_config : t -> Types.index option
(** The index of the latest config entry when it is not yet committed
    ([None] once it commits — the gate for the next change). *)
