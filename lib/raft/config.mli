(** Per-server Raft configuration, including the election-parameter
    tuning mode under evaluation.

    The three comparators of the paper's experiments are all instances of
    this record:

    - {e Raft} (default etcd): [Static] with [Et = 1000 ms], [h = 100 ms].
    - {e Raft-Low}: [Static] with the parameters divided by 10.
    - {e Dynatune}: [Dynatune cfg] with the paper's runtime arguments.
    - {e Fix-K}: [Fix_k] — Et tuned from RTT like Dynatune, but
      [h = Et/K] with a fixed K (no loss-driven tuning). *)

type tuning =
  | Static
      (** Fixed election parameters; the leader drives all followers from
          one broadcast heartbeat timer. *)
  | Dynatune of Dynatune.Config.t
      (** Full per-path tuning of both [Et] and [h]. *)
  | Fix_k of { cfg : Dynatune.Config.t; k : int }
      (** [Et] tuned from RTT, [h = Et/k] fixed (the Fig 7 ablation). *)

type t = {
  election_timeout : Des.Time.span;
      (** Base [Et], in every mode: the fixed value under [Static]; the
          value a tuned mode starts from while warming and falls back to
          when an election timer expires.  CheckQuorum (see {!static}),
          the leadership-transfer deadline and the leader's
          stale-response test run on it in every mode. *)
  heartbeat_interval : Des.Time.span;
      (** Base [h], in every mode: the fixed interval under [Static]; the
          interval toward a follower until it piggybacks a tuned one. *)
  pre_vote : bool;  (** Run the pre-vote phase before real elections. *)
  tuning : tuning;
  max_entries_per_append : int;
      (** Replication batch size limit. *)
  consolidated_timer : bool;
      (** Section IV-E extension: drive all followers from a single
          heartbeat timer at the minimum tuned [h], instead of n−1
          per-follower timers.  Trades some extra heartbeats on slow
          paths for less leader timer load. *)
  snapshot_threshold : int;
      (** Compact the log into a state-machine snapshot once this many
          entries have been committed past the previous snapshot;
          laggards behind the boundary catch up via InstallSnapshot.
          [0] disables compaction. *)
  max_inflight_appends : int;
      (** Pipelining window: how many entry-carrying AppendEntries (or
          snapshots) the leader keeps unacknowledged per follower before
          it stops streaming.  [1] recovers strict request/response
          replication. *)
  append_backpressure : int;
      (** Egress-queue depth (per destination, from the fabric's
          congestion signal) above which the leader stops handing new
          bulk appends to the transport.  Only engages on links with a
          serialization delay — queues cannot form otherwise. *)
  priority_lanes : bool;
      (** Send control traffic (heartbeats, votes, TimeoutNow, ...) on
          the fabric's urgent lane so it overtakes queued bulk appends.
          Off, everything shares one FIFO lane. *)
}

val with_replication :
  ?max_inflight_appends:int ->
  ?append_backpressure:int ->
  ?max_entries_per_append:int ->
  ?priority_lanes:bool ->
  t ->
  t
(** Override the replication-engine knobs on a configuration. *)

val with_consolidated_timer : t -> t
(** Turn on the Section IV-E single heartbeat timer
    ({!field-consolidated_timer}). *)

val with_snapshots : threshold:int -> t -> t
(** Enable log compaction every [threshold] committed entries. *)

val static : unit -> t
(** etcd defaults: [Et = 1000 ms], [h = 100 ms], pre-vote on, heartbeats
    over TCP.  Every mode keeps etcd's leader-stickiness lease and its
    CheckQuorum: a leader steps down when no response from a quorum
    arrived within one base [Et] (load-bearing for the Fig 6 Raft-Low
    result — when the RTT exceeds [Et], responses always lag and the
    leader perpetually abdicates). *)

val raft_low : unit -> t
(** The paper's Raft-Low comparator: static parameters at 1/10 of the
    defaults. *)

val dynatune : ?cfg:Dynatune.Config.t -> unit -> t
(** Dynatune with the paper's runtime arguments, over etcd's base
    parameters ([Et = 1000 ms], [h = 100 ms]); heartbeats over UDP. *)

val fix_k : k:int -> unit -> t
(** The Fig 7 ablation, on the paper's runtime arguments. *)

val validate : t -> (t, string) result

val learner_promotion_gap : int
(** A learner is considered caught up — and auto-promoted by the leader
    — once its match index is within this many entries (64) of the
    leader's last index. *)

val heartbeat_transport : t -> Netsim.Transport.kind
(** Dynatune sends heartbeats over UDP, default etcd over TCP (Section
    III-E): [Reliable] under [Static], [Datagram] under a tuned mode. *)

val mode_name : t -> string
(** ["raft"], ["raft-low"], ["dynatune"] or ["fix-k"]; used in reports. *)
