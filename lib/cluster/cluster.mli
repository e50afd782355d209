(** A complete simulated key-value service cluster.

    Bundles a trace, n Raft nodes (each applying to its own KV store
    replica) and optional CPU modelling on a {!host}'s engine and fabric
    — the unit every experiment manipulates. *)

type t

type host
(** The infrastructure clusters run on: one engine, one fabric, the next
    free fabric node id, the checkers stepped after every event and
    whether the engine/fabric statistics were collected.  A standalone
    cluster has a private host; the multiraft group manager builds one
    host and runs every group on it.  A cluster owns everything else:
    its ids, their links' conditions, its trace, digest, checker and
    members. *)

val create_host : Des.Engine.t -> host
(** A host on [engine], with a fresh fabric; its ids start at 0. *)

val create :
  ?seed:int64 ->
  ?costs:Raft.Cost_model.t ->
  ?cores:float ->
  ?conditions:Netsim.Conditions.t ->
  ?check:Check.mode ->
  ?telemetry:Telemetry.Metrics.t ->
  ?forensics:Raft.Forensics.t ->
  ?recorder:Telemetry.Recorder.t ->
  ?scope:string ->
  ?host:host ->
  n:int ->
  config:Raft.Config.t ->
  unit ->
  t
(** An [n]-server cluster where every server runs [config], on [host]
    (default: a private one made from [seed]; [seed] is ignored when a
    host is given).  The servers take the host's next [n] ids.
    [conditions] (default: ideal links) applies to every directed pair
    among them, and to each pair {!spawn_joiner} adds later; per-pair
    overrides can be set afterwards.  When [costs] is given, each node
    gets a CPU with [cores] (default 4., matching the paper's container
    allocation).

    [check] (default {!Check.Off}) builds the online safety-invariant
    checker, which the host steps after every delivered simulation
    event, on the cadence {!Check.Always} describes; a broken invariant
    raises {!Check.Violation} out of whatever [run_for] / [await_leader]
    call delivered the event.

    [telemetry] (default {!Telemetry.Metrics.noop}) is handed to every
    node (append metrics, tuner-decision probes) and fed per-node
    protocol counters through a live trace subscription; finish with
    {!collect_metrics} to fold in the pull-style engine/fabric/link
    statistics before taking the snapshot.

    [forensics] (default: a fresh ring, enabled exactly when [check] is
    not {!Check.Off}) is handed to every node: every probe on {!trace}
    is also recorded there, causally stamped (see {!Raft.Node.create}).
    Several clusters may share one ring.  [recorder] (default
    {!Telemetry.Recorder.noop}) samples the telemetry registry on the
    DES clock.  When checking is on, invariant violations carry a
    flight-recorder dump in {!Check.violation.flight}: the ring's last
    50 records and the recorder's last 8 ticks.

    [scope] (default [""]) prefixes the protocol-counter scope this
    cluster registers (["raft"] → ["g3/raft"]), so N clusters sharing
    one registry merge without clobbering each other. *)

val engine : t -> Des.Engine.t
val fabric : t -> Raft.Rpc.message Netsim.Fabric.t
val trace : t -> Raft.Probe.t Des.Mtrace.t

val forensics : t -> Raft.Forensics.t
(** The ring every node records into ([create]'s [forensics]). *)

val checker : t -> Check.t option
(** The online invariant checker, when [create] was given a mode other
    than {!Check.Off}. *)

val collect_metrics : t -> unit
(** Fold the cumulative engine, fabric and per-link statistics of the
    cluster's host into its telemetry registry (scopes ["des"], ["net"],
    ["link"], ["fabric"], unprefixed: they belong to the host, not to one
    cluster).  Call at the end of the scenario, just before
    snapshotting.  Runs once per host: later calls, through this cluster
    or another on the same host, are no-ops, since a second fold would
    double the counters.  No-op when telemetry is disabled. *)

val check_now : t -> unit
(** Run the checker's full battery immediately (final verdict at the end
    of a scenario).  Raises {!Check.Violation}; no-op when checking is
    off. *)

val trace_digest : t -> int64
(** Order-sensitive FNV-1a digest of every probe emitted on this
    cluster's trace so far (timestamps included), except
    [Tuner_decision]: only instrumented servers emit those, about two
    per three heartbeats, so turning instrumentation on never changes a
    digest.  Accumulated through a live subscription made at creation,
    so it covers the whole run and serves as a determinism sanitizer:
    equal seeds and schedules must yield equal digests. *)

val size : t -> int
val quorum : t -> int

val nodes : t -> Raft.Node.t list
val node : t -> Netsim.Node_id.t -> Raft.Node.t
val node_ids : t -> Netsim.Node_id.t list
val store : t -> Netsim.Node_id.t -> Kvsm.Store.t

val reset_store : t -> Netsim.Node_id.t -> unit
(** Replace a node's KV replica with an empty one (used by the
    crash-restart fault: the state machine is rebuilt by log replay). *)

val start : t -> unit
(** Start every node (arms their election timers). *)

val leader : t -> Raft.Node.t option
(** The live leader: an unpaused node in the [Leader] role; when several
    claim leadership (stale terms), the one with the highest term. *)

val await_leader : t -> timeout:Des.Time.span -> Raft.Node.t option
(** Run the engine until a leader exists or the timeout elapses: a
    {!Des.Engine.await} in 1 ms slices. *)

val boot : ?timeout:Des.Time.span -> t -> label:string -> Raft.Node.t
(** {!start} the cluster and {!await_leader} (default [timeout] 30 s);
    returns the first leader.  Raises [Failure] naming [label] when no
    leader is elected in time. *)

val set_pair_conditions :
  t -> Netsim.Node_id.t -> Netsim.Node_id.t -> Netsim.Conditions.t -> unit

val partition : t -> Netsim.Node_id.t list list -> unit
(** Network-partition the cluster into groups: messages flow only
    within a group.  The live members not mentioned form an implicit
    final group, and a server spawned later is cut off from all of them
    until {!heal_partition}.  A second call replaces the first.  The
    partition is this cluster's own: other clusters on a shared host
    keep theirs (see {!Netsim.Fabric.partition}).  Raises
    [Invalid_argument], naming the id, for an id that is not a live
    member of this cluster, and for an id listed twice. *)

val heal_partition : t -> unit
(** Reconnect every live member of this cluster, and no other node. *)

val submit_target : t -> Kvsm.Client.target
(** A client target that finds the current leader and submits to it. *)

val linearizable_read :
  t -> key:string -> on_result:(string option option -> unit) -> unit
(** Read [key] with linearizable semantics via the ReadIndex protocol:
    [on_result] receives [Some value_opt] once the leader confirms its
    authority (value as of at least the read's registration point), or
    [None] if no leader was available / leadership was lost mid-read. *)

val transfer_leadership : t -> Netsim.Node_id.t -> [ `Ok | `Not_leader ]
(** Ask the current leader to hand off to [target]. *)

(** {2 Dynamic membership}

    Single-server reconfiguration: spin up a fresh node as a learner,
    let the leader promote it once caught up, and retire removed
    servers.  The safety checker (when on) tracks added nodes too. *)

val submit_to : t -> Netsim.Node_id.t -> Kvsm.Client.target
(** A client target pinned to one node (for redirect-following clients:
    pass [submit_to t] as the client's [route]). *)

val reconfigure : t -> Raft.Log.change -> Raft.Server.reconfigure_result
(** Submit a membership change to the current leader. *)

val spawn_joiner : t -> Netsim.Node_id.t
(** Create, register and start a fresh node (the host's next id) outside
    the configuration; it joins once a leader's [Add_learner] entry
    names it.  When [create] was given [conditions], its links to every
    current node are made now under them; set per-pair overrides
    afterwards. *)

val add_server : t -> Netsim.Node_id.t * Raft.Server.reconfigure_result
(** [spawn_joiner] plus an [Add_learner] submitted to the leader. *)

val remove_server : t -> Netsim.Node_id.t -> Raft.Server.reconfigure_result
(** Submit the removal of a member to the leader.  Once the change
    commits (and, for a leader removing itself, the automatic
    leadership hand-off completes), call {!retire}. *)

val retire : t -> Netsim.Node_id.t -> unit
(** Take a removed server off the air: pause it and deregister it from
    the fabric (in-flight traffic to it is dropped; its links die with
    it).  The member's store remains readable. *)

val await_config_quiet : t -> timeout:Des.Time.span -> bool
(** Run until a leader exists with no pending config change and no
    in-flight leadership transfer, or time out ({!Des.Engine.await} in
    1 ms slices). *)

val await_voter : t -> Netsim.Node_id.t -> timeout:Des.Time.span -> bool
(** Run until the leader's configuration lists the node as a voter with
    no change pending (i.e. its promotion committed), or time out
    ({!Des.Engine.await} in 1 ms slices). *)

val run_for : t -> Des.Time.span -> unit
val now : t -> Des.Time.t
