(** A complete simulated key-value service cluster.

    Bundles the engine, fabric, trace, n Raft nodes (each applying to its
    own KV store replica) and optional CPU modelling — the unit every
    experiment manipulates. *)

type t

type shared = {
  sh_engine : Des.Engine.t;
  sh_fabric : Raft.Rpc.message Netsim.Fabric.t;
  sh_first_id : int;
}
(** Pre-existing infrastructure to build a cluster on, for hosts (the
    multiraft group manager) that run many clusters on one DES clock and
    one fabric.  [sh_first_id] is the first fabric node id this cluster
    owns; it takes ids [sh_first_id .. sh_first_id + n - 1].  A cluster
    built on shared infrastructure does {b not} install the engine post
    hook (the host steps all checkers from one combined hook), does not
    attach the recorder, and leaves engine/fabric statistics collection
    to the host (see {!collect_infra_metrics}). *)

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
  ?shared:shared ->
  n:int ->
  config:Raft.Config.t ->
  unit ->
  t
(** An [n]-server cluster where every server runs [config].  [conditions]
    (default: ideal links) applies to every directed link; per-pair
    overrides can be set afterwards.  When [costs] is given, each node
    gets a CPU with [cores] (default 4., matching the paper's container
    allocation).

    [check] (default {!Check.Off}) runs the online safety-invariant
    checker after every delivered simulation event, on the schedule the
    mode selects; a broken invariant raises {!Check.Violation} out of
    whatever [run_for] / [await_leader] call delivered the event.

    [telemetry] (default {!Telemetry.Metrics.noop}) is handed to every
    node (per-node RPC metrics, tuner-decision probes) and fed per-node
    protocol counters through a live trace subscription; finish with
    {!collect_metrics} to fold in the pull-style engine/fabric/link
    statistics before taking the snapshot.

    [forensics] (default: a disabled ring) is handed to every node:
    every probe on {!trace} is also recorded there, causally stamped
    (see {!Raft.Node.create}).  [recorder] (default
    {!Telemetry.Recorder.noop}) samples the telemetry registry on the
    DES clock.  When either is enabled and checking is on, invariant
    violations carry a flight-recorder dump (ring tail + last recorder
    ticks) in {!Check.violation.flight}.

    [scope] (default [""]) prefixes every metrics scope this cluster
    registers (["raft"] → ["g3/raft"]), so N clusters sharing one
    registry merge without clobbering each other.  [shared] (default:
    none) builds the cluster on a host-owned engine and fabric instead
    of creating its own; [seed] is ignored in that case. *)

val engine : t -> Des.Engine.t
val fabric : t -> Raft.Rpc.message Netsim.Fabric.t
val trace : t -> Raft.Probe.t Des.Mtrace.t

val checker : t -> Check.t option
(** The online invariant checker, when [create] was given a mode other
    than {!Check.Off}. *)

val telemetry : t -> Telemetry.Metrics.t
(** The registry passed at creation ({!Telemetry.Metrics.noop} when none
    was). *)

val recorder : t -> Telemetry.Recorder.t
(** The time-series recorder passed at creation
    ({!Telemetry.Recorder.noop} when none was). *)

val collect_metrics : t -> unit
(** Fold the cumulative engine, fabric and per-link statistics into the
    telemetry registry (scopes ["des"], ["net"], ["link"], ["fabric"],
    each prefixed with the cluster's [scope]).  Call once, at the end of
    the scenario, just before snapshotting; subsequent calls are no-ops.
    No-op when telemetry is disabled, and on shared-infrastructure
    clusters (the host collects once via {!collect_infra_metrics}). *)

val collect_infra_metrics :
  telemetry:Telemetry.Metrics.t ->
  engine:Des.Engine.t ->
  fabric:Raft.Rpc.message Netsim.Fabric.t ->
  unit
(** The engine/fabric half of {!collect_metrics}, standalone and
    unprefixed (scopes ["des"], ["net"], ["link"], ["fabric"]): a
    multiraft host sharing one engine and fabric across N clusters calls
    this exactly once.  Not idempotent — the counters are cumulative, so
    a second call would double them. *)

val check_now : t -> unit
(** Run the checker's full battery immediately (final verdict at the end
    of a scenario).  Raises {!Check.Violation}; no-op when checking is
    off. *)

val trace_digest : t -> int64
(** Order-sensitive FNV-1a digest of every probe emitted on this
    cluster's trace so far (timestamps included), except
    [Tuner_decision]: only instrumented servers emit those, so turning
    instrumentation on never changes a digest.  Accumulated through a
    live subscription made at creation, so it covers the whole run and
    serves as a determinism sanitizer: equal seeds and schedules must
    yield equal digests. *)

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

val set_uniform_conditions : t -> Netsim.Conditions.t -> unit

val set_pair_conditions :
  t -> Netsim.Node_id.t -> Netsim.Node_id.t -> Netsim.Conditions.t -> unit

val partition : t -> Netsim.Node_id.t list list -> unit
(** Network-partition the cluster into groups (see
    {!Netsim.Fabric.partition}). *)

val heal_partition : t -> unit

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
(** Create, register and start a fresh node (next unused id) outside the
    configuration; it joins once a leader's [Add_learner] entry names
    it.  Links to it are created lazily with the fabric's current
    default conditions — set per-pair overrides afterwards. *)

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
