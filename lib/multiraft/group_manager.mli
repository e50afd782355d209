(** N independent Raft groups multiplexed on one DES engine and one
    fabric.

    Each group is a complete {!Harness.Cluster} (servers, KV replicas,
    tuners, trace, digest, optional checker) built on the manager's
    shared infrastructure; the manager owns the singleton pieces a
    shared cluster declines: the engine post hook (one combined hook
    steps every group's checker, in group order), the recorder
    attachment, and the one-shot engine/fabric metrics collection.

    Fabric node ids double as the group tag: group [g] owns ids
    [g * replicas .. (g + 1) * replicas - 1], so every RPC routed
    through {!Raft.Replication.transmit} is implicitly group-addressed
    and {!group_of_node} is a single division — no envelope type, no
    demux table.

    Metrics scopes are prefixed ["g<g>/"] per group (["g3/raft"]), so N
    groups share one {!Telemetry.Metrics.t} without clobbering; the
    manager additionally registers [multiraft/groups] and
    [multiraft/replicas] gauges. *)

type t

val create :
  ?seed:int64 ->
  ?costs:Raft.Cost_model.t ->
  ?cores:float ->
  ?conditions:Netsim.Conditions.t ->
  ?flush_delay:Des.Time.span ->
  ?check:Check.mode ->
  ?telemetry:Telemetry.Metrics.t ->
  ?recorder:Telemetry.Recorder.t ->
  groups:int ->
  replicas:int ->
  config:Raft.Config.t ->
  unit ->
  t
(** [groups] clusters of [replicas] servers each, every server running
    [config].  [conditions] applies to each group's internal links
    (groups never talk to each other, so cross-group pairs are never
    touched).  [check] creates one checker per group; all are stepped
    from the single engine post hook.  Raises [Invalid_argument] unless
    [groups] and [replicas] are positive. *)

val engine : t -> Des.Engine.t
val fabric : t -> Raft.Rpc.message Netsim.Fabric.t
val telemetry : t -> Telemetry.Metrics.t
val group_count : t -> int
val replicas : t -> int

val group : t -> int -> Harness.Cluster.t
(** The [g]-th group.  Raises [Invalid_argument] when out of range. *)

val node_base : t -> int -> int
(** First fabric node id owned by group [g] (= [g * replicas]). *)

val group_of_node : t -> Netsim.Node_id.t -> int
(** The group owning a fabric node id (for leader hints carried in
    [`Not_leader] replies).  Raises [Invalid_argument] for ids outside
    every group. *)

val iter_groups : t -> (int -> Harness.Cluster.t -> unit) -> unit

val start : t -> unit
(** Start every node of every group. *)

val run_for : t -> Des.Time.span -> unit
val now : t -> Des.Time.t

val leaderless : t -> int
(** Number of groups currently without a live leader. *)

val await_leaders : t -> timeout:Des.Time.span -> bool
(** Run the engine until every group has a leader (millisecond polling)
    or the timeout elapses; [true] when all groups elected. *)

val leader_distribution : t -> int array
(** Leadership placement by replica slot: cell [i] counts the groups
    whose current leader is their [i]-th replica.  Sums to
    [group_count - leaderless]. *)

val digest : t -> int64
(** {!Check.Digest.combine} of the per-group trace digests, in group
    order — the multiraft determinism sanitizer ([--jobs 1] and
    [--jobs N] sweeps must agree). *)

val check_now : t -> unit
(** Run every group's full invariant battery.  Raises
    {!Check.Violation}. *)

val collect_metrics : t -> unit
(** Fold the shared engine/fabric statistics into the registry, once
    (scopes ["des"], ["net"], ["link"], ["fabric"] — unprefixed: the
    infrastructure is global, unlike the per-group ["g<g>/…"] scopes).
    Subsequent calls are no-ops. *)
