(** A Raft server bound to the simulation: timers, network, CPU, trace.

    [Node] owns the election timer, the heartbeat timer(s) (one per
    follower under Dynatune, a single broadcast timer under static Raft —
    the very asymmetry whose cost Section IV-E discusses), the replication
    flush timer, and the fault switch that models the paper's
    container-sleep leader failures. *)

type t

val create :
  fabric:Rpc.message Netsim.Fabric.t ->
  trace:Probe.t Des.Mtrace.t ->
  ?cpu:Netsim.Cpu.t ->
  ?costs:Cost_model.t ->
  ?apply:(Log.entry -> unit) ->
  ?snapshot_of:(unit -> string) ->
  ?install_sm:(string -> unit) ->
  ?metrics:Telemetry.Metrics.t ->
  ?forensics:Forensics.t ->
  ?joining:bool ->
  ?pool:Rpc.Pool.t ->
  id:Netsim.Node_id.t ->
  peers:Netsim.Node_id.t list ->
  config:Config.t ->
  unit ->
  t
(** Create a node and register it on the fabric (which must already know
    the id).  With [joining] (default false) the node starts outside the
    cluster configuration and becomes a member only when the leader's
    [Add_learner] entry reaches it (see {!Server.create}).  [cpu]
    defaults to a passthrough CPU, [costs] to {!Cost_model.zero}.
    Replication flushes coalesce for 1 ms.  [apply] is invoked for every
    committed entry, in log order.  When log compaction is enabled
    ({!Config.with_snapshots}), [snapshot_of] must serialize the current
    state machine and [install_sm] must replace it with a received
    serialization.

    [metrics] (default {!Telemetry.Metrics.noop}) receives per-node RPC
    counters ([rpc/sent], [rpc/recv]) and the heartbeat round-trip
    histogram ([rpc/hb_rtt_ms]); when it is enabled the node also turns
    on [Server.set_instrument] (and keeps it on across {!restart}), so
    tuner decisions reach the trace.

    [forensics] (default: a disabled ring) receives every probe the
    node emits, causally stamped: every timer fire, client request and
    injected fault mints a fresh {!Telemetry.Cause.t}, sends piggyback
    the current cause across the fabric, and each probe is recorded
    with it just before it reaches [trace].  When enabled the node turns
    on the fabric's cause tracking; when disabled every added branch is
    on a cached [bool] and the node allocates exactly what it did
    before.

    [pool] is the message free-list handed to {!Server.create} (and kept
    across {!restart}); a cluster passes one shared pool to all its
    nodes so records released at receivers refill the senders. *)

val start : t -> unit
(** Arm the initial election timer.  Call once, on every node, before
    running the engine. *)

val server : t -> Server.t
(** The underlying protocol state machine (read-only use expected). *)

val id : t -> Netsim.Node_id.t
val cpu : t -> Netsim.Cpu.t

val submit :
  t ->
  payload:string ->
  client_id:int ->
  seq:int ->
  on_result:(committed:bool -> unit) ->
  unit ->
  [ `Accepted | `Not_leader of Netsim.Node_id.t option ]
(** Offer a client command.  [`Accepted] means the command entered the
    leader's log; [on_result ~committed:true] fires when it commits.
    [`Not_leader] reports the believed leader for redirect. *)

val read :
  t ->
  client_id:int ->
  seq:int ->
  on_result:(committed:bool -> unit) ->
  unit ->
  [ `Accepted | `Not_leader of Netsim.Node_id.t option ]
(** Register a linearizable read (ReadIndex protocol): [on_result
    ~committed:true] fires once leadership has been re-confirmed by a
    quorum and the local state machine covers the read point — read the
    state machine {e in that callback}.  Rejected if leadership is lost
    first. *)

val transfer_leadership : t -> Netsim.Node_id.t -> [ `Ok | `Not_leader ]
(** Ask the leader to hand leadership to [target] (etcd's MoveLeader):
    once the target is caught up it is told to campaign immediately,
    bypassing pre-vote and leases, so the hand-off completes in about
    one round trip with no out-of-service window.  Proposals are
    rejected while the transfer is in flight. *)

val reconfigure : t -> Log.change -> Server.reconfigure_result
(** Submit a single-server membership change to this node (which must be
    the leader).  The change takes effect as soon as it is appended;
    [`Ok index] reports the config entry's log index. *)

val pause : t -> unit
(** Freeze the node: its timers stop acting and the fabric drops its
    inbound messages (the paper's container-sleep fault). *)

val resume : t -> unit
(** Unfreeze; the server re-arms its timers and rejoins. *)

val is_paused : t -> bool

val incarnation : t -> int
(** Number of crash-recoveries this node has been through.  The protocol
    state machine is replaced wholesale by {!restart}; observers that
    track volatile quantities (commit index, role) across checks use
    this to detect the replacement and reset their baselines. *)

val crash : t -> unit
(** Crash the node: like {!pause}, but volatile state (role, commit
    index, measurement windows, outstanding client waiters — rejected)
    will be lost.  Only the Raft-persistent state (term, vote, log)
    survives, as if read back from a WAL on disk. *)

val restart : t -> unit
(** Recover a crashed node from its persisted state: it rejoins as a
    follower at its last term with an empty measurement window and
    commit index 0, re-learning the commit point from the leader (the
    crash-recovery model of the paper's Section III-A). *)
