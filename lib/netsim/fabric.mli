(** The cluster's message fabric: a full mesh of directed links.

    Generic in the message type so the Raft layer supplies its own RPC
    variant.  Each directed pair's state (its {!Link}, with its own PRNG
    substream, reliable channel, serialization delay and egress queue)
    is one record, created the first time the pair is configured
    ({!set_conditions}) or carries a message; creating it requires both
    endpoints to be registered.  The fabric applies transport semantics
    and implements
    the fault model of the paper's experiments: pausing a node (the
    container-sleep fault) silently discards everything addressed to it. *)

type 'msg t

val create : Des.Engine.t -> 'msg t
val engine : _ t -> Des.Engine.t

val add_node : 'msg t -> Node_id.t -> unit
(** Register a node.  Adding the same id twice is an error. *)

val remove_node : 'msg t -> Node_id.t -> unit
(** Deregister a node: its state, handler and every link or channel
    touching it are discarded, so a node re-added under the same id gets
    fresh per-link delay/loss models.  Messages already in flight toward
    it are dropped on arrival (counted as [dropped_paused]); new sends to
    it are counted as [lost].  Removing an unknown id is an error. *)

val nodes : _ t -> Node_id.t list

val set_handler : 'msg t -> Node_id.t -> (src:Node_id.t -> 'msg -> unit) -> unit
(** Install the delivery callback for a node. *)

val set_conditions :
  'msg t -> src:Node_id.t -> dst:Node_id.t -> Conditions.t -> unit
(** Conditions for the directed link [src → dst].  Both endpoints must
    be registered ([Invalid_argument] otherwise). *)

val set_pair_conditions :
  'msg t -> Node_id.t -> Node_id.t -> Conditions.t -> unit
(** Same conditions in both directions. *)

val set_uniform_conditions : 'msg t -> Conditions.t -> unit
(** Same conditions on every directed link between registered nodes. *)

val send :
  'msg t ->
  Transport.kind ->
  ?lane:Transport.lane ->
  ?units:int ->
  cause:int ->
  src:Node_id.t ->
  dst:Node_id.t ->
  'msg ->
  unit
(** Transmit a message.  Self-sends are delivered immediately.  [cause]
    is the message's causal token ([0] = none), read back by the
    receiver with {!delivery_cause}.

    When the link has a serialization delay configured
    ({!set_uniform_serialization}), the message first queues at the sender's
    egress and occupies the wire for [units x serialization] (default
    [units = 1]) before the link's propagation model applies; [lane]
    (default [Urgent]) picks the egress class — urgent messages depart
    before anything waiting in the bulk lane.  Without a serialization
    delay the egress queue does not exist, [lane]/[units] are ignored,
    and the send path is identical to the pre-lane fabric. *)

val set_uniform_serialization : 'msg t -> Des.Time.span -> unit
(** Per-message wire time (per {!send} unit) on every directed link,
    including future ones.  [0] (the default) disables the egress queue
    entirely; a link's queue is made at its first serialized send. *)

val set_dup_clone : 'msg t -> ('msg -> 'msg) -> unit
(** Copy function applied to the {e second} delivery of a duplicated
    datagram (identity by default).  A host that pools message payloads
    must install one: the two deliveries otherwise share a record, and
    releasing it after the first delivery could recycle the copy the
    second still holds.  The clone must be value-identical, so digests
    cannot observe it. *)

val pending : 'msg t -> src:Node_id.t -> dst:Node_id.t -> int
(** Messages queued at (or occupying) the [src -> dst] egress right now:
    the per-destination congestion signal a sender throttles bulk
    traffic on.  Always [0] on a link without serialization. *)

val link_queue_depths : _ t -> ((int * int) * int) list
(** High-water egress queue depth per directed link, keyed by
    [(src, dst)] node ints and sorted by that key.  Links that never
    sent under a serialization delay are absent. *)

(** {2 Causal piggyback}

    The forensics layer threads an opaque cause token alongside each
    message: the sender passes it to {!send}, the fabric carries it
    through egress queues and link delays as an immediate int, and the
    receiver reads it back with {!delivery_cause} from inside its
    delivery handler.  Tokens are plain nonzero ints (packed by the
    telemetry layer, which this library cannot depend on); [0] means
    "no cause". *)

val delivery_cause : _ t -> int
(** The cause of the delivery currently in progress ([0] outside a
    delivery that carries one).  Only meaningful when called
    synchronously from a handler installed with {!set_handler}. *)

val set_egress_congestion : 'msg t -> Node_id.t -> Congestion.spec -> unit
(** Attach a sender-side congestion process to a node: during an episode,
    everything the node sends (all links, both transports) incurs the
    episode's extra one-way delay. *)

val set_all_egress_congestion : 'msg t -> Congestion.spec -> unit
(** Independent congestion processes on every registered node. *)

val partition : 'msg t -> Node_id.t list list -> unit
(** Split the cluster into groups: messages are delivered only between
    nodes of the same group.  Nodes not mentioned form an implicit final
    group.  Replaces any previous partition. *)

val heal_partition : 'msg t -> unit
(** Remove the partition; full connectivity is restored. *)

val reachable : 'msg t -> Node_id.t -> Node_id.t -> bool
(** Whether messages currently flow from one node to the other. *)

val pause : 'msg t -> Node_id.t -> unit
(** Start dropping every message delivered to the node. *)

val resume : 'msg t -> Node_id.t -> unit

type counters = {
  sent : int;
  delivered : int;
  lost : int;  (** dropped by link loss (datagram only) *)
  dropped_paused : int;  (** addressed to a paused node *)
  duplicated : int;
}

val counters : _ t -> counters

val link_counters : _ t -> ((int * int) * Link.counters) list
(** Per-link statistics for every link created so far, keyed by
    [(src, dst)] node ints and sorted by that key, so snapshots built
    from it are deterministic.  A link is created when its pair is first
    configured ({!set_conditions}, {!set_pair_conditions},
    {!set_uniform_conditions}) or first carries a message: a pair that
    was neither is absent, a configured pair that stayed silent is
    listed with zero counts. *)
