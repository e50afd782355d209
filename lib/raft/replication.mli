(** The Raft layer's only gateway to {!Netsim.Fabric.send}.

    Classifies outgoing RPCs into the fabric's two egress lanes and
    sizes their serialization cost, so that on links with a wire model
    ({!Netsim.Fabric.set_serialization}) control traffic overtakes
    queued replication bursts.  The analyzer's [raw-fabric-send] rule
    keeps every other module in [lib/raft] from sending directly. *)

val lane_of : Rpc.message -> Netsim.Transport.lane
(** [Bulk] for payload-bearing transfers (entry-carrying AppendEntries,
    InstallSnapshot); [Urgent] for everything else, including the empty
    consistency probes. *)

val wire_units : Rpc.message -> int
(** Serialization units: 1 per frame plus 1 per entry carried (snapshot
    payloads count in 256-byte frames). *)

val transmit :
  Rpc.message Netsim.Fabric.t ->
  lanes:bool ->
  cause:int ->
  src:Netsim.Node_id.t ->
  dst:Netsim.Node_id.t ->
  Netsim.Transport.kind ->
  Rpc.message ->
  unit
(** Send one RPC.  With [lanes:false] everything departs urgent — one
    FIFO, the priority-lane ablation.  [cause] (a {!Telemetry.Cause.t}
    token; [0] = none) is staged on the fabric so the receiver's
    delivery handler can read its causal parent — see
    {!Netsim.Fabric.stage_cause}. *)
