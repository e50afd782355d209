(** The Raft layer's only gateway to {!Netsim.Fabric.send}.

    Classifies outgoing RPCs into the fabric's two egress lanes and
    sizes their serialization cost, so that on links with a wire model
    ({!Netsim.Fabric.set_uniform_serialization}) control traffic overtakes
    queued replication bursts.  The [raw_fabric_send] alert on
    {!Netsim.Fabric.send}, an error in lib/, keeps every other module
    from sending directly. *)

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
    token; [0] = none) is passed straight to {!Netsim.Fabric.send},
    which hands it to the receiver's delivery handler as its causal
    parent. *)
