(* The single seam between the Raft layer and the fabric's egress.
   Every RPC a node sends leaves through [transmit], which classifies it
   into a wire lane and sizes its serialization cost; nothing else in
   lib/raft may call [Netsim.Fabric.send] (the analyzer's
   raw-fabric-send rule), so bulk
   replication traffic cannot bypass the priority/backpressure policy. *)

(* Control traffic — heartbeats, votes, acks, TimeoutNow, and the empty
   consistency probes — rides the urgent lane: it is what election
   timers and the tuner's RTT estimate live on, and it must not sit
   behind a queued replication burst.  Only payload-bearing transfers
   (entry batches and snapshots) are bulk. *)
let lane_of (msg : Rpc.message) =
  match msg with
  | Rpc.Append_request { entries; _ } when Array.length entries > 0 ->
      Netsim.Transport.Bulk
  | Rpc.Install_snapshot _ -> Netsim.Transport.Bulk
  | Rpc.Append_request _ | Rpc.Vote_request _ | Rpc.Vote_response _
  | Rpc.Append_response _ | Rpc.Heartbeat _ | Rpc.Heartbeat_response _
  | Rpc.Install_snapshot_response _ | Rpc.Timeout_now _ ->
      Netsim.Transport.Urgent

(* Serialization units: one per message frame, plus one per entry
   carried (a snapshot counts its payload in 256-byte frames).  Only
   meaningful on links with a serialization delay configured. *)
let wire_units (msg : Rpc.message) =
  match msg with
  | Rpc.Append_request { entries; _ } -> 1 + Array.length entries
  | Rpc.Install_snapshot { data; _ } -> 1 + ((String.length data + 255) / 256)
  | Rpc.Vote_request _ | Rpc.Vote_response _ | Rpc.Append_response _
  | Rpc.Heartbeat _ | Rpc.Heartbeat_response _
  | Rpc.Install_snapshot_response _ | Rpc.Timeout_now _ ->
      1

(* [cause] piggybacks the sender's causal token on the message (0 = no
   cause, the common case): the fabric carries it next to the frame and
   re-surfaces it at the receiver's delivery handler, so causal chains
   cross the network without the RPC variants growing a field every
   send would have to fill. *)
let transmit fabric ~lanes ~cause ~src ~dst kind msg =
  let lane = if lanes then lane_of msg else Netsim.Transport.Urgent in
  Netsim.Fabric.send fabric kind ~lane ~units:(wire_units msg) ~cause ~src ~dst
    msg
