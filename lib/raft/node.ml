module Node_id = Netsim.Node_id

(* Outstanding client requests by (client_id, seq).  Monomorphic: a
   lookup hashes and compares two ints, where a polymorphic table pays
   [caml_hash] and [compare_val] on the pair. *)
module Waiters = Hashtbl.Make (struct
  type t = int * int

  let equal (c1, s1) (c2, s2) = Int.equal c1 c2 && Int.equal s1 s2
  let hash (c, s) = ((c * 65_599) + s) land max_int
end)

type t = {
  engine : Des.Engine.t;
  fabric : Rpc.message Netsim.Fabric.t;
  mutable server : Server.t;
  peers : Node_id.t list;
  config : Config.t;
  rng : Stats.Rng.t;
  trace : Probe.t Des.Mtrace.t;
  cpu : Netsim.Cpu.t;
  costs : Cost_model.t;
  election_timer : Des.Timer.t;
  broadcast_timer : Des.Timer.t;
  quorum_timer : Des.Timer.t;
  flush_timer : Des.Timer.t;
  (* indexed by [Node_id.to_int peer]: the per-follower heartbeat timer
     is re-armed on every beat, so the lookup must not hash *)
  mutable hb_timers : Des.Timer.t option array;
  waiters : (committed:bool -> unit) Waiters.t;
  apply : Log.entry -> unit;
  snapshot_of : unit -> string;
  install_sm : string -> unit;
  instrumented : bool;
  fo : Forensics.t;
  fo_on : bool;
  mutable cur_cause : int;
      (* the causal token of the event being processed: stamped at every
         timer fire / message delivery, read by every ring record and
         piggybacked on every send *)
  mutable election_arm_cause : int;
      (* [cur_cause] when the election timer was last armed — the parent
         of the timeout that fires from it *)
  m_inflight : Telemetry.Metrics.Gauge.t;
  m_batch : Telemetry.Metrics.Histogram.t;
  mutable paused : bool;
  mutable incarnation : int;
      (* bumped on every crash-recovery: volatile server state does not
         survive a restart, and observers (the invariant checker) must
         reset their volatile baselines when this changes *)
  scratch : Server.event;
      (* the one [Server.Message] every delivery is dispatched through,
         filled when its receive work completes *)
  deliver_op : (t, Rpc.message) Des.Engine.op;
  work_op : (t, Server.event) Des.Engine.op;
}

let id t = Server.id t.server
let server t = t.server
let cpu t = t.cpu
let is_paused t = t.paused
let incarnation t = t.incarnation

(* Answer the client waiting on (client_id, seq), if this node holds it.
   Only a node that accepted requests holds waiters, so a follower
   applying the same entries skips the lookup. *)
let complete t ~client_id ~seq ~committed =
  if Waiters.length t.waiters > 0 then begin
    let key = (client_id, seq) in
    match Waiters.find_opt t.waiters key with
    | Some k ->
        Waiters.remove t.waiters key;
        k ~committed
    | None -> ()
  end

(* The one ring write: [ev] stamped with the instant, this node, [term],
   the causal context of the event being processed and [parent]. *)
let record t ~term ~parent ev =
  Forensics.record t.fo ~at:(Des.Engine.now t.engine) ~node:(id t) ~term
    ~cause:t.cur_cause ~parent ev

(* The one probe emission path: record the probe in the ring, then emit
   it to the trace.  Terms come from the probe where it carries one: by
   the time actions are interpreted the server may already have moved
   on (a timeout increments the term before its probe is seen here). *)
let emit t p =
  if t.fo_on then begin
    let term, parent =
      match p with
      | Probe.Timeout_expired { term; _ } | Probe.Election_started { term; _ }
        ->
          (term, t.election_arm_cause)
      | Probe.Role_change { term; _ }
      | Probe.Pre_vote_aborted { term; _ }
      | Probe.Config_change { term; _ }
      | Probe.Transfer_started { term; _ }
      | Probe.Transfer_aborted { term; _ } ->
          (term, Telemetry.Cause.none)
      | Probe.Tuner_reset _ | Probe.Tuner_decision _ | Probe.Node_paused _
      | Probe.Node_resumed _ ->
          (Server.term t.server, Telemetry.Cause.none)
    in
    record t ~term ~parent (Forensics.Probe p)
  end;
  Des.Mtrace.emit t.trace p

(* How long the replication flush timer coalesces [Request_flush]es. *)
let flush_delay = Des.Time.ms 1

let[@hot] rec dispatch t event =
  let actions = Server.handle t.server ~now:(Des.Engine.now t.engine) event in
  interpret_all t actions

(* Hand-rolled [List.iter (interpret t)]: dispatch runs once per event,
   and the partial application would allocate a closure every time. *)
and interpret_all t = function
  | [] -> ()
  | action :: rest ->
      interpret t action;
      interpret_all t rest
  [@@hot]

(* A fresh cause for a locally originated event (timer fire, client
   request, fault), stamped as the current causal context. *)
and new_cause t kind =
  t.cur_cause <-
    Forensics.new_cause t.fo ~kind
      ~node:(Netsim.Node_id.to_int (Server.id t.server))
      ~term:(Server.term t.server)

and interpret t = function
  | Server.Send { dst; kind; msg } ->
      if t.instrumented then begin
        match msg with
        | Rpc.Append_request { entries; _ } when Array.length entries > 0 ->
            Telemetry.Metrics.Histogram.observe t.m_batch
              (float_of_int (Array.length entries));
            Telemetry.Metrics.Gauge.set_max t.m_inflight
              (float_of_int (Server.appends_inflight t.server))
        | Rpc.Append_request _ | Rpc.Vote_request _ | Rpc.Vote_response _
        | Rpc.Append_response _ | Rpc.Heartbeat _ | Rpc.Heartbeat_response _
        | Rpc.Install_snapshot _ | Rpc.Install_snapshot_response _
        | Rpc.Timeout_now _ ->
            ()
      end;
      Netsim.Cpu.charge t.cpu
        ~cost:
          (Cost_model.message_send_cost t.costs
             ~tuning_active:(Server.tuning_active t.server)
             msg);
      Replication.transmit t.fabric
        ~lanes:t.config.Config.priority_lanes
        ~cause:t.cur_cause
        ~src:(id t) ~dst kind msg
  | Server.Arm_election span ->
      if t.fo_on then t.election_arm_cause <- t.cur_cause;
      Des.Timer.arm t.election_timer span
  | Server.Disarm_election -> Des.Timer.disarm t.election_timer
  | Server.Arm_heartbeat { peer; after } ->
      Des.Timer.arm (hb_timer t peer) after
  | Server.Arm_broadcast after -> Des.Timer.arm t.broadcast_timer after
  | Server.Arm_quorum_check after -> Des.Timer.arm t.quorum_timer after
  | Server.Disarm_heartbeats -> disarm_heartbeats t
  | Server.Request_flush ->
      if not (Des.Timer.is_armed t.flush_timer) then
        Des.Timer.arm t.flush_timer flush_delay
  | Server.Commit entries ->
      Array.iter
        (fun (entry : Log.entry) ->
          Netsim.Cpu.charge t.cpu ~cost:t.costs.Cost_model.apply;
          t.apply entry;
          match entry.command with
          | Log.Noop | Log.Config _ -> ()
          | Log.Data { client_id; seq; _ } ->
              complete t ~client_id ~seq ~committed:true)
        entries
  | Server.Take_snapshot { upto } ->
      let data = t.snapshot_of () in
      dispatch t (Server.Snapshot_ready { upto; data })
  | Server.Install_sm { data; last_index = _ } -> t.install_sm data
  | Server.Serve_read { client_id; seq; read_index = _ } ->
      complete t ~client_id ~seq ~committed:true
  | Server.Reject_proposal { client_id; seq } ->
      complete t ~client_id ~seq ~committed:false
  | Server.Probe p -> emit t p

(* The one body every node timer fires through: a paused node ignores
   the fire; otherwise it charges the CPU's [timer_fire] cost when
   [charge] is set, roots a fresh cause of [kind], and dispatches
   [event]. *)
and fire t ~charge kind event =
  if not t.paused then begin
    if charge then Netsim.Cpu.charge t.cpu ~cost:t.costs.Cost_model.timer_fire;
    if t.fo_on then new_cause t kind;
    dispatch t event
  end

(* The one timer constructor.  The event is built here, once per timer,
   so a fire allocates no [Server.event]. *)
and timer engine (t : t Lazy.t) ~charge kind event =
  Des.Timer.create engine (fun () -> fire (Lazy.force t) ~charge kind event)

and disarm_heartbeats t =
  Des.Timer.disarm t.broadcast_timer;
  Array.iter
    (function Some timer -> Des.Timer.disarm timer | None -> ())
    t.hb_timers

and hb_timer t peer =
  let i = Node_id.to_int peer in
  if i >= Array.length t.hb_timers then begin
    let bigger = Array.make (i + 8) None in
    Array.blit t.hb_timers 0 bigger 0 (Array.length t.hb_timers);
    t.hb_timers <- bigger
  end;
  match t.hb_timers.(i) with
  | Some timer -> timer
  | None ->
      let hb =
        timer t.engine (Lazy.from_val t) ~charge:true
          Telemetry.Cause.Heartbeat_timer (Server.Heartbeat_due peer)
      in
      t.hb_timers.(i) <- Some hb;
      hb

(* A delivery's receive work has completed: fill the scratch event now,
   not when the work was enqueued, so each message queued behind a busy
   CPU keeps its own sender.  Reusing one event is safe because
   [Server.handle] consumes its fields at entry, before any action it
   returns can start another delivery.  A node paused while the work
   waited drops the message. *)
let deliver t msg src =
  if not t.paused then begin
    (match t.scratch with
    | Server.Message m ->
        m.from <- Node_id.of_int src;
        m.msg <- msg
    | Server.Election_timeout_fired | Server.Heartbeat_due _
    | Server.Broadcast_due | Server.Quorum_check_due | Server.Flush_due
    | Server.Propose _ | Server.Read _ | Server.Transfer_leadership _
    | Server.Snapshot_ready _ | Server.Restarted ->
        assert false);
    dispatch t t.scratch
  end

(* A client request's work has completed.  Unlike a delivery it does not
   re-check [paused]. *)
let work t event (_ : int) = dispatch t event

(* Datagram heartbeats arrive on a bounded socket buffer: when the node's
   CPU cannot keep up, the buffer overflows and the datagram is silently
   lost (the cost Dynatune pays for taking heartbeats off the reliable
   stream).  A few milliseconds of backlog stands in for a ~200 KB UDP
   receive buffer. *)
let udp_drop_backlog = Des.Time.ms 4

let datagram_overflow t msg =
  (match Config.heartbeat_transport (Server.config t.server) with
  | Netsim.Transport.Datagram -> (
      match msg with
      | Rpc.Heartbeat _ | Rpc.Heartbeat_response _ ->
          Netsim.Cpu.backlog t.cpu > udp_drop_backlog
      | Rpc.Vote_request _ | Rpc.Vote_response _ | Rpc.Append_request _
      | Rpc.Append_response _ | Rpc.Install_snapshot _
      | Rpc.Install_snapshot_response _ | Rpc.Timeout_now _ ->
          false)
  | Netsim.Transport.Reliable -> false)

(* The egress-depth probe a node's server throttles bulk appends on. *)
let congestion fabric src dst = Netsim.Fabric.pending fabric ~src ~dst

let create ~fabric ~trace ?cpu ?(costs = Cost_model.zero) ?apply ?snapshot_of
    ?install_sm ?(metrics = Telemetry.Metrics.noop)
    ?(forensics = Forensics.create ~enabled:false ()) ?(joining = false) ?pool
    ~id:node_id ~peers ~config () =
  let engine = Netsim.Fabric.engine fabric in
  let node_label = "n" ^ string_of_int (Node_id.to_int node_id) in
  let cpu =
    match cpu with Some c -> c | None -> Netsim.Cpu.passthrough engine
  in
  let rng =
    Stats.Rng.split_int
      (Stats.Rng.split (Des.Engine.rng engine) "raft-node")
      (Node_id.to_int node_id)
  in
  let instrumented = Telemetry.Metrics.enabled metrics in
  let server =
    Server.create ~joining ?pool ~instrument:instrumented
      ~congestion:(congestion fabric node_id) ~id:node_id ~peers ~config
      ~rng:(Stats.Rng.copy rng) ()
  in
  let deliver_op =
    Des.Engine.cached_op engine ~slot:Des.Engine.slot_node_deliver (fun () ->
        Des.Engine.register_op engine deliver)
  in
  let work_op =
    Des.Engine.cached_op engine ~slot:Des.Engine.slot_node_work (fun () ->
        Des.Engine.register_op engine work)
  in
  let apply = match apply with Some f -> f | None -> fun _ -> () in
  let snapshot_of = match snapshot_of with Some f -> f | None -> fun () -> "" in
  let install_sm = match install_sm with Some f -> f | None -> fun _ -> () in
  let rec t =
    lazy
      {
        engine;
        fabric;
        server;
        peers;
        config;
        rng;
        trace;
        cpu;
        costs;
        election_timer =
          timer engine t ~charge:true Telemetry.Cause.Election_timer
            Server.Election_timeout_fired;
        broadcast_timer =
          timer engine t ~charge:true Telemetry.Cause.Heartbeat_timer
            Server.Broadcast_due;
        quorum_timer =
          timer engine t ~charge:false Telemetry.Cause.Internal
            Server.Quorum_check_due;
        flush_timer =
          timer engine t ~charge:false Telemetry.Cause.Internal Server.Flush_due;
        hb_timers = [||];
        waiters = Waiters.create 64;
        instrumented;
        fo = forensics;
        fo_on = Forensics.enabled forensics;
        cur_cause = 0;
        election_arm_cause = 0;
        m_inflight =
          Telemetry.Metrics.gauge metrics ~scope:"raft"
            ~name:"appends_inflight" ~node:node_label ();
        m_batch =
          Telemetry.Metrics.histogram metrics ~scope:"raft"
            ~name:"append_batch_size" ~node:node_label ~lo:0. ~hi:1024.
            ~bins:64 ();
        apply;
        snapshot_of;
        install_sm;
        paused = false;
        incarnation = 0;
        scratch =
          Server.Message
            { from = node_id; msg = Rpc.Timeout_now { term = 0 } };
        deliver_op;
        work_op;
      }
  in
  let t = Lazy.force t in
  (* The receiver releases delivered payloads into its pool, so the
     second copy of a duplicated datagram must be a distinct record. *)
  Netsim.Fabric.set_dup_clone fabric Rpc.Pool.clone_for_dup;
  (* Every delivery takes this one path.  The receive work goes through
     the CPU model; a passthrough CPU runs [deliver] before [execute]
     returns, so the message is dispatched synchronously. *)
  Netsim.Fabric.set_handler fabric node_id (fun ~src ~cause msg ->
      if not t.paused then
        if datagram_overflow t msg then ()
        else begin
          if t.fo_on then begin
            (* Adopt the sender's cause as our causal context (under a
               CPU cost model [execute] may defer the dispatch, in which
               case a later delivery can overwrite it — the forensics
               scenarios run without a cost model). *)
            t.cur_cause <- cause;
            match msg with
            | Rpc.Vote_response { granted; pre_vote; _ } ->
                record t ~term:(Server.term t.server)
                  ~parent:Telemetry.Cause.none
                  (Forensics.Vote { from = src; granted; pre = pre_vote })
            | Rpc.Heartbeat _ | Rpc.Heartbeat_response _ | Rpc.Vote_request _
            | Rpc.Append_request _ | Rpc.Append_response _
            | Rpc.Install_snapshot _ | Rpc.Install_snapshot_response _
            | Rpc.Timeout_now _ ->
                ()
          end;
          Netsim.Cpu.execute t.cpu
            ~cost:
              (Cost_model.message_recv_cost t.costs
                 ~tuning_active:(Server.tuning_active t.server)
                 msg)
            t.deliver_op t msg (Node_id.to_int src)
        end);
  t

let start t =
  if t.fo_on then new_cause t Telemetry.Cause.Internal;
  interpret_all t (Server.start t.server)

(* Fault-injection transitions root fresh causal chains: whatever the
   cluster does next — elections after a leader pause, catch-up after a
   resume — traces back to this probe's record. *)
let emit_fault t p =
  if t.fo_on then new_cause t Telemetry.Cause.Fault;
  emit t p

let submit t ~payload ~client_id ~seq ~on_result () =
  if t.paused || not (Types.is_leader (Server.role t.server)) then
    `Not_leader (Server.leader t.server)
  else begin
    Waiters.replace t.waiters (client_id, seq) on_result;
    if t.fo_on then new_cause t Telemetry.Cause.Client;
    Netsim.Cpu.execute t.cpu ~cost:t.costs.Cost_model.propose t.work_op t
      (Server.Propose { payload; client_id; seq })
      0;
    `Accepted
  end

let read t ~client_id ~seq ~on_result () =
  if t.paused || not (Types.is_leader (Server.role t.server)) then
    `Not_leader (Server.leader t.server)
  else begin
    Waiters.replace t.waiters (client_id, seq) on_result;
    if t.fo_on then new_cause t Telemetry.Cause.Client;
    Netsim.Cpu.execute t.cpu ~cost:t.costs.Cost_model.apply t.work_op t
      (Server.Read { client_id; seq })
      0;
    `Accepted
  end

let transfer_leadership t target =
  if t.paused || not (Types.is_leader (Server.role t.server)) then `Not_leader
  else begin
    if t.fo_on then new_cause t Telemetry.Cause.Internal;
    dispatch t (Server.Transfer_leadership target);
    `Ok
  end

let reconfigure t change =
  if t.paused || not (Types.is_leader (Server.role t.server)) then `Not_leader
  else begin
    if t.fo_on then new_cause t Telemetry.Cause.Internal;
    let actions, result =
      Server.reconfigure t.server ~now:(Des.Engine.now t.engine) change
    in
    interpret_all t actions;
    result
  end

let pause t =
  t.paused <- true;
  Netsim.Fabric.pause t.fabric (id t);
  emit_fault t (Probe.Node_paused { id = id t })

let resume t =
  t.paused <- false;
  Netsim.Fabric.resume t.fabric (id t);
  emit_fault t (Probe.Node_resumed { id = id t });
  dispatch t Server.Restarted

let disarm_all t =
  Des.Timer.disarm t.election_timer;
  Des.Timer.disarm t.quorum_timer;
  Des.Timer.disarm t.flush_timer;
  disarm_heartbeats t

let crash t =
  t.paused <- true;
  Netsim.Fabric.pause t.fabric (id t);
  disarm_all t;
  (* Outstanding client requests die with the process. *)
  let pending = Waiters.fold (fun _ k acc -> k :: acc) t.waiters [] in
  Waiters.reset t.waiters;
  List.iter (fun k -> k ~committed:false) pending;
  emit_fault t (Probe.Node_paused { id = id t })

let restart t =
  let restore = Server.persisted t.server in
  let role = Server.role t.server in
  (* A fresh PRNG substream keyed by the restart instant: deterministic,
     but not a replay of the pre-crash randomized-timeout draws. *)
  let rng = Stats.Rng.split_int t.rng (Des.Engine.now t.engine) in
  t.server <-
    Server.create ~restore ~pool:(Server.pool t.server)
      ~instrument:t.instrumented ~congestion:(congestion t.fabric (id t))
      ~id:(id t) ~peers:t.peers ~config:t.config ~rng ();
  t.incarnation <- t.incarnation + 1;
  (* Seed the state machine from the persisted snapshot; entries above
     the boundary are replayed as the leader re-teaches the commit
     point. *)
  (match restore.Server.snapshot with
  | Some (_, _, data) -> t.install_sm data
  | None -> ());
  (* The fresh server boots as a follower: a crashed leader comes back
     without its leadership, and observers see the role change before
     the node is live again. *)
  let fresh = Server.role t.server in
  if not (Types.equal_role role fresh) then
    emit_fault t
      (Probe.Role_change
         { id = id t; role = fresh; term = Server.term t.server });
  t.paused <- false;
  Netsim.Fabric.resume t.fabric (id t);
  emit_fault t (Probe.Node_resumed { id = id t });
  interpret_all t (Server.start t.server)
