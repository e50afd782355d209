type counters = {
  sent : int;
  delivered : int;
  lost : int;
  dropped_paused : int;
  duplicated : int;
}

type 'msg node_state = {
  mutable handler : (src:Node_id.t -> cause:int -> 'msg -> unit) option;
  mutable paused : bool;
  mutable island : int;
      (* messages flow only between nodes on one island; 0 is the one
         every node starts on and [heal] returns it to *)
  mutable congestion : Congestion.t option;
  mutable alive : bool;
      (* cleared by [remove_node]; in-flight deliveries that still hold
         a port to this node check it and count as dropped *)
}

(* Egress scheduling state for one directed link, allocated only when a
   serialization delay is configured.  Two FIFO lanes: urgent messages
   depart before anything queued in the bulk lane; within a lane, send
   order (the engine's sequence order) breaks ties, so the schedule is a
   pure function of the send sequence. *)
type 'msg egress = {
  mutable busy : bool;  (* a message currently occupies the wire *)
  mutable wire_kind : Transport.kind;
  mutable wire_msg : 'msg;
      (* the message on the wire while [busy] (afterwards the last one
         sent, until the next replaces it): the wire-free event carries
         only (port, egress) and the cause *)
  eg_urgent : (Transport.kind * int * int * 'msg) Queue.t;
      (* (kind, units, cause, msg); cause 0 = none *)
  eg_bulk : (Transport.kind * int * int * 'msg) Queue.t;
  mutable depth_high_water : int;
}

type 'msg t = {
  engine : Des.Engine.t;
  rng : Stats.Rng.t;
  nodes : 'msg node_state Node_id.Table.t;
  ports : 'msg port Itab.t;
      (* the only per-pair store, keyed by [key src dst], a single int:
         a tuple key would be allocated afresh on every message send *)
  deliver_op : ('msg port, 'msg) Des.Engine.op;
      (* engine handler delivering [msg] through a port; the schedule's
         int operand carries the causal token, so a delivery event
         allocates nothing *)
  wire_free_op : ('msg port, 'msg egress) Des.Engine.op;
      (* engine handler run when a serialized message leaves the wire:
         transmit it, then start the next; the int operand is its
         cause *)
  mutable default_serialization : Des.Time.span;
      (* for ports created later; 0 = wire never busy *)
  mutable default_conditions : Conditions.t;
  mutable islands : int;  (* the last island [partition] handed out *)
  mutable sent : int;
  mutable delivered : int;
  mutable lost : int;
  mutable dropped_paused : int;
  mutable duplicated : int;
  mutable dup_clone : 'msg -> 'msg;
      (* applied to the second copy of a duplicated datagram; identity
         unless the host pools messages (a pooled payload must not be
         shared between two in-flight deliveries — the first delivery's
         release could recycle it under the second) *)
}

(* One directed src -> dst pair: its link, channel, wire time and
   egress, plus both endpoint states, so the send hot path does a single
   [Itab.find] and then touches only record fields.  Ports are dropped
   when either endpoint leaves the fabric ([remove_node]), so a found
   port's states are current. *)
and 'msg port = {
  pt_fabric : 'msg t;
  pt_src : Node_id.t;
  pt_dst : Node_id.t;
  pt_link : Link.t;
  pt_channel : Transport.Channel.t;
  pt_src_state : 'msg node_state;
  pt_dst_state : 'msg node_state;
  mutable pt_serialization : Des.Time.span;
  mutable pt_egress : 'msg egress option;
      (* made at the port's first serialized send *)
}

(* The engine-table delivery handler; registered once per fabric,
   scheduled per message with zero allocation, its int operand the
   message's cause. *)
let dispatch_deliver port msg cause =
  let t = port.pt_fabric in
  let st = port.pt_dst_state in
  if (not st.alive) || st.paused then
    t.dropped_paused <- t.dropped_paused + 1
  else
    match st.handler with
    | None -> t.dropped_paused <- t.dropped_paused + 1
    | Some handler ->
        t.delivered <- t.delivered + 1;
        handler ~src:port.pt_src ~cause msg

(* Put one message on the (now free) wire: sample the link model and
   schedule the delivery through the engine's handler table.  This is
   the entire send path when no serialization delay is configured, and
   the wire-free continuation when one is.  Allocation-free for
   datagrams (the dominant kind): packed link sample, pooled event,
   int-carried cause. *)
let[@hot] transmit_port t p kind ~cause msg =
  let extra =
    match p.pt_src_state.congestion with
    | None -> 0
    | Some c -> Congestion.extra_delay c ~now:(Des.Engine.now t.engine)
  in
  match kind with
  | Transport.Datagram ->
      let d1 = Link.sample_datagram p.pt_link in
      if d1 < 0 then t.lost <- t.lost + 1
      else begin
        let d2 = Link.dup_latency p.pt_link in
        Des.Engine.schedule_op_after t.engine (d1 + extra) t.deliver_op p msg
          cause;
        if d2 >= 0 then begin
          t.duplicated <- t.duplicated + 1;
          Des.Engine.schedule_op_after t.engine (d2 + extra) t.deliver_op p
            (t.dup_clone msg) cause
        end
      end
  | Transport.Reliable ->
      let latency = Link.sample_reliable p.pt_link + extra in
      let now = Des.Engine.now t.engine in
      let at = Transport.Channel.delivery_time p.pt_channel ~now ~latency in
      Des.Engine.schedule_op_at t.engine at t.deliver_op p msg cause

let egress_depth eg =
  Queue.length eg.eg_urgent + Queue.length eg.eg_bulk
  + if eg.busy then 1 else 0

(* Drain the egress: urgent lane first, then bulk, FIFO within each —
   deterministic because sends on one link happen in engine sequence
   order.  Each message occupies the wire for [units x serialization]
   before the link's propagation model takes over; the egress holds it
   meanwhile, so the wire-free event is an op on (port, egress) with
   the cause as its int, and allocates nothing. *)
let[@hot] rec pump t p eg =
  if not (Queue.is_empty eg.eg_urgent) then
    occupy t p eg (Queue.pop eg.eg_urgent)
  else if not (Queue.is_empty eg.eg_bulk) then
    occupy t p eg (Queue.pop eg.eg_bulk)
  else eg.busy <- false

and[@hot] occupy t p eg (kind, units, cause, msg) =
  eg.busy <- true;
  eg.wire_kind <- kind;
  eg.wire_msg <- msg;
  Des.Engine.schedule_op_after t.engine (units * p.pt_serialization)
    t.wire_free_op p eg cause

and[@hot] wire_free p eg cause =
  let t = p.pt_fabric in
  transmit_port t p eg.wire_kind ~cause eg.wire_msg;
  pump t p eg

let create engine =
  let deliver_op = Des.Engine.register_op engine dispatch_deliver in
  let wire_free_op = Des.Engine.register_op engine wire_free in
  {
    engine;
    rng = Stats.Rng.split (Des.Engine.rng engine) "fabric";
    nodes = Node_id.Table.create 16;
    ports = Itab.create 64;
    deliver_op;
    wire_free_op;
    default_serialization = 0;
    default_conditions = Conditions.(constant (profile ~rtt_ms:0. ()));
    islands = 0;
    sent = 0;
    delivered = 0;
    lost = 0;
    dropped_paused = 0;
    duplicated = 0;
    dup_clone = (fun msg -> msg);
  }

let engine t = t.engine
let set_dup_clone t clone = t.dup_clone <- clone

let add_node t id =
  if Node_id.to_int id < 0 || Node_id.to_int id > 0xFFFFF then
    invalid_arg "Fabric.add_node: node id out of range";
  if Node_id.Table.mem t.nodes id then
    invalid_arg "Fabric.add_node: duplicate node id";
  Node_id.Table.add t.nodes id
    {
      handler = None;
      paused = false;
      island = 0;
      congestion = None;
      alive = true;
    }

let remove_node t id =
  match Node_id.Table.find_opt t.nodes id with
  | None -> invalid_arg "Fabric.remove_node: unknown node id"
  | Some st ->
      st.alive <- false;
      Node_id.Table.remove t.nodes id;
      let i = Node_id.to_int id in
      Itab.filter t.ports (fun k _ -> k lsr 20 <> i && k land 0xFFFFF <> i)

let state t id =
  match Node_id.Table.find_opt t.nodes id with
  | Some s -> s
  | None -> invalid_arg "Fabric: unknown node id"

let set_handler t id handler = (state t id).handler <- Some handler

(* Node ids are small non-negative ints, so a directed pair packs into
   one immediate int. *)
let key src dst = (Node_id.to_int src lsl 20) lor Node_id.to_int dst

(* Find or create the directed pair's port; both endpoints must be
   registered.  Creation order is digest-irrelevant — [Stats.Rng.split]
   is pure, so when a link is created does not affect any draw
   sequence. *)
let port t ~src ~dst =
  let k = key src dst in
  match Itab.find t.ports k with
  | Some p -> p
  | None ->
      let src_state = state t src in
      let dst_state = state t dst in
      let name = Printf.sprintf "link-%d-%d" (k lsr 20) (k land 0xFFFFF) in
      let p =
        {
          pt_fabric = t;
          pt_src = src;
          pt_dst = dst;
          pt_link =
            Link.create t.engine
              ~rng:(Stats.Rng.split t.rng name)
              t.default_conditions;
          pt_channel = Transport.Channel.create ();
          pt_src_state = src_state;
          pt_dst_state = dst_state;
          pt_serialization = t.default_serialization;
          pt_egress = None;
        }
      in
      Itab.add t.ports k p;
      p

let set_conditions t ~src ~dst conditions =
  Link.set_conditions (port t ~src ~dst).pt_link conditions

let set_pair_conditions t a b conditions =
  set_conditions t ~src:a ~dst:b conditions;
  set_conditions t ~src:b ~dst:a conditions

let set_uniform_conditions t conditions =
  t.default_conditions <- conditions;
  Node_id.Table.iter
    (fun src _ ->
      Node_id.Table.iter
        (fun dst _ ->
          if not (Node_id.equal src dst) then
            set_conditions t ~src ~dst conditions)
        t.nodes)
    t.nodes

(* Tolerant of unknown destinations: a message in flight toward a node
   that [remove_node] has since deleted counts as dropped, not an
   error.  Only self-sends take this path; everything else delivers
   through a port. *)
let deliver t ~src ~dst ~cause msg =
  match Node_id.Table.find_opt t.nodes dst with
  | None -> t.dropped_paused <- t.dropped_paused + 1
  | Some st -> (
      if st.paused then t.dropped_paused <- t.dropped_paused + 1
      else
        match st.handler with
        | None -> t.dropped_paused <- t.dropped_paused + 1
        | Some handler ->
            t.delivered <- t.delivered + 1;
            handler ~src ~cause msg)

let set_egress_congestion t id spec =
  let rng =
    Stats.Rng.split_int
      (Stats.Rng.split t.rng "congestion")
      (Node_id.to_int id)
  in
  (state t id).congestion <- Some (Congestion.create ~rng spec)

(* Each node's stream is split by its id, so the table's order does not
   matter. *)
let set_all_egress_congestion t spec =
  Node_id.Table.iter (fun id _ -> set_egress_congestion t id spec) t.nodes

(* Every id is checked before any node moves, so a rejected call leaves
   the islands as they were. *)
let partition t groups =
  let states = List.map (List.map (state t)) groups in
  let ids = List.concat_map (List.map Node_id.to_int) groups in
  if List.compare_lengths ids (List.sort_uniq Int.compare ids) <> 0 then
    invalid_arg "Fabric.partition: node appears in two groups";
  List.iter
    (fun group ->
      t.islands <- t.islands + 1;
      List.iter (fun st -> st.island <- t.islands) group)
    states

let heal t ids = List.iter (fun id -> (state t id).island <- 0) ids

let reachable t src dst =
  Node_id.equal src dst || Int.equal (state t src).island (state t dst).island

let set_uniform_serialization t span =
  if span < 0 then invalid_arg "Fabric.set_uniform_serialization: negative span";
  t.default_serialization <- span;
  Itab.fold (fun _ p () -> p.pt_serialization <- span) t.ports ()

(* Route one message through a resolved port: free wire -> transmit now;
   serialized wire -> queue on the egress. *)
let[@hot] send_port t p kind lane units ~cause msg =
  if p.pt_serialization <= 0 then transmit_port t p kind ~cause msg
  else begin
    let eg =
      match p.pt_egress with
      | Some eg -> eg
      | None ->
          let eg =
            {
              busy = false;
              wire_kind = kind;
              wire_msg = msg;
              eg_urgent = Queue.create ();
              eg_bulk = Queue.create ();
              depth_high_water = 0;
            }
          in
          p.pt_egress <- Some eg;
          eg
    in
    (match lane with
    | Transport.Urgent -> Queue.push (kind, units, cause, msg) eg.eg_urgent
    | Transport.Bulk -> Queue.push (kind, units, cause, msg) eg.eg_bulk);
    let depth = egress_depth eg in
    if depth > eg.depth_high_water then eg.depth_high_water <- depth;
    if not eg.busy then pump t p eg
  end

let[@hot] send t kind ?(lane = Transport.Urgent) ?(units = 1) ~cause ~src ~dst
    msg =
  t.sent <- t.sent + 1;
  if Node_id.equal src dst then deliver t ~src ~dst ~cause msg
  else
    match Itab.find t.ports (key src dst) with
    | Some p ->
        (* A found port implies both endpoints are registered. *)
        if p.pt_src_state.island <> p.pt_dst_state.island then
          t.lost <- t.lost + 1
        else send_port t p kind lane units ~cause msg
    | None ->
        if not (Node_id.Table.mem t.nodes dst) then
          (* Destination left the fabric: the message vanishes into a
             closed port. *)
          t.lost <- t.lost + 1
        else if not (reachable t src dst) then t.lost <- t.lost + 1
        else send_port t (port t ~src ~dst) kind lane units ~cause msg

let pending t ~src ~dst =
  match Itab.find t.ports (key src dst) with
  | Some { pt_egress = Some eg; _ } -> egress_depth eg
  | Some { pt_egress = None; _ } | None -> 0

(* One row per port that [f] keeps, keyed by [(src, dst)] node ints and
   sorted by that key, so snapshots built from it are deterministic. *)
let per_pair t f =
  Itab.fold
    (fun k p acc ->
      match f p with
      | Some v -> ((k lsr 20, k land 0xFFFFF), v) :: acc
      | None -> acc)
    t.ports []
  |> List.sort (fun ((a1, a2), _) ((b1, b2), _) ->
         match Int.compare a1 b1 with 0 -> Int.compare a2 b2 | c -> c)

let link_queue_depths t =
  per_pair t (fun p ->
      Option.map (fun eg -> eg.depth_high_water) p.pt_egress)

let pause t id = (state t id).paused <- true
let resume t id = (state t id).paused <- false

let counters t =
  {
    sent = t.sent;
    delivered = t.delivered;
    lost = t.lost;
    dropped_paused = t.dropped_paused;
    duplicated = t.duplicated;
  }

let link_counters t = per_pair t (fun p -> Some (Link.counters p.pt_link))
