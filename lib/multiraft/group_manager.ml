(* N independent Raft groups on one DES clock and one fabric.

   Each group is a full Harness.Cluster (its own servers, stores, tuners,
   trace, digest and checker) built on one Cluster.host, which steps
   every group's checker and collects the engine/fabric statistics once.
   Fabric node ids are the group tag: the host hands out ids in order,
   so group [g] owns ids [g * replicas .. (g + 1) * replicas - 1], RPC
   routing through [Raft.Replication.transmit] needs no extra envelope
   and [group_of_node] is one division for every id but a joiner's. *)

module Node_id = Netsim.Node_id

type t = {
  groups : Harness.Cluster.t array;
  replicas : int;
  telemetry : Telemetry.Metrics.t;
}

let scope_of_group g = Printf.sprintf "g%d/" g

let create ?seed ?conditions ?(check = Check.Off)
    ?(telemetry = Telemetry.Metrics.noop)
    ~groups ~replicas ~config () =
  if groups <= 0 then
    invalid_arg "Group_manager.create: groups must be positive";
  if replicas <= 0 then
    invalid_arg "Group_manager.create: replicas must be positive";
  let host = Harness.Cluster.create_host (Des.Engine.create ?seed ()) in
  let clusters =
    Array.init groups (fun g ->
        Harness.Cluster.create ?conditions ~check ~telemetry
          ~scope:(scope_of_group g) ~host ~n:replicas ~config ())
  in
  if Telemetry.Metrics.enabled telemetry then begin
    Telemetry.Metrics.Gauge.set
      (Telemetry.Metrics.gauge telemetry ~scope:"multiraft" ~name:"groups" ())
      (float_of_int groups);
    Telemetry.Metrics.Gauge.set
      (Telemetry.Metrics.gauge telemetry ~scope:"multiraft" ~name:"replicas"
         ())
      (float_of_int replicas)
  end;
  { groups = clusters; replicas; telemetry }

let engine t = Harness.Cluster.engine t.groups.(0)
let fabric t = Harness.Cluster.fabric t.groups.(0)
let telemetry t = t.telemetry
let group_count t = Array.length t.groups
let replicas t = t.replicas

let group t g =
  if g < 0 || g >= Array.length t.groups then
    invalid_arg "Group_manager.group: no such group";
  t.groups.(g)

let node_base t g =
  if g < 0 || g >= Array.length t.groups then
    invalid_arg "Group_manager.node_base: no such group";
  g * t.replicas

(* Past the base range an id is a joiner a group added later
   ([Cluster.add_server]); the group whose members list it owns it. *)
let group_of_node t id =
  let g = Node_id.to_int id / t.replicas in
  if g < Array.length t.groups then g
  else
    match
      Array.find_index
        (fun c -> List.exists (Node_id.equal id) (Harness.Cluster.node_ids c))
        t.groups
    with
    | Some g -> g
    | None -> invalid_arg "Group_manager.group_of_node: id outside any group"

let iter_groups t f = Array.iteri f t.groups
let start t = Array.iter Harness.Cluster.start t.groups
let run_for t span = Harness.Cluster.run_for t.groups.(0) span

let leaderless t =
  let n = ref 0 in
  Array.iter
    (fun c -> match Harness.Cluster.leader c with None -> incr n | Some _ -> ())
    t.groups;
  !n

let await_leaders t ~timeout =
  Des.Engine.await (engine t) ~slice:(Des.Time.ms 1) ~timeout (fun () ->
      leaderless t = 0)

(* How evenly leadership landed: counts by replica slot (leader id minus
   the group's base), one cell per slot. *)
let leader_distribution t =
  let dist = Array.make t.replicas 0 in
  Array.iteri
    (fun g c ->
      match Harness.Cluster.leader c with
      | None -> ()
      | Some l ->
          let slot = Node_id.to_int (Raft.Node.id l) - (g * t.replicas) in
          if slot >= 0 && slot < t.replicas then
            dist.(slot) <- dist.(slot) + 1)
    t.groups;
  dist

let digest t =
  Check.Digest.combine
    (Array.to_list (Array.map Harness.Cluster.trace_digest t.groups))

let check_now t = Array.iter Harness.Cluster.check_now t.groups

let collect_metrics t = Harness.Cluster.collect_metrics t.groups.(0)
