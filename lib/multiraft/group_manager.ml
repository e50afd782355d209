(* N independent Raft groups on one DES clock and one fabric.

   Each group is a full Harness.Cluster (its own servers, stores, tuners,
   trace, digest and checker) built on shared infrastructure: the
   manager owns the engine, the fabric, the single engine post hook
   (stepping every group's checker) and the one-shot infra metrics
   collection — exactly the pieces
   [Cluster.create ~shared] declines.  Fabric node ids are the group
   tag: group [g] owns ids [g * replicas .. (g + 1) * replicas - 1], so
   RPC routing through [Raft.Replication.transmit] needs no extra
   envelope and [group_of_node] is one division. *)

module Node_id = Netsim.Node_id

type t = {
  engine : Des.Engine.t;
  fabric : Raft.Rpc.message Netsim.Fabric.t;
  groups : Harness.Cluster.t array;
  replicas : int;
  telemetry : Telemetry.Metrics.t;
  mutable collected : bool;
}

let scope_of_group g = Printf.sprintf "g%d/" g

let create ?seed ?conditions ?(check = Check.Off)
    ?(telemetry = Telemetry.Metrics.noop)
    ~groups ~replicas ~config () =
  if groups <= 0 then
    invalid_arg "Group_manager.create: groups must be positive";
  if replicas <= 0 then
    invalid_arg "Group_manager.create: replicas must be positive";
  let engine = Des.Engine.create ?seed () in
  let fabric = Netsim.Fabric.create engine in
  let clusters =
    Array.init groups (fun g ->
        Harness.Cluster.create ?conditions ~check
          ~telemetry ~scope:(scope_of_group g)
          ~shared:
            {
              Harness.Cluster.sh_engine = engine;
              sh_fabric = fabric;
              sh_first_id = g * replicas;
            }
          ~n:replicas ~config ())
  in
  (* The engine supports one post hook; step every group's checker from
     it, in group order. *)
  let checkers =
    Array.to_list clusters |> List.filter_map Harness.Cluster.checker
  in
  (match checkers with
  | [] -> ()
  | _ :: _ ->
      Des.Engine.set_post_hook engine
        (Some (fun () -> List.iter Check.step checkers)));
  if Telemetry.Metrics.enabled telemetry then begin
    Telemetry.Metrics.Gauge.set
      (Telemetry.Metrics.gauge telemetry ~scope:"multiraft" ~name:"groups" ())
      (float_of_int groups);
    Telemetry.Metrics.Gauge.set
      (Telemetry.Metrics.gauge telemetry ~scope:"multiraft" ~name:"replicas"
         ())
      (float_of_int replicas)
  end;
  {
    engine;
    fabric;
    groups = clusters;
    replicas;
    telemetry;
    collected = false;
  }

let engine t = t.engine
let fabric t = t.fabric
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

let group_of_node t id =
  let g = Node_id.to_int id / t.replicas in
  if g < 0 || g >= Array.length t.groups then
    invalid_arg "Group_manager.group_of_node: id outside any group";
  g

let iter_groups t f = Array.iteri f t.groups
let start t = Array.iter Harness.Cluster.start t.groups
let run_for t span = Des.Engine.run_for t.engine span

let leaderless t =
  let n = ref 0 in
  Array.iter
    (fun c -> match Harness.Cluster.leader c with None -> incr n | Some _ -> ())
    t.groups;
  !n

let await_leaders t ~timeout =
  Des.Engine.await t.engine ~slice:(Des.Time.ms 1) ~timeout (fun () ->
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

let collect_metrics t =
  if not t.collected then begin
    t.collected <- true;
    Harness.Cluster.collect_infra_metrics ~telemetry:t.telemetry
      ~engine:t.engine ~fabric:t.fabric
  end
