module Node_id = Netsim.Node_id

let randomized_timeouts_ms t =
  Cluster.nodes t
  |> List.filter_map (fun n ->
         let server = Raft.Node.server n in
         if Raft.Types.is_leader (Raft.Server.role server) then None
         else
           Some (Des.Time.to_ms_f (Raft.Server.randomized_timeout server)))

let majority_randomized_ms t =
  let sorted = List.sort Float.compare (randomized_timeouts_ms t) in
  let f = Cluster.size t / 2 in
  List.nth_opt sorted f

let election_timeout_ms t id =
  Des.Time.to_ms_f
    (Raft.Server.election_timeout_now (Raft.Node.server (Cluster.node t id)))

let leader_h_ms t ~follower =
  match Cluster.leader t with
  | None -> None
  | Some l -> (
      match
        Raft.Server.heartbeat_interval_to (Raft.Node.server l) follower
      with
      | Some h when not (Node_id.equal (Raft.Node.id l) follower) ->
          Some (Des.Time.to_ms_f h)
      | Some _ | None -> None)

let gap = function Some v -> v | None -> nan
let has_leader t = Cluster.leader t <> None

type probe = { name : string; read : Cluster.t -> float }

let watch t ~every ~duration ~probes =
  if every <= 0 then invalid_arg "Monitor.watch: period must be positive";
  let series =
    List.map (fun p -> (p, Stats.Timeseries.create ())) probes
  in
  let engine = Cluster.engine t in
  let stop_at = Des.Time.add (Des.Engine.now engine) duration in
  let rec arm () =
    ignore
      (Des.Engine.schedule_after engine every (fun () ->
           let now_sec = Des.Time.to_sec_f (Des.Engine.now engine) in
           List.iter
             (fun (p, ts) ->
               Stats.Timeseries.push ts ~time:now_sec ~value:(p.read t))
             series;
           (* Re-arm only inside the window, so nothing outlives it. *)
           if Des.Time.add (Des.Engine.now engine) every <= stop_at then
             arm ())
        : Des.Engine.handle)
  in
  arm ();
  Des.Engine.run_until engine stop_at;
  List.map (fun (p, ts) -> (p.name, ts)) series

type expiry = { at : Des.Time.t; node : Node_id.t; randomized : Des.Time.span }

type window = {
  timeouts : expiry list;
  pre_vote_aborts : int;
  elections : Des.Time.t list;
  leaderless : (Des.Time.t * Des.Time.t) list;
}

let observe t f =
  let from = Cluster.now t in
  let timeouts = ref [] and aborts = ref 0 and elections = ref [] in
  (* Seeded from the live roles, pause flags and pending transfers:
     [Server.set_role] always emits Role_change, [Node.pause]/[resume]
     always emit Node_paused/Node_resumed, and a transfer starts with
     Transfer_started and ends with Transfer_aborted or a role change,
     so this is the state that folding every earlier probe would reach.
     A paused leader does not count (the container-sleep fault takes it
     out of service even though its role never changed), and neither
     does a leader handing off (it refuses proposals until the transfer
     ends). *)
  let leading = Node_id.Table.create (Cluster.size t) in
  let paused = Node_id.Table.create (Cluster.size t) in
  let transferring = Node_id.Table.create (Cluster.size t) in
  List.iter
    (fun node ->
      let id = Raft.Node.id node in
      let server = Raft.Node.server node in
      if Raft.Types.is_leader (Raft.Server.role server) then
        Node_id.Table.replace leading id ();
      if Raft.Node.is_paused node then Node_id.Table.replace paused id ();
      if Option.is_some (Raft.Server.transfer_pending server) then
        Node_id.Table.replace transferring id ())
    (Cluster.nodes t);
  let count_live id () acc =
    if Node_id.Table.mem paused id || Node_id.Table.mem transferring id then acc
    else acc + 1
  in
  let live_leaders () = Node_id.Table.fold count_live leading 0 in
  let intervals = ref [] in
  let gap_start = ref (if live_leaders () = 0 then Some from else None) in
  let close_gap time =
    match !gap_start with
    | Some s when time > s -> intervals := (s, time) :: !intervals
    | Some _ | None -> ()
  in
  let transition time update =
    let before = live_leaders () in
    update ();
    match (before, live_leaders ()) with
    | 0, after when after > 0 ->
        close_gap time;
        gap_start := None
    | before, 0 when before > 0 -> gap_start := Some time
    | _ -> ()
  in
  (* Probes stamped [from] itself can still be queued when [f] starts:
     they move the state but are not counted. *)
  let observer time probe =
    match probe with
    | Raft.Probe.Timeout_expired { id; randomized; _ } ->
        if time > from then
          timeouts := { at = time; node = id; randomized } :: !timeouts
    | Raft.Probe.Pre_vote_aborted _ -> if time > from then incr aborts
    | Raft.Probe.Election_started _ ->
        if time > from then elections := time :: !elections
    | Raft.Probe.Role_change { id; role; _ } ->
        transition time (fun () ->
            Node_id.Table.remove transferring id;
            if Raft.Types.is_leader role then
              Node_id.Table.replace leading id ()
            else Node_id.Table.remove leading id)
    | Raft.Probe.Transfer_started { id; _ } ->
        transition time (fun () -> Node_id.Table.replace transferring id ())
    | Raft.Probe.Transfer_aborted { id; _ } ->
        transition time (fun () -> Node_id.Table.remove transferring id)
    | Raft.Probe.Node_paused { id } ->
        transition time (fun () -> Node_id.Table.replace paused id ())
    | Raft.Probe.Node_resumed { id } ->
        transition time (fun () -> Node_id.Table.remove paused id)
    | Raft.Probe.Tuner_reset _ | Raft.Probe.Tuner_decision _
    | Raft.Probe.Config_change _ ->
        ()
  in
  let result = Des.Mtrace.during (Cluster.trace t) observer f in
  close_gap (Cluster.now t);
  ( result,
    {
      timeouts = List.rev !timeouts;
      pre_vote_aborts = !aborts;
      elections = List.rev !elections;
      leaderless = List.rev !intervals;
    } )

let ots_ms w =
  List.fold_left
    (fun acc (s, e) -> acc +. Des.Time.to_ms_f (Des.Time.diff e s))
    0. w.leaderless
