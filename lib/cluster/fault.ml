module Node_id = Netsim.Node_id

let pause t id = Raft.Node.pause (Cluster.node t id)
let recover t id = Raft.Node.resume (Cluster.node t id)

let crash_and_restart t id ~downtime =
  Raft.Node.crash (Cluster.node t id);
  Cluster.run_for t downtime;
  (* The state machine is volatile below the commit index: recovery
     replays the persisted log into a fresh replica. *)
  Cluster.reset_store t id;
  Raft.Node.restart (Cluster.node t id)

let kill_leader t =
  match Cluster.leader t with
  | None -> None
  | Some l ->
      let id = Raft.Node.id l in
      Raft.Node.pause l;
      Some (id, Cluster.now t)

type failure_outcome = {
  failed : Node_id.t;
  failed_at : Des.Time.t;
  detection_ms : float;
  majority_detection_ms : float;
  randomized_at_detection_ms : float;
  ots_ms : float;
  new_leader : Node_id.t;
  election_rounds : int;
}

(* What one failure window showed on the probe stream, folded live from
   the kill until the new leader is found.  The kill stamps [failed_at]
   and no event runs between it and the subscription, so every probe
   stamped after [failed_at] reaches the observer. *)
type window = {
  mutable leader_at : Des.Time.t option;
      (* the new leader's Role_change: the precise establishment instant
         (the polling loop only brackets it to the millisecond) *)
  mutable timeouts : (Node_id.t * Des.Time.t * Des.Time.span) list;
      (* each surviving node's first expiry, newest first *)
  mutable rounds : int;
}

let observe w ~failed ~failed_at time probe =
  let before_leader =
    match w.leader_at with None -> true | Some at -> time <= at
  in
  if time > failed_at && before_leader then
    match probe with
    | Raft.Probe.Role_change { id; role = Raft.Types.Leader; _ }
      when not (Node_id.equal id failed) ->
        if Option.is_none w.leader_at then w.leader_at <- Some time
    | Raft.Probe.Timeout_expired { id; randomized; _ }
      when not (Node_id.equal id failed) ->
        if not (List.exists (fun (i, _, _) -> Node_id.equal i id) w.timeouts)
        then w.timeouts <- (id, time, randomized) :: w.timeouts
    | Raft.Probe.Election_started _ -> w.rounds <- w.rounds + 1
    | Raft.Probe.Role_change _ | Raft.Probe.Timeout_expired _
    | Raft.Probe.Pre_vote_aborted _ | Raft.Probe.Tuner_reset _
    | Raft.Probe.Tuner_decision _ | Raft.Probe.Node_paused _
    | Raft.Probe.Node_resumed _ | Raft.Probe.Config_change _
    | Raft.Probe.Transfer_started _ | Raft.Probe.Transfer_aborted _ ->
        ()

(* How long a failover may take before the iteration is abandoned. *)
let detect_limit = Des.Time.sec 60

let analyse t w ~failed ~failed_at ~new_leader_at ~new_leader =
  let new_leader_at = Option.value w.leader_at ~default:new_leader_at in
  match List.rev w.timeouts with
  | [] -> Error "no follower detected the failure"
  | (_, first_time, first_randomized) :: _ as ordered ->
      let f = Cluster.size t / 2 in
      let majority_time =
        match List.nth_opt ordered f with
        | Some (_, time, _) -> time
        | None -> first_time
      in
      Ok
        {
          failed;
          failed_at;
          detection_ms = Des.Time.to_ms_f (Des.Time.diff first_time failed_at);
          majority_detection_ms =
            Des.Time.to_ms_f (Des.Time.diff majority_time failed_at);
          randomized_at_detection_ms = Des.Time.to_ms_f first_randomized;
          ots_ms = Des.Time.to_ms_f (Des.Time.diff new_leader_at failed_at);
          new_leader;
          election_rounds = w.rounds;
        }

let await_new_leader t ~excluding =
  let fresh () =
    match Cluster.leader t with
    | Some l -> not (Node_id.equal (Raft.Node.id l) excluding)
    | None -> false
  in
  if
    Des.Engine.await (Cluster.engine t) ~slice:(Des.Time.ms 1)
      ~timeout:detect_limit fresh
  then Option.map (fun l -> (Raft.Node.id l, Cluster.now t)) (Cluster.leader t)
  else None

(* Run until every live follower's tuner has left Step 0 (no-op for
   static configurations), so consecutive failure injections measure the
   tuned steady state rather than the warming fallback. *)
let settle_until_tuned t =
  let tuned_or_static node =
    let server = Raft.Node.server node in
    Raft.Types.is_leader (Raft.Server.role server)
    ||
    match Raft.Server.tuner server with
    | None -> true
    | Some tuner -> Dynatune.Tuner.phase tuner = Dynatune.Tuner.Tuned
  in
  let all_settled () =
    Cluster.leader t <> None
    && List.for_all
         (fun node -> Raft.Node.is_paused node || tuned_or_static node)
         (Cluster.nodes t)
  in
  ignore
    (Des.Engine.await (Cluster.engine t) ~slice:(Des.Time.ms 100)
       ~timeout:(Des.Time.sec 60) all_settled
      : bool)

let fail_and_measure t () =
  (* De-correlate the kill instant from the heartbeat schedule: the
     harness's polling loops otherwise land every kill at the same phase
     of the heartbeat period, which biases the detection-time
     distribution. *)
  let jitter =
    Stats.Rng.int (Des.Engine.rng (Cluster.engine t)) (Des.Time.ms 250)
  in
  Cluster.run_for t jitter;
  (* The previous iteration can leave the cluster mid-election; wait for
     a leader to exist before injecting the next failure. *)
  let kill =
    match kill_leader t with
    | Some k -> Some k
    | None -> (
        match Cluster.await_leader t ~timeout:detect_limit with
        | Some _ -> kill_leader t
        | None -> None)
  in
  match kill with
  | None -> Error "no leader to kill"
  | Some (failed, failed_at) -> (
      let w = { leader_at = None; timeouts = []; rounds = 0 } in
      match
        Des.Mtrace.during (Cluster.trace t) (observe w ~failed ~failed_at)
          (fun () -> await_new_leader t ~excluding:failed)
      with
      | None ->
          recover t failed;
          Error "no new leader elected within the limit"
      | Some (new_leader, new_leader_at) ->
          let outcome =
            analyse t w ~failed ~failed_at ~new_leader_at ~new_leader
          in
          recover t failed;
          (* Let the old leader rejoin and the cluster settle before the
             next iteration. *)
          Cluster.run_for t
            (Des.Time.max_span (Des.Time.ms 500)
               (2 * Raft.Config.election_timeout_base
                      (Raft.Server.config
                         (Raft.Node.server (Cluster.node t failed)))));
          (* Under a tuned mode, followers discarded their measurements at
             the failover; wait for them to warm back up (Step 0 → Tuned)
             so the next iteration measures tuned behaviour, as the
             paper's repeated-failure campaign does. *)
          settle_until_tuned t;
          outcome)
