module Node_id = Netsim.Node_id

let pause t id = Raft.Node.pause (Cluster.node t id)
let recover t id = Raft.Node.resume (Cluster.node t id)

(* The state machine is volatile below the commit index: recovery
   replays the persisted log into a fresh replica. *)
let restart t id =
  Cluster.reset_store t id;
  Raft.Node.restart (Cluster.node t id)

let crash_and_restart t id ~downtime =
  Raft.Node.crash (Cluster.node t id);
  Cluster.run_for t downtime;
  restart t id

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

(* How long a failover may take before the iteration is abandoned. *)
let detect_limit = Des.Time.sec 60

(* [w] opens right after the kill, with the failed leader paused.  The
   failover ends where its first leaderless interval ends: the instant
   the new leader was established, which the polling loop only brackets
   to the millisecond.  Only expiries and campaigns up to that instant
   belong to it. *)
let analyse t (w : Monitor.window) ~failed ~failed_at ~new_leader =
  match w.leaderless with
  | [] -> Error "the kill left a leader serving"
  | (_, served_at) :: _ -> (
      let first_expiries =
        List.fold_left
          (fun seen (e : Monitor.expiry) ->
            if
              e.at > served_at
              || Node_id.equal e.node failed
              || List.exists
                   (fun (p : Monitor.expiry) -> Node_id.equal p.node e.node)
                   seen
            then seen
            else e :: seen)
          [] w.timeouts
        |> List.rev
      in
      let campaigns = List.filter (fun at -> at <= served_at) w.elections in
      let since_failure at = Des.Time.to_ms_f (Des.Time.diff at failed_at) in
      match first_expiries with
      | [] -> Error "no follower detected the failure"
      | first :: _ ->
          let majority =
            Option.value ~default:first
              (List.nth_opt first_expiries (Cluster.size t / 2))
          in
          Ok
            {
              failed;
              failed_at;
              detection_ms = since_failure first.at;
              majority_detection_ms = since_failure majority.at;
              randomized_at_detection_ms = Des.Time.to_ms_f first.randomized;
              ots_ms = since_failure served_at;
              new_leader;
              election_rounds = List.length campaigns;
            })

let await_new_leader t ~excluding =
  let fresh () =
    match Cluster.leader t with
    | Some l -> not (Node_id.equal (Raft.Node.id l) excluding)
    | None -> false
  in
  if
    Des.Engine.await (Cluster.engine t) ~slice:(Des.Time.ms 1)
      ~timeout:detect_limit fresh
  then Option.map Raft.Node.id (Cluster.leader t)
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
      match
        Monitor.observe t (fun () -> await_new_leader t ~excluding:failed)
      with
      | None, _ ->
          recover t failed;
          Error "no new leader elected within the limit"
      | Some new_leader, w ->
          let outcome = analyse t w ~failed ~failed_at ~new_leader in
          recover t failed;
          (* Let the old leader rejoin and the cluster settle before the
             next iteration. *)
          Cluster.run_for t
            (Des.Time.max_span (Des.Time.ms 500)
               (2
               * (Raft.Server.config (Raft.Node.server (Cluster.node t failed)))
                   .Raft.Config.election_timeout));
          (* Under a tuned mode, followers discarded their measurements at
             the failover; wait for them to warm back up (Step 0 → Tuned)
             so the next iteration measures tuned behaviour, as the
             paper's repeated-failure campaign does. *)
          settle_until_tuned t;
          outcome)

type action =
  | Run of Des.Time.span
  | Pause of int
  | Resume of int
  | Crash of int
  | Restart of int
  | Partition of int list list
  | Heal
  | Add_server
  | Remove_server of int
  | Write of { seq : int; key : string; value : string }

type plan = action list

let pp_list sep pp =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf sep) pp

let pp_action ppf = function
  | Run span -> Format.fprintf ppf "Run %d" span
  | Pause id -> Format.fprintf ppf "Pause %d" id
  | Resume id -> Format.fprintf ppf "Resume %d" id
  | Crash id -> Format.fprintf ppf "Crash %d" id
  | Restart id -> Format.fprintf ppf "Restart %d" id
  | Partition sides ->
      let ints ppf =
        Format.fprintf ppf "[ %a ]" (pp_list "; " Format.pp_print_int)
      in
      Format.fprintf ppf "Partition [ %a ]" (pp_list "; " ints) sides
  | Heal -> Format.fprintf ppf "Heal"
  | Add_server -> Format.fprintf ppf "Add_server"
  | Remove_server id -> Format.fprintf ppf "Remove_server %d" id
  | Write { seq; key; value } ->
      Format.fprintf ppf "Write { seq = %d; key = %S; value = %S }" seq key
        value

let pp_plan ppf plan =
  Format.fprintf ppf "@[<v 2>[ %a ]@]" (pp_list ";@," pp_action) plan

type writer = seq:int -> key:string -> value:string -> unit

let submit t ~client_id ~acked ~seq ~key ~value =
  match
    Cluster.submit_target t ~client_id ~seq
      ~payload:(Kvsm.Command.to_payload (Kvsm.Command.Put { key; value }))
      ~on_result:(fun ~committed -> if committed then acked key)
  with
  | `Accepted | `Not_leader _ -> ()

let admits t action =
  let member id =
    List.exists (fun m -> Node_id.to_int m = id) (Cluster.node_ids t)
  in
  let paused id =
    member id && Raft.Node.is_paused (Cluster.node t (Node_id.of_int id))
  in
  match action with
  | Pause id | Crash id -> member id && not (paused id)
  | Resume id | Restart id -> paused id
  | Remove_server id -> member id
  | Partition sides -> List.for_all (List.for_all member) sides
  | Run _ | Heal | Add_server | Write _ -> true

let apply t ~write action =
  let node id = Cluster.node t (Node_id.of_int id) in
  match action with
  | Run span -> Cluster.run_for t span
  | Pause id -> Raft.Node.pause (node id)
  | Resume id -> Raft.Node.resume (node id)
  | Crash id -> Raft.Node.crash (node id)
  | Restart id -> restart t (Node_id.of_int id)
  | Partition sides ->
      Cluster.partition t (List.map (List.map Node_id.of_int) sides)
  | Heal -> Cluster.heal_partition t
  | Add_server -> ignore (Cluster.add_server t : Node_id.t * _)
  | Remove_server id -> (
      let id = Node_id.of_int id in
      let dropped l =
        let members = Raft.Server.members (Raft.Node.server l) in
        not (List.exists (Node_id.equal id) members)
      in
      match Cluster.remove_server t id with
      | `Ok _ ->
          if Cluster.await_config_quiet t ~timeout:(Des.Time.sec 20) then
            Option.iter
              (fun l -> if dropped l then Cluster.retire t id)
              (Cluster.leader t)
      | `Not_leader | `Pending | `Invalid _ -> ())
  | Write { seq; key; value } -> write ~seq ~key ~value

let rec run t ~write = function
  | [] -> []
  | action :: rest when admits t action ->
      apply t ~write action;
      action :: run t ~write rest
  | _ :: rest -> run t ~write rest

let verify t ~acked =
  Cluster.check_now t;
  let stores = List.map (Cluster.store t) (Cluster.node_ids t) in
  match (Cluster.checker t, stores) with
  | None, _ -> Error "no checker installed"
  | Some c, _ when Check.checks_run c = 0 -> Error "the checker never ran"
  | Some _, [] -> Error "no replicas"
  | Some _, store :: rest -> (
      let d = Kvsm.Store.state_digest store in
      let diverged o = not (String.equal d (Kvsm.Store.state_digest o)) in
      let lost key = Option.is_none (Kvsm.Store.find store key) in
      if List.exists diverged rest then Error "replicas diverged"
      else
        match List.find_opt lost acked with
        | Some key -> Error ("acknowledged write " ^ key ^ " was lost")
        | None -> Ok ())

let fingerprint clusters =
  let digest =
    match clusters with
    | [ c ] -> Cluster.trace_digest c
    | cs -> Check.Digest.combine (List.map Cluster.trace_digest cs)
  in
  let checks c =
    match Cluster.checker c with
    | Some k -> string_of_int (Check.checks_run k)
    | None -> "-"
  in
  let store c id = Kvsm.Store.state_digest (Cluster.store c id) in
  let stores c = List.map (store c) (Cluster.node_ids c) in
  Printf.sprintf "%Lx checks=%s stores=%Lx" digest
    (String.concat "," (List.map checks clusters))
    (Check.Digest.of_string
       (String.concat "," (List.concat_map stores clusters)))
