module Node_id = Netsim.Node_id

type member = { node : Raft.Node.t; mutable store : Kvsm.Store.t }

type host = {
  engine : Des.Engine.t;
  fabric : Raft.Rpc.message Netsim.Fabric.t;
  mutable next_id : int;  (* next fabric node id to hand out *)
  mutable checkers : Check.t list;
      (* stepped after every event, in registration order *)
  mutable collected : bool;  (* [collect_metrics] already ran *)
}

let create_host engine =
  {
    engine;
    fabric = Netsim.Fabric.create engine;
    next_id = 0;
    checkers = [];
    collected = false;
  }

(* The host's next [n] ids, registered on its fabric. *)
let take_ids host n =
  let first = host.next_id in
  host.next_id <- first + n;
  let ids = List.init n (fun i -> Node_id.of_int (first + i)) in
  List.iter (Netsim.Fabric.add_node host.fabric) ids;
  ids

(* The engine has one post hook: the host installs it with its first
   checker and steps every registered checker from it. *)
let register_checker host c =
  (match host.checkers with
  | [] ->
      Des.Engine.set_post_hook host.engine
        (Some (fun () -> List.iter Check.step host.checkers))
  | _ :: _ -> ());
  host.checkers <- host.checkers @ [ c ]

type t = {
  host : host;
  trace : Raft.Probe.t Des.Mtrace.t;
  members : member Node_id.Table.t;
  mutable ids : Node_id.t list;  (* live membership, in join order *)
  mutable roster : member array;
      (* [members] in join order, rebuilt on membership change: the
         leader poll scans this without hashing *)
  checker : Check.t option;
  digest : Check.Digest.t;
  telemetry : Telemetry.Metrics.t;
  forensics : Raft.Forensics.t;
  pool : Raft.Rpc.Pool.t;
      (* one message free-list for the whole group, so a record released
         at its receiver refills the sender's next allocation *)
  (* Creation parameters, kept so [add_server] can build members later. *)
  costs : Raft.Cost_model.t option;
  cores : float;
  conditions : Netsim.Conditions.t option;
  config : Raft.Config.t;
  mutable read_seq : int;  (* sequence numbers for internal read clients *)
}

let node_label id = "n" ^ string_of_int (Node_id.to_int id)

let roster_of ~members ~ids =
  Array.of_list (List.map (fun id -> Node_id.Table.find members id) ids)

(* Per-node protocol counters, filled through a live trace subscription
   made at creation, so they count the whole run. *)
type probe_counters = {
  c_timeouts : Telemetry.Metrics.Counter.t;
  c_elections : Telemetry.Metrics.Counter.t;
  c_prevote_aborts : Telemetry.Metrics.Counter.t;
  c_tuner_resets : Telemetry.Metrics.Counter.t;
  c_tuner_decisions : Telemetry.Metrics.Counter.t;
  c_leader_wins : Telemetry.Metrics.Counter.t;
}

let attach_probe_counters ~scope telemetry trace =
  if Telemetry.Metrics.enabled telemetry then begin
    let raft_scope = scope ^ "raft" in
    (* Group-level churn counter: one per cluster, not per node, so a
       multiraft host can read leader stability per group at a glance. *)
    let c_leader_changes =
      Telemetry.Metrics.counter telemetry ~scope:raft_scope
        ~name:"leader_changes" ()
    in
    let tbl = Node_id.Table.create 8 in
    let handles id =
      match Node_id.Table.find_opt tbl id with
      | Some h -> h
      | None ->
          let node = node_label id in
          let counter name =
            Telemetry.Metrics.counter telemetry ~scope:raft_scope ~name ~node
              ()
          in
          let h =
            {
              c_timeouts = counter "timeouts";
              c_elections = counter "elections";
              c_prevote_aborts = counter "prevote_aborts";
              c_tuner_resets = counter "tuner_resets";
              c_tuner_decisions = counter "tuner_decisions";
              c_leader_wins = counter "leader_wins";
            }
          in
          Node_id.Table.add tbl id h;
          h
    in
    Des.Mtrace.subscribe trace (fun _time probe ->
        let h = handles (Raft.Probe.node probe) in
        match probe with
        | Raft.Probe.Timeout_expired _ ->
            Telemetry.Metrics.Counter.incr h.c_timeouts
        | Raft.Probe.Election_started _ ->
            Telemetry.Metrics.Counter.incr h.c_elections
        | Raft.Probe.Pre_vote_aborted _ ->
            Telemetry.Metrics.Counter.incr h.c_prevote_aborts
        | Raft.Probe.Tuner_reset _ ->
            Telemetry.Metrics.Counter.incr h.c_tuner_resets
        | Raft.Probe.Tuner_decision _ ->
            Telemetry.Metrics.Counter.incr h.c_tuner_decisions
        | Raft.Probe.Role_change { role = Raft.Types.Leader; _ } ->
            Telemetry.Metrics.Counter.incr h.c_leader_wins;
            Telemetry.Metrics.Counter.incr c_leader_changes
        | Raft.Probe.Role_change
            { role = Raft.Types.(Follower | Pre_candidate | Candidate); _ }
        | Raft.Probe.Node_paused _
        | Raft.Probe.Node_resumed _ | Raft.Probe.Config_change _
        | Raft.Probe.Transfer_started _ | Raft.Probe.Transfer_aborted _ ->
            ())
  end

(* The member record is created first so the apply closure reads the
   store through it: a crash-restart swaps in a fresh replica and the
   replayed log rebuilds it. *)
let make_member ~engine ~fabric ~trace ~costs ~cores ~telemetry ~forensics
    ~config ~joining ~pool ~id ~peers =
  let cpu =
    match costs with
    | Some _ -> Some (Netsim.Cpu.create engine ~cores)
    | None -> None
  in
  let rec member =
    lazy
      {
        node =
          Raft.Node.create ~fabric ~trace ?cpu ?costs
            ~apply:(fun entry ->
              ignore
                (Kvsm.Store.apply_entry (Lazy.force member).store entry
                  : Kvsm.Store.result option))
            ~snapshot_of:(fun () ->
              Kvsm.Store.serialize (Lazy.force member).store)
            ~install_sm:(fun data ->
              let m = Lazy.force member in
              match Kvsm.Store.of_serialized data with
              | Ok store -> m.store <- store
              | Error _ -> m.store <- Kvsm.Store.create ())
            ~metrics:telemetry ~forensics ~joining ~pool ~id
            ~peers ~config ();
        store = Kvsm.Store.create ();
      }
  in
  Lazy.force member

let create ?seed ?costs ?(cores = 4.) ?conditions ?(check = Check.Off)
    ?(telemetry = Telemetry.Metrics.noop) ?forensics
    ?(recorder = Telemetry.Recorder.noop) ?(scope = "") ?host ~n ~config () =
  if n <= 0 then invalid_arg "Cluster.create: n must be positive";
  (* A checked cluster records the probe stream by default: the ring's
     tail is what a violation report shows. *)
  let forensics =
    match forensics with
    | Some ring -> ring
    | None ->
        let enabled =
          match check with Check.Off -> false | Check.Always -> true
        in
        Raft.Forensics.create ~enabled ()
  in
  let host =
    match host with
    | Some h -> h
    | None -> create_host (Des.Engine.create ?seed ())
  in
  let engine = host.engine and fabric = host.fabric in
  let trace = Des.Mtrace.create engine in
  let ids = take_ids host n in
  (* Conditions go on this cluster's own directed pairs only: the
     fabric's default stays ideal, so no other cluster on the host is
     touched.  [spawn_joiner] extends them to each joiner's pairs. *)
  (match conditions with
  | Some c ->
      List.iter
        (fun src ->
          List.iter
            (fun dst ->
              if not (Node_id.equal src dst) then
                Netsim.Fabric.set_conditions fabric ~src ~dst c)
            ids)
        ids
  | None -> ());
  let members = Node_id.Table.create n in
  let pool = Raft.Rpc.Pool.create () in
  List.iter
    (fun id ->
      let peers = List.filter (fun p -> not (Node_id.equal p id)) ids in
      Node_id.Table.add members id
        (make_member ~engine ~fabric ~trace ~costs ~cores ~telemetry
           ~forensics ~config ~joining:false ~pool ~id ~peers))
    ids;
  (* The digest accumulates online through a subscription made before
     any probe, so it covers the whole run.  Each probe is rendered into
     one reused buffer.  Tuner decisions are skipped: only instrumented
     servers emit them, and turning instrumentation on must not move a
     digest. *)
  let digest = Check.Digest.create () in
  let rendered = Buffer.create 128 in
  Des.Mtrace.subscribe trace (fun time probe ->
      match probe with
      | Raft.Probe.Tuner_decision _ -> ()
      | Raft.Probe.Role_change _ | Raft.Probe.Timeout_expired _
      | Raft.Probe.Pre_vote_aborted _ | Raft.Probe.Tuner_reset _
      | Raft.Probe.Election_started _ | Raft.Probe.Node_paused _
      | Raft.Probe.Node_resumed _ | Raft.Probe.Config_change _
      | Raft.Probe.Transfer_started _ | Raft.Probe.Transfer_aborted _ ->
          Check.Digest.feed_int digest time;
          Buffer.clear rendered;
          Raft.Probe.add_to_buffer rendered probe;
          Check.Digest.feed_buffer digest rendered);
  let checker =
    match check with
    | Check.Off -> None
    | Check.Always ->
        let views =
          List.map
            (fun id -> Check.view_of_node (Node_id.Table.find members id).node)
            ids
        in
        let c = Check.create ~nodes:views () in
        Check.observe_trace c trace;
        (* The flight recorder: when a violation fires, its report carries
           the tail of the forensics ring and the recorder's last ticks —
           captured lazily, only on an actual failure. *)
        Check.set_flight_recorder c (fun () ->
            Raft.Forensics.tail forensics 50
            @ Telemetry.Recorder.window recorder 8);
        register_checker host c;
        Some c
  in
  Telemetry.Recorder.attach recorder engine (fun () ->
      Telemetry.Metrics.snapshot telemetry);
  attach_probe_counters ~scope telemetry trace;
  {
    host;
    trace;
    members;
    ids;
    roster = roster_of ~members ~ids;
    pool;
    checker;
    digest;
    telemetry;
    forensics;
    costs;
    cores;
    conditions;
    config;
    read_seq = 0;
  }

let engine t = t.host.engine
let fabric t = t.host.fabric
let trace t = t.trace
let checker t = t.checker
let forensics t = t.forensics

(* Fold the pull-style sources (engine, fabric, links) into the
   registry, once per host: the counters are cumulative, so a second
   fold would double them. *)
let collect_metrics t =
  let host = t.host in
  if (not host.collected) && Telemetry.Metrics.enabled t.telemetry then begin
    host.collected <- true;
    let m = t.telemetry in
    let add scope name v =
      Telemetry.Metrics.Counter.add
        (Telemetry.Metrics.counter m ~scope ~name ())
        v
    in
    let es = Des.Engine.stats host.engine in
    add "des" "events_processed" es.Des.Engine.processed;
    add "des" "events_pending" es.Des.Engine.pending;
    add "des" "timers_cancelled" es.Des.Engine.cancelled;
    add "des" "heap_compactions" es.Des.Engine.compactions;
    Telemetry.Metrics.Gauge.set_max
      (Telemetry.Metrics.gauge m ~scope:"des" ~name:"heap_high_water" ())
      (float_of_int es.Des.Engine.heap_high_water);
    add "des" "wheel_cascades" es.Des.Engine.cascades;
    add "des" "wheel_cancelled_in_place" es.Des.Engine.cancelled_in_place;
    Telemetry.Metrics.Gauge.set_max
      (Telemetry.Metrics.gauge m ~scope:"des" ~name:"wheel_high_water" ())
      (float_of_int es.Des.Engine.wheel_high_water);
    let fc = Netsim.Fabric.counters host.fabric in
    add "net" "sent" fc.Netsim.Fabric.sent;
    add "net" "delivered" fc.Netsim.Fabric.delivered;
    add "net" "lost" fc.Netsim.Fabric.lost;
    add "net" "dropped_paused" fc.Netsim.Fabric.dropped_paused;
    add "net" "duplicated" fc.Netsim.Fabric.duplicated;
    List.iter
      (fun ((src, dst), (lc : Netsim.Link.counters)) ->
        let node = Printf.sprintf "n%d->n%d" src dst in
        let add name v =
          Telemetry.Metrics.Counter.add
            (Telemetry.Metrics.counter m ~scope:"link" ~name ~node ())
            v
        in
        add "sent" lc.Netsim.Link.sent;
        add "delivered" lc.Netsim.Link.delivered;
        add "lost" lc.Netsim.Link.lost;
        add "duplicated" lc.Netsim.Link.duplicated;
        add "retransmissions" lc.Netsim.Link.retransmissions)
      (Netsim.Fabric.link_counters host.fabric);
    (* High-water egress depth per directed link; only links that ever
       queued (a serialization delay was configured) appear. *)
    List.iter
      (fun ((src, dst), depth) ->
        let node = Printf.sprintf "n%d->n%d" src dst in
        Telemetry.Metrics.Gauge.set_max
          (Telemetry.Metrics.gauge m ~scope:"fabric" ~name:"queue_depth" ~node
             ())
          (float_of_int depth))
      (Netsim.Fabric.link_queue_depths host.fabric)
  end

let trace_digest t = Check.Digest.value t.digest

let check_now t =
  match t.checker with None -> () | Some c -> Check.check_now c
let size t = List.length t.ids
let quorum t = (size t / 2) + 1
let node_ids t = t.ids

let member t id =
  match Node_id.Table.find_opt t.members id with
  | Some m -> m
  | None -> invalid_arg "Cluster: unknown node id"

let node t id = (member t id).node
let store t id = (member t id).store

let reset_store t id =
  let m = member t id in
  m.store <- Kvsm.Store.create ()
let nodes t = List.map (fun id -> node t id) t.ids

let start t = List.iter Raft.Node.start (nodes t)

(* The measurement harness polls this from [Des.Engine.await] after
   every millisecond slice that ran an event while awaiting elections,
   so it is a single scan rather than a map/filter/sort chain: the
   common no-leader poll allocates nothing. *)
let leader t =
  let roster = t.roster in
  let best = ref None and best_term = ref min_int in
  for i = 0 to Array.length roster - 1 do
    let n = roster.(i).node in
    if
      (not (Raft.Node.is_paused n))
      && Raft.Types.is_leader (Raft.Server.role (Raft.Node.server n))
    then begin
      let term = Raft.Server.term (Raft.Node.server n) in
      (* Strict [>] keeps the first max-term leader in join order, as the
         stable descending sort did. *)
      if term > !best_term then begin
        best := Some n;
        best_term := term
      end
    end
  done;
  !best

let run_for t span = Des.Engine.run_for t.host.engine span
let now t = Des.Engine.now t.host.engine

let await t ~timeout cond =
  Des.Engine.await t.host.engine ~slice:(Des.Time.ms 1) ~timeout cond

let await_leader t ~timeout =
  if await t ~timeout (fun () -> Option.is_some (leader t)) then leader t
  else None

let boot ?(timeout = Des.Time.sec 30) t ~label =
  start t;
  match await_leader t ~timeout with
  | Some l -> l
  | None ->
      failwith
        (Format.asprintf "%s: no leader elected within %a" label Des.Time.pp
           timeout)

let set_pair_conditions t a b c =
  Netsim.Fabric.set_pair_conditions t.host.fabric a b c

(* The live members [groups] leaves out form its last group; nodes of
   other clusters on the host keep their islands. *)
let partition t groups =
  let member id = List.exists (Node_id.equal id) t.ids in
  List.iter
    (List.iter (fun id ->
         if not (member id) then
           invalid_arg
             ("Cluster.partition: " ^ node_label id ^ " is not a live member")))
    groups;
  let listed id = List.exists (List.exists (Node_id.equal id)) groups in
  Netsim.Fabric.partition t.host.fabric
    (groups @ [ List.filter (fun id -> not (listed id)) t.ids ])

let heal_partition t = Netsim.Fabric.heal t.host.fabric t.ids

let submit_target t ~payload ~client_id ~seq ~on_result =
  match leader t with
  | None -> `Not_leader None
  | Some l -> Raft.Node.submit l ~payload ~client_id ~seq ~on_result ()

(* Reads use a reserved client id far outside the test/benchmark range. *)
let read_client_id = -1

let linearizable_read t ~key ~on_result =
  match leader t with
  | None -> on_result None
  | Some l -> (
      t.read_seq <- t.read_seq + 1;
      let leader_id = Raft.Node.id l in
      match
        Raft.Node.read l ~client_id:read_client_id ~seq:t.read_seq
          ~on_result:(fun ~committed ->
            if committed then
              (* The leader's replica is linearizable at this instant. *)
              on_result (Some (Kvsm.Store.find (store t leader_id) key))
            else on_result None)
          ()
      with
      | `Accepted -> ()
      | `Not_leader _ -> on_result None)

let transfer_leadership t target =
  match leader t with
  | None -> `Not_leader
  | Some l -> Raft.Node.transfer_leadership l target

(* {2 Dynamic membership} *)

let submit_to t id ~payload ~client_id ~seq ~on_result =
  Raft.Node.submit (node t id) ~payload ~client_id ~seq ~on_result ()

let reconfigure t change =
  match leader t with
  | None -> `Not_leader
  | Some l -> Raft.Node.reconfigure l change

let spawn_joiner t =
  let id = List.hd (take_ids t.host 1) in
  let m =
    make_member ~engine:t.host.engine ~fabric:t.host.fabric ~trace:t.trace
      ~costs:t.costs ~cores:t.cores ~telemetry:t.telemetry
      ~forensics:t.forensics ~config:t.config ~joining:true ~pool:t.pool ~id
      ~peers:t.ids
  in
  (match t.conditions with
  | Some c ->
      List.iter
        (fun peer -> Netsim.Fabric.set_pair_conditions t.host.fabric id peer c)
        t.ids
  | None -> ());
  Node_id.Table.add t.members id m;
  t.ids <- t.ids @ [ id ];
  t.roster <- roster_of ~members:t.members ~ids:t.ids;
  (match t.checker with
  | Some c -> Check.add_view c (Check.view_of_node m.node)
  | None -> ());
  Raft.Node.start m.node;
  id

let add_server t =
  let id = spawn_joiner t in
  (id, reconfigure t (Raft.Log.Add_learner id))

let remove_server t id = reconfigure t (Raft.Log.Remove id)

let retire t id =
  let m = member t id in
  if not (Raft.Node.is_paused m.node) then Raft.Node.pause m.node;
  Netsim.Fabric.remove_node t.host.fabric id;
  t.ids <- List.filter (fun i -> not (Node_id.equal i id)) t.ids;
  t.roster <- roster_of ~members:t.members ~ids:t.ids

let config_quiet t =
  match leader t with
  | None -> false
  | Some l ->
      let s = Raft.Node.server l in
      Raft.Server.pending_config s = None
      && Raft.Server.transfer_pending s = None

let await_config_quiet t ~timeout = await t ~timeout (fun () -> config_quiet t)

let await_voter t target ~timeout =
  await t ~timeout (fun () ->
      match leader t with
      | None -> false
      | Some l ->
          let s = Raft.Node.server l in
          Raft.Server.is_voter s target && Raft.Server.pending_config s = None)
