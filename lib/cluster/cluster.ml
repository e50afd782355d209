module Node_id = Netsim.Node_id

type member = { node : Raft.Node.t; mutable store : Kvsm.Store.t }

type shared = {
  sh_engine : Des.Engine.t;
  sh_fabric : Raft.Rpc.message Netsim.Fabric.t;
  sh_first_id : int;
}

type t = {
  engine : Des.Engine.t;
  fabric : Raft.Rpc.message Netsim.Fabric.t;
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
  recorder : Telemetry.Recorder.t;
  pool : Raft.Rpc.Pool.t;
      (* one message free-list for the whole group, so a record released
         at its receiver refills the sender's next allocation *)
  (* Creation parameters, kept so [add_server] can build members later. *)
  costs : Raft.Cost_model.t option;
  cores : float;
  config : Raft.Config.t;
  scope : string;  (* metrics-scope prefix, e.g. "g3/" under multiraft *)
  owns_infra : bool;
      (* false when engine/fabric are shared with other clusters: the
         host (the multiraft manager) owns the post hook, the recorder
         attachment and the infra metrics collection *)
  mutable next_id : int;  (* next fresh id for [add_server] *)
  mutable collected : bool;  (* [collect_metrics] already ran *)
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
        | Raft.Probe.Role_change _ | Raft.Probe.Node_paused _
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
    ?(telemetry = Telemetry.Metrics.noop)
    ?(forensics = Raft.Forensics.create ~enabled:false ())
    ?(recorder = Telemetry.Recorder.noop) ?(scope = "") ?shared ~n ~config ()
    =
  if n <= 0 then invalid_arg "Cluster.create: n must be positive";
  let owns_infra = match shared with None -> true | Some _ -> false in
  let engine, fabric, first_id =
    match shared with
    | None ->
        let engine = Des.Engine.create ?seed () in
        (engine, Netsim.Fabric.create engine, 0)
    | Some s -> (s.sh_engine, s.sh_fabric, s.sh_first_id)
  in
  let trace = Des.Mtrace.create engine in
  let ids = List.init n (fun i -> Node_id.of_int (first_id + i)) in
  List.iter (Netsim.Fabric.add_node fabric) ids;
  (match conditions with
  | Some c -> (
      match shared with
      | None -> Netsim.Fabric.set_uniform_conditions fabric c
      | Some _ ->
          (* Uniform conditions would eagerly touch every registered
             pair on the shared fabric (other groups' links included);
             restrict them to this group's own directed pairs. *)
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  if not (Node_id.equal a b) then
                    Netsim.Fabric.set_pair_conditions fabric a b c)
                ids)
            ids)
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
      | _ ->
          Check.Digest.feed_int digest time;
          Buffer.clear rendered;
          Raft.Probe.add_to_buffer rendered probe;
          Check.Digest.feed_buffer digest rendered);
  let checker =
    match check with
    | Check.Off -> None
    | (Check.Sample | Check.Always) as mode ->
        let views =
          List.map
            (fun id -> Check.view_of_node (Node_id.Table.find members id).node)
            ids
        in
        let c = Check.create ~mode ~nodes:views () in
        Check.observe_trace c trace;
        (* The flight recorder: when a violation fires, its report carries
           the tail of the forensics ring and the recorder's last ticks —
           captured lazily, only on an actual failure. *)
        if
          Raft.Forensics.enabled forensics
          || Telemetry.Recorder.enabled recorder
        then
          Check.set_flight_recorder c (fun () ->
              Raft.Forensics.tail forensics 32
              @ Telemetry.Recorder.window recorder 8);
        (* The engine supports a single post hook.  A shared-infra host
           (multiraft) owns it and steps every group's checker from one
           combined hook; a standalone cluster installs its own. *)
        if owns_infra then
          Des.Engine.set_post_hook engine (Some (fun () -> Check.step c));
        Some c
  in
  if owns_infra then
    Telemetry.Recorder.attach recorder engine (fun () ->
        Telemetry.Metrics.snapshot telemetry);
  attach_probe_counters ~scope telemetry trace;
  {
    engine;
    fabric;
    trace;
    members;
    ids;
    roster = roster_of ~members ~ids;
    pool;
    checker;
    digest;
    telemetry;
    forensics;
    recorder;
    costs;
    cores;
    config;
    scope;
    owns_infra;
    next_id = first_id + n;
    collected = false;
    read_seq = 0;
  }

let engine t = t.engine
let fabric t = t.fabric
let trace t = t.trace
let checker t = t.checker
let telemetry t = t.telemetry
let recorder t = t.recorder

(* Fold the pull-style sources (engine, fabric, links) into the registry.
   Exposed standalone so a multiraft host sharing one engine/fabric
   across clusters can collect the infra statistics exactly once. *)
let collect_infra ~scope ~telemetry ~engine ~fabric =
  if Telemetry.Metrics.enabled telemetry then begin
    let m = telemetry in
    let add sc name v =
      Telemetry.Metrics.Counter.add
        (Telemetry.Metrics.counter m ~scope:(scope ^ sc) ~name ())
        v
    in
    let es = Des.Engine.stats engine in
    add "des" "events_processed" es.Des.Engine.processed;
    add "des" "events_pending" es.Des.Engine.pending;
    add "des" "timers_cancelled" es.Des.Engine.cancelled;
    add "des" "heap_compactions" es.Des.Engine.compactions;
    Telemetry.Metrics.Gauge.set_max
      (Telemetry.Metrics.gauge m ~scope:(scope ^ "des") ~name:"heap_high_water"
         ())
      (float_of_int es.Des.Engine.heap_high_water);
    add "des" "wheel_cascades" es.Des.Engine.cascades;
    add "des" "wheel_cancelled_in_place" es.Des.Engine.cancelled_in_place;
    Telemetry.Metrics.Gauge.set_max
      (Telemetry.Metrics.gauge m ~scope:(scope ^ "des")
         ~name:"wheel_high_water" ())
      (float_of_int es.Des.Engine.wheel_high_water);
    let fc = Netsim.Fabric.counters fabric in
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
            (Telemetry.Metrics.counter m ~scope:(scope ^ "link") ~name ~node
               ())
            v
        in
        add "sent" lc.Netsim.Link.sent;
        add "delivered" lc.Netsim.Link.delivered;
        add "lost" lc.Netsim.Link.lost;
        add "duplicated" lc.Netsim.Link.duplicated;
        add "retransmissions" lc.Netsim.Link.retransmissions)
      (Netsim.Fabric.link_counters fabric);
    (* High-water egress depth per directed link; only links that ever
       queued (a serialization delay was configured) appear. *)
    List.iter
      (fun ((src, dst), depth) ->
        let node = Printf.sprintf "n%d->n%d" src dst in
        Telemetry.Metrics.Gauge.set_max
          (Telemetry.Metrics.gauge m ~scope:(scope ^ "fabric")
             ~name:"queue_depth" ~node ())
          (float_of_int depth))
      (Netsim.Fabric.link_queue_depths fabric)
  end

(* Idempotent per cluster; a shared-infra cluster leaves the (global)
   engine/fabric statistics to its host. *)
let collect_metrics t =
  if t.owns_infra && not t.collected then begin
    t.collected <- true;
    collect_infra ~scope:t.scope ~telemetry:t.telemetry ~engine:t.engine
      ~fabric:t.fabric
  end

let collect_infra_metrics = collect_infra ~scope:""

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

let run_for t span = Des.Engine.run_for t.engine span
let now t = Des.Engine.now t.engine

let await t ~timeout cond =
  Des.Engine.await t.engine ~slice:(Des.Time.ms 1) ~timeout cond

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

let set_uniform_conditions t c = Netsim.Fabric.set_uniform_conditions t.fabric c

let set_pair_conditions t a b c =
  Netsim.Fabric.set_pair_conditions t.fabric a b c

let partition t groups = Netsim.Fabric.partition t.fabric groups
let heal_partition t = Netsim.Fabric.heal_partition t.fabric

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
  let id = Node_id.of_int t.next_id in
  t.next_id <- t.next_id + 1;
  Netsim.Fabric.add_node t.fabric id;
  let m =
    make_member ~engine:t.engine ~fabric:t.fabric ~trace:t.trace
      ~costs:t.costs ~cores:t.cores
      ~telemetry:t.telemetry ~forensics:t.forensics ~config:t.config
      ~joining:true ~pool:t.pool ~id ~peers:t.ids
  in
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
  Netsim.Fabric.remove_node t.fabric id;
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
