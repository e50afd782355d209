module Node_id = Netsim.Node_id

type event =
  | Message of { mutable from : Node_id.t; mutable msg : Rpc.message }
  | Election_timeout_fired
  | Heartbeat_due of Node_id.t
  | Broadcast_due
  | Quorum_check_due
  | Flush_due
  | Propose of { payload : string; client_id : int; seq : int }
  | Read of { client_id : int; seq : int }
  | Transfer_leadership of Node_id.t
  | Snapshot_ready of { upto : Types.index; data : string }
  | Restarted

type action =
  | Send of { dst : Node_id.t; kind : Netsim.Transport.kind; msg : Rpc.message }
  | Arm_election of Des.Time.span
  | Disarm_election
  | Arm_heartbeat of { peer : Node_id.t; after : Des.Time.span }
  | Arm_broadcast of Des.Time.span
  | Arm_quorum_check of Des.Time.span
  | Disarm_heartbeats
  | Request_flush
  | Commit of Log.entry array
  | Take_snapshot of { upto : Types.index }
  | Install_sm of { data : string; last_index : Types.index }
  | Serve_read of { client_id : int; seq : int; read_index : Types.index }
  | Reject_proposal of { client_id : int; seq : int }
  | Probe of Probe.t

type persistent = {
  term : Types.term;
  voted_for : Node_id.t option;
  entries : Log.entry array;
  snapshot : (Types.index * Types.term * string) option;
  base_voters : Node_id.t list;
  base_learners : Node_id.t list;
}

type reconfigure_result =
  [ `Ok of Types.index | `Not_leader | `Pending | `Invalid of string ]

(* The cluster configuration in force at some log position.  [m_order]
   lists every member (voters and learners) in insertion order; iteration
   over it is what replaces the frozen [peers] list, so for a cluster
   that never reconfigures the traversal — and hence every PRNG draw —
   is identical to the pre-reconfiguration code. *)
type membership = {
  m_voters : Node_id.Set.t;
  m_learners : Node_id.Set.t;
  m_order : Node_id.t list;
}

type transfer = {
  tr_target : Node_id.t;
  tr_deadline : Des.Time.t;
  mutable tr_sent : bool;
}

type t = {
  id : Node_id.t;
  config : Config.t;
  rng : Stats.Rng.t;
  log : Log.t;
  mutable base : membership;
      (* configuration at the snapshot boundary (initial config until the
         first compaction folds config entries into it) *)
  mutable current : membership;
      (* live configuration: [base] plus every config entry in the log,
         effective as soon as appended (dissertation §4.1) *)
  mutable others : Node_id.t list;
      (* [current.m_order] minus self, cached for the hot paths *)
  mutable latest_config_index : Types.index;
  mutable config_mutations : int;
  mutable transfer : transfer option;
  mutable rewarm_pending : bool;
  mutable term : Types.term;
  mutable voted_for : Node_id.t option;
  mutable role : Types.role;
  mutable leader : Node_id.t option;
  mutable commit_index : Types.index;
  mutable votes : Node_id.Set.t;
  mutable quorum_acks : Node_id.Set.t;
  (* Per-peer leader state is kept in option arrays indexed by
     [Node_id.to_int peer]: the lookups run per heartbeat and per
     replication op, so they must not hash. *)
  mutable progress : Progress.t option array;
  mutable batches : batch_cache option array;
      (* per-peer reuse of the last sliced entry window: retransmits and
         probes of an unchanged log region ship the same (immutable)
         array instead of re-slicing *)
  mutable congestion : Node_id.t -> int;
      (* host-installed egress-depth probe; [fun _ -> 0] until set *)
  mutable paths : Dynatune.Leader_path.t option array;
  tuner : Dynatune.Tuner.t option;
  mutable randomized : Des.Time.span;
  mutable last_leader_contact : Des.Time.t;
  mutable flush_requested : bool;
  mutable snapshot_data : string option;
  mutable force_campaign : bool;
  mutable pending_reads : pending_read list;
  mutable instrument : bool;
  mutable last_decision : (Des.Time.span * Des.Time.span * int) option;
  mutable pb_h : Des.Time.span option;
      (* cache of the last piggybacked [Some h]: the tuned interval
         changes rarely relative to heartbeat volume, so the same box is
         shipped in nearly every response instead of a fresh [Some] *)
  pool : Rpc.Pool.t;
      (* free lists for the hot message payloads; shared across a
         cluster's servers so a record released at the receiver refills
         the sender's next allocation *)
  ctx : ctx;
      (* scratch action accumulator, reused across [handle] calls: a ctx
         is only live inside one call (actions are materialized by
         [finish] before the host interprets them), so one per server
         suffices *)
}
and batch_cache = {
  mutable bc_from : Types.index;
  mutable bc_mutations : int;
  mutable bc_entries : Log.entry array;
}

and ctx = { mutable acts : action list; mutable now : Des.Time.t }

and pending_read = {
  r_client : int;
  r_seq : int;
  read_index : Types.index;
  registered_at : Des.Time.t;
  mutable confirmations : Node_id.Set.t;
}

(* {2 Membership} *)

let member_of m n = Node_id.Set.mem n m.m_voters || Node_id.Set.mem n m.m_learners

let apply_change m = function
  | Log.Add_learner n ->
      if member_of m n then m
      else
        {
          m with
          m_learners = Node_id.Set.add n m.m_learners;
          m_order = m.m_order @ [ n ];
        }
  | Log.Promote n ->
      if not (Node_id.Set.mem n m.m_learners) then m
      else
        {
          m with
          m_voters = Node_id.Set.add n m.m_voters;
          m_learners = Node_id.Set.remove n m.m_learners;
        }
  | Log.Remove n ->
      {
        m_voters = Node_id.Set.remove n m.m_voters;
        m_learners = Node_id.Set.remove n m.m_learners;
        m_order = List.filter (fun x -> not (Node_id.equal x n)) m.m_order;
      }

let set_current t m =
  t.current <- m;
  t.others <- List.filter (fun n -> not (Node_id.equal n t.id)) m.m_order

let quorum t = (Node_id.Set.cardinal t.current.m_voters / 2) + 1
let is_voter_id t n = Node_id.Set.mem n t.current.m_voters
let self_is_voter t = is_voter_id t t.id
let self_weight t = if self_is_voter t then 1 else 0

(* Quorum evidence (CheckQuorum, ReadIndex) only ever counts voters. *)
let note_ack t from =
  if is_voter_id t from then t.quorum_acks <- Node_id.Set.add from t.quorum_acks

(* Re-derive the live configuration: the boundary config plus every
   config entry still stored in the log (applied-on-append). *)
let refresh_membership t =
  let m = ref t.base and latest = ref 0 in
  for i = Log.snapshot_index t.log + 1 to Log.last_index t.log do
    match Log.entry_at t.log i with
    | Some { Log.command = Log.Config c; Log.index; _ } ->
        m := apply_change !m c;
        latest := index
    | Some _ | None -> ()
  done;
  set_current t !m;
  t.latest_config_index <- latest.contents;
  t.config_mutations <- Log.mutations t.log

(* Fold the config entries at or below [upto] into the boundary config;
   called just before the log compacts to [upto]. *)
let fold_base t ~upto =
  let m = ref t.base in
  for i = Log.snapshot_index t.log + 1 to Stdlib.min upto (Log.last_index t.log)
  do
    match Log.entry_at t.log i with
    | Some { Log.command = Log.Config c; _ } -> m := apply_change !m c
    | Some _ | None -> ()
  done;
  t.base <- m.contents

let create ?restore ?pool ?(joining = false) ~id ~peers ~config ~rng () =
  (match Config.validate config with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Server.create: " ^ msg));
  if List.exists (Node_id.equal id) peers then
    invalid_arg "Server.create: peers must not contain the server itself";
  let tuner =
    match config.Config.tuning with
    | Config.Static -> None
    | Config.Dynatune cfg | Config.Fix_k { cfg; _ } ->
        Some (Dynatune.Tuner.create cfg)
  in
  let log = Log.create () in
  let term, voted_for, snapshot_data, base =
    match restore with
    | None ->
        let base =
          if joining then
            (* A joining server starts outside the configuration: it
               learns of its own membership from the Add_learner entry
               the leader replicates to it. *)
            {
              m_voters = Node_id.Set.of_list peers;
              m_learners = Node_id.Set.empty;
              m_order = peers;
            }
          else
            {
              m_voters = Node_id.Set.of_list (id :: peers);
              m_learners = Node_id.Set.empty;
              m_order = id :: peers;
            }
        in
        (0, None, None, base)
    | Some p ->
        let snapshot_data =
          match p.snapshot with
          | Some (index, term, data) ->
              Log.install_snapshot log ~index ~term;
              Some data
          | None -> None
        in
        Array.iter
          (fun (e : Log.entry) ->
            let e' = Log.append_new log ~term:e.Log.term e.Log.command in
            assert (e'.Log.index = e.Log.index))
          p.entries;
        let base =
          {
            m_voters = Node_id.Set.of_list p.base_voters;
            m_learners = Node_id.Set.of_list p.base_learners;
            m_order = p.base_voters @ p.base_learners;
          }
        in
        (p.term, p.voted_for, snapshot_data, base)
  in
  let t =
    {
      id;
      config;
      rng;
      log;
      base;
      current = base;
      others = [];
      latest_config_index = 0;
      config_mutations = 0;
      transfer = None;
      rewarm_pending = false;
      term;
      voted_for;
      role = Types.Follower;
      leader = None;
      commit_index = Log.snapshot_index log;
      votes = Node_id.Set.empty;
      quorum_acks = Node_id.Set.empty;
      progress = [||];
      batches = [||];
      congestion = (fun _ -> 0);
      paths = [||];
      tuner;
      randomized = 0;
      last_leader_contact = Des.Time.zero;
      flush_requested = false;
      snapshot_data;
      force_campaign = false;
      pending_reads = [];
      instrument = false;
      last_decision = None;
      pb_h = None;
      pool =
        (match pool with Some p -> p | None -> Rpc.Pool.create ());
      ctx = { acts = []; now = Des.Time.zero };
    }
  in
  refresh_membership t;
  t

(* {2 Introspection} *)

let persisted (srv : t) =
  {
    term = srv.term;
    voted_for = srv.voted_for;
    entries =
      Log.slice srv.log ~from:(Log.first_available srv.log)
        ~max:(Log.length srv.log);
    snapshot =
      (if Log.snapshot_index srv.log > 0 then
         Some
           ( Log.snapshot_index srv.log,
             Log.snapshot_term srv.log,
             Option.value ~default:"" srv.snapshot_data )
       else None);
    base_voters =
      List.filter (fun n -> Node_id.Set.mem n srv.base.m_voters)
        srv.base.m_order;
    base_learners =
      List.filter (fun n -> Node_id.Set.mem n srv.base.m_learners)
        srv.base.m_order;
  }

let id t = t.id
let pool t = t.pool
let role t = t.role
let term t = t.term
let voted_for t = t.voted_for
let leader t = t.leader
let commit_index t = t.commit_index
let log t = t.log
let config t = t.config
let randomized_timeout t = t.randomized
let tuner t = t.tuner
let set_instrument t on = t.instrument <- on
let set_congestion_probe t f = t.congestion <- f

(* Ensure a per-peer option array covers index [i]. *)
let peer_array arr i =
  if i < Array.length arr then arr
  else begin
    let bigger = Array.make (i + 8) None in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

let appends_inflight t =
  Array.fold_left
    (fun acc p ->
      match p with Some p -> acc + Progress.inflight p | None -> acc)
    0 t.progress

let election_timeout_now t =
  match t.tuner with
  | Some tuner -> Dynatune.Tuner.election_timeout tuner
  | None -> t.config.Config.election_timeout

let tuning_active t = t.tuner <> None

let voters t =
  List.filter (fun n -> Node_id.Set.mem n t.current.m_voters) t.current.m_order

let learners t =
  List.filter
    (fun n -> Node_id.Set.mem n t.current.m_learners)
    t.current.m_order

let members t = t.current.m_order
let is_voter t n = is_voter_id t n
let votes t = Node_id.Set.elements t.votes
let transfer_pending t = Option.map (fun tr -> tr.tr_target) t.transfer

let pending_config t =
  if t.latest_config_index > t.commit_index then Some t.latest_config_index
  else None

let path t peer =
  let i = Node_id.to_int peer in
  t.paths <- peer_array t.paths i;
  match t.paths.(i) with
  | Some p -> p
  | None ->
      let cfg =
        match t.config.Config.tuning with
        | Config.Dynatune cfg | Config.Fix_k { cfg; _ } -> cfg
        | Config.Static ->
            (* Static mode still stamps measurement metadata (followers
               simply ignore it), so a path record exists per peer. *)
            {
              Dynatune.Config.default with
              default_heartbeat_interval = t.config.Config.heartbeat_interval;
              default_election_timeout = t.config.Config.election_timeout;
            }
      in
      let p = Dynatune.Leader_path.create cfg in
      t.paths.(i) <- Some p;
      p

let heartbeat_interval_to t peer =
  if Types.is_leader t.role then
    Some (Dynatune.Leader_path.interval (path t peer))
  else None

(* The h a follower piggybacks to the leader (Step 3); -1 while warming
   or untuned: the leader then keeps its current (default) interval. *)
let piggyback_h_value t =
  match (t.config.Config.tuning, t.tuner) with
  | Config.Static, _ | _, None -> -1
  | Config.Dynatune _, Some tuner -> (
      match Dynatune.Tuner.phase tuner with
      | Dynatune.Tuner.Warming -> -1
      | Dynatune.Tuner.Tuned -> Dynatune.Tuner.heartbeat_interval tuner)
  | Config.Fix_k { cfg; k }, Some tuner -> (
      match Dynatune.Tuner.phase tuner with
      | Dynatune.Tuner.Warming -> -1
      | Dynatune.Tuner.Tuned ->
          let et = Dynatune.Tuner.election_timeout tuner in
          Des.Time.max_span cfg.Dynatune.Config.min_heartbeat_interval (et / k))

(* Boxed via the per-server cache: a heartbeat response carries the same
   h as the previous one except just after a tuner decision. *)
let piggyback_h t =
  let v = piggyback_h_value t in
  if v < 0 then None
  else
    match t.pb_h with
    | Some h when h = v -> t.pb_h
    | Some _ | None ->
        let boxed = Some v in
        t.pb_h <- boxed;
        boxed

(* The expiry probe, carrying the (Et, h, K) the expired timer ran
   under.  Built before the fallback resets the tuner, so a tuned
   follower reports its tuned values.  h falls back to the configured
   interval while warming (or in static mode); K is 0 when no tuner
   exists. *)
let timeout_probe t =
  let h = piggyback_h_value t in
  Probe.Timeout_expired
    {
      id = t.id;
      term = t.term;
      randomized = t.randomized;
      et = election_timeout_now t;
      h = (if h >= 0 then h else t.config.Config.heartbeat_interval);
      k =
        (match t.tuner with
        | Some tuner -> Dynatune.Tuner.required_heartbeats tuner
        | None -> 0);
    }

(* {2 Action accumulation} *)

let emit ctx a = ctx.acts <- a :: ctx.acts
let finish ctx = List.rev ctx.acts

(* Reset the server's scratch ctx for a new [handle] round. *)
let fresh_ctx t ~now =
  let ctx = t.ctx in
  ctx.acts <- [];
  ctx.now <- now;
  ctx

(* randomizedTimeout = Et + uniform[0, Et), as etcd draws it. *)
let draw_timeout t =
  let et = Stdlib.max 1 (election_timeout_now t) in
  et + Stats.Rng.int t.rng et

let arm_election t ctx =
  t.randomized <- draw_timeout t;
  emit ctx (Arm_election t.randomized)

let set_role t ctx role =
  if not (Types.equal_role t.role role) then begin
    t.role <- role;
    emit ctx (Probe (Probe.Role_change { id = t.id; role; term = t.term }))
  end

let reset_tuner t ctx =
  match t.tuner with
  | Some tuner ->
      Dynatune.Tuner.reset tuner;
      t.last_decision <- None;
      emit ctx (Probe (Probe.Tuner_reset { id = t.id }))
  | None -> ()

(* Probe the tuner's chosen parameters when they change.  Runs only on
   instrumented servers: the per-heartbeat comparison (and the probe
   volume) stays out of plain campaigns. *)
let note_tuner_decision t ctx =
  if t.instrument then
    match t.tuner with
    | None -> ()
    | Some tuner -> (
        match Dynatune.Tuner.phase tuner with
        | Dynatune.Tuner.Warming -> ()
        | Dynatune.Tuner.Tuned ->
            let et = election_timeout_now t in
            let h =
              match piggyback_h t with
              | Some h -> h
              | None -> Dynatune.Tuner.heartbeat_interval tuner
            in
            let k = Dynatune.Tuner.required_heartbeats tuner in
            if t.last_decision <> Some (et, h, k) then begin
              let reason =
                if t.rewarm_pending then Probe.Reconfigured
                else
                  match t.last_decision with
                  | None -> Probe.Warmed
                  | Some _ -> Probe.Retuned
              in
              t.rewarm_pending <- false;
              t.last_decision <- Some (et, h, k);
              emit ctx
                (Probe
                   (Probe.Tuner_decision
                      {
                        id = t.id;
                        rtt_ms = Des.Time.to_ms_f (Dynatune.Tuner.rtt_mean tuner);
                        rtt_std_ms =
                          Des.Time.to_ms_f (Dynatune.Tuner.rtt_std tuner);
                        loss = Dynatune.Tuner.loss_rate tuner;
                        k;
                        et;
                        h;
                        reason;
                      }))
            end)

let become_follower t ctx ~term ~leader =
  if term > t.term then begin
    t.term <- term;
    t.voted_for <- None
  end;
  if Types.is_leader t.role then begin
    emit ctx Disarm_heartbeats;
    (* Linearizable reads awaiting confirmation cannot be served by a
       deposed leader. *)
    List.iter
      (fun r ->
        emit ctx (Reject_proposal { client_id = r.r_client; seq = r.r_seq }))
      t.pending_reads;
    t.pending_reads <- []
  end;
  t.votes <- Node_id.Set.empty;
  (* A pending transfer ends with deposition — by the transferee on
     success, by anyone else on failure.  Either way it is over. *)
  t.transfer <- None;
  t.leader <- leader;
  set_role t ctx Types.Follower;
  arm_election t ctx

(* {2 Leader-side replication} *)

let progress_of t peer =
  let i = Node_id.to_int peer in
  t.progress <- peer_array t.progress i;
  match t.progress.(i) with
  | Some p -> p
  | None ->
      let p = Progress.create ~last_index:(Log.last_index t.log) in
      t.progress.(i) <- Some p;
      p

(* The sliced windows are immutable once built (receivers must not
   mutate them, and the log only ever truncates/extends whole entries),
   so a window already shipped may be shipped again by reference.  Probes
   and retransmits of an unchanged log region therefore reuse the cached
   array; the cache is invalidated by the log's mutation counter. *)
let batch_for t peer ~from =
  let slice () =
    Log.slice t.log ~from ~max:t.config.Config.max_entries_per_append
  in
  let i = Node_id.to_int peer in
  t.batches <- peer_array t.batches i;
  match t.batches.(i) with
  | Some bc ->
      let muts = Log.mutations t.log in
      let len = Array.length bc.bc_entries in
      let still_valid =
        bc.bc_from = from && bc.bc_mutations = muts
        && (* a window short of the batch limit grows as the log does *)
        (len >= t.config.Config.max_entries_per_append
        || from + len > Log.last_index t.log)
      in
      if still_valid then bc.bc_entries
      else begin
        let entries = slice () in
        bc.bc_from <- from;
        bc.bc_mutations <- muts;
        bc.bc_entries <- entries;
        entries
      end
  | None ->
      let entries = slice () in
      t.batches.(i) <-
        Some
          { bc_from = from; bc_mutations = Log.mutations t.log;
            bc_entries = entries };
      entries

let append_request_for t peer =
  let pr = progress_of t peer in
  let next = Progress.next_index pr in
  let prev_index = next - 1 in
  let prev_term = Option.value ~default:0 (Log.term_at t.log prev_index) in
  let entries = batch_for t peer ~from:next in
  Rpc.Pool.append_request t.pool ~term:t.term ~prev_index ~prev_term ~entries
    ~commit:t.commit_index

let send_install_snapshot t ctx peer ~data =
  let pr = progress_of t peer in
  let last_index = Log.snapshot_index t.log in
  Progress.record_sent pr ~upto:last_index;
  Progress.note_append_sent pr ~at:ctx.now;
  emit ctx
    (Send
       {
         dst = peer;
         kind = Netsim.Transport.Reliable;
         msg =
           Rpc.Install_snapshot
             {
               term = t.term;
               last_index;
               last_term = Log.snapshot_term t.log;
               voters =
                 Array.of_list
                   (List.filter
                      (fun n -> Node_id.Set.mem n t.base.m_voters)
                      t.base.m_order);
               learners =
                 Array.of_list
                   (List.filter
                      (fun n -> Node_id.Set.mem n t.base.m_learners)
                      t.base.m_order);
               data;
             };
       })

let rec send_append t ctx peer =
  if Progress.next_index (progress_of t peer) <= Log.snapshot_index t.log
  then
    (* The entries this follower needs were compacted away: ship the
       state-machine snapshot instead, then continue with the log. *)
    match t.snapshot_data with
    | Some data -> send_install_snapshot t ctx peer ~data
    | None ->
        (* No snapshot retained (threshold disabled but log compacted —
           cannot happen in practice); fall through with what we have. *)
        Progress.record_conflict (progress_of t peer)
          ~hint:(Log.first_available t.log);
        send_append_entries t ctx peer
  else send_append_entries t ctx peer

and send_append_entries t ctx peer =
  let msg = append_request_for t peer in
  (match msg with
  | Rpc.Append_request { entries; _ } when Array.length entries > 0 ->
      (* Slices are contiguous and ascending: the last element is the
         highest index (no fold over the batch). *)
      let upto = entries.(Array.length entries - 1).Log.index in
      let pr = progress_of t peer in
      Progress.record_sent pr ~upto;
      Progress.note_append_sent pr ~at:ctx.now
  | Rpc.Append_request _ | Rpc.Vote_request _ | Rpc.Vote_response _
  | Rpc.Append_response _ | Rpc.Heartbeat _ | Rpc.Heartbeat_response _
  | Rpc.Install_snapshot _ | Rpc.Install_snapshot_response _
  | Rpc.Timeout_now _ ->
      ());
  emit ctx (Send { dst = peer; kind = Netsim.Transport.Reliable; msg })

(* The pipelined replication driver: stream batches to [peer] while it
   is behind, its in-flight window has room, and its egress queue is not
   congested.  With the default window this degenerates to at most one
   extra send over the old one-batch-per-trigger flow (a second batch
   only exists when more than [max_entries_per_append] entries are
   pending), which is what keeps the figure digests stable. *)
and replicate t ctx peer =
  let pr = progress_of t peer in
  let window = t.config.Config.max_inflight_appends in
  let limit = t.config.Config.append_backpressure in
  let continue = ref true in
  while
    !continue
    && Progress.needs_entries pr ~last_index:(Log.last_index t.log)
    && Progress.may_send pr ~window
    && t.congestion peer < limit
  do
    let before = Progress.next_index pr in
    send_append t ctx peer;
    (* A send that does not advance [next] (probe resend, snapshot
       fallback) must not spin. *)
    if Progress.next_index pr <= before then continue := false
  done

let send_heartbeat t ctx ~now peer =
  let p = path t peer in
  let hb_id = Dynatune.Leader_path.next_id p in
  let measured_rtt = Dynatune.Leader_path.take_rtt p in
  let commit =
    Stdlib.min t.commit_index (Progress.match_index (progress_of t peer))
  in
  emit ctx
    (Send
       {
         dst = peer;
         kind = t.config.Config.heartbeat_transport;
         msg =
           Rpc.Pool.heartbeat t.pool ~term:t.term ~commit ~hb_id ~sent_at:now
             ~measured_rtt;
       })

(* Section IV-E extension 1: a follower that just received entries has
   already reset its election timer; its heartbeat can be skipped. *)
let heartbeat_suppressed t ctx peer ~interval =
  t.config.Config.suppress_heartbeats_under_load
  && Des.Time.diff ctx.now
       (Progress.last_append_sent_at (progress_of t peer))
     < interval

(* Section IV-E extension 2: the single-timer interval is the minimum h
   across all follower paths. *)
let consolidated_interval t =
  List.fold_left
    (fun acc peer ->
      Des.Time.min_span acc (Dynatune.Leader_path.interval (path t peer)))
    (Config.heartbeat_interval_base t.config)
    t.others

let broadcast_interval t =
  match t.config.Config.tuning with
  | Config.Static -> t.config.Config.heartbeat_interval
  | Config.Dynatune _ | Config.Fix_k _ -> consolidated_interval t

(* {2 Leadership transfer} *)

let maybe_send_timeout_now t ctx =
  match t.transfer with
  | Some tr
    when Types.is_leader t.role
         && (not tr.tr_sent)
         && Progress.match_index (progress_of t tr.tr_target)
            >= Log.last_index t.log ->
      tr.tr_sent <- true;
      emit ctx
        (Send
           {
             dst = tr.tr_target;
             kind = Netsim.Transport.Reliable;
             msg = Rpc.Timeout_now { term = t.term };
           })
  | Some _ | None -> ()

let begin_transfer t ctx ~now target =
  match t.transfer with
  | Some _ -> ()
  | None ->
      if not (Node_id.equal target t.id) then begin
        t.transfer <-
          Some
            {
              tr_target = target;
              tr_deadline =
                Des.Time.add now (Config.election_timeout_base t.config);
              tr_sent = false;
            };
        emit ctx
          (Probe (Probe.Transfer_started { id = t.id; term = t.term; target }));
        maybe_send_timeout_now t ctx;
        match t.transfer with
        | Some { tr_sent = false; _ } ->
            (* Nudge the target's catch-up rather than waiting for the
               heartbeat path to notice it is behind. *)
            replicate t ctx target
        | Some _ | None -> ()
      end

(* A transfer that outlives one (base) election timeout is abandoned and
   the leader resumes accepting proposals; checked lazily from the leader
   timer events. *)
let check_transfer_deadline t ctx ~now =
  match t.transfer with
  | Some tr when now >= tr.tr_deadline ->
      t.transfer <- None;
      emit ctx (Probe (Probe.Transfer_aborted { id = t.id; term = t.term }))
  | Some _ | None -> ()

(* {2 Configuration changes} *)

(* Leader-side config append: a single-server change takes effect as
   soon as it is appended (dissertation §4.1); commitment only gates the
   *next* change. *)
let append_config t ctx change =
  let e = Log.append_new t.log ~term:t.term (Log.Config change) in
  set_current t (apply_change t.current change);
  t.latest_config_index <- e.Log.index;
  emit ctx
    (Probe
       (Probe.Config_change
          {
            id = t.id;
            term = t.term;
            index = e.Log.index;
            change;
            committed = false;
          }));
  (match change with
  | Log.Add_learner n ->
      (* Ship the new member its backlog right away (snapshot first if
         its entries were compacted), and give it a heartbeat timer when
         the leader drives per-peer timers. *)
      let pr = progress_of t n in
      Progress.record_conflict pr ~hint:(Log.first_available t.log);
      send_append t ctx n;
      (match t.config.Config.tuning with
      | Config.Static -> ()
      | Config.Dynatune _ | Config.Fix_k _ ->
          if not t.config.Config.consolidated_timer then
            emit ctx
              (Arm_heartbeat
                 { peer = n; after = Dynatune.Leader_path.interval (path t n) }))
  | Log.Promote _ | Log.Remove _ -> ());
  if not t.flush_requested then begin
    t.flush_requested <- true;
    emit ctx Request_flush
  end;
  e.Log.index

let validate_change t change =
  match change with
  | Log.Add_learner n ->
      if member_of t.current n then Error "already a member" else Ok ()
  | Log.Promote n ->
      if Node_id.Set.mem n t.current.m_learners then Ok ()
      else Error "not a learner"
  | Log.Remove n ->
      if not (member_of t.current n) then Error "not a member"
      else if
        Node_id.Set.mem n t.current.m_voters
        && Node_id.Set.cardinal t.current.m_voters <= 1
      then Error "cannot remove the last voter"
      else Ok ()

(* React to freshly committed entries: probe committed config changes,
   force the tuner back into warm-up (the measurements predate the new
   topology), and hand leadership off when the leader itself was
   removed. *)
let note_committed t ctx newly =
  Array.iter
    (fun (e : Log.entry) ->
      match e.Log.command with
      | Log.Noop | Log.Data _ -> ()
      | Log.Config change -> (
          emit ctx
            (Probe
               (Probe.Config_change
                  {
                    id = t.id;
                    term = t.term;
                    index = e.Log.index;
                    change;
                    committed = true;
                  }));
          (match t.tuner with
          | Some _ ->
              t.rewarm_pending <- true;
              reset_tuner t ctx
          | None -> ());
          match change with
          | Log.Remove n when Node_id.equal n t.id && Types.is_leader t.role
            ->
              (* A removed leader hands off to the most caught-up voter
                 instead of lingering until CheckQuorum deposes it. *)
              let best =
                List.fold_left
                  (fun acc peer ->
                    if not (is_voter_id t peer) then acc
                    else
                      let m = Progress.match_index (progress_of t peer) in
                      match acc with
                      | Some (_, bm) when bm >= m -> acc
                      | Some _ | None -> Some (peer, m))
                  None t.others
              in
              (match best with
              | Some (target, _) -> begin_transfer t ctx ~now:ctx.now target
              | None -> ())
          | Log.Remove _ | Log.Add_learner _ | Log.Promote _ -> ()))
    newly

(* ReadIndex (linearizable reads): a read registered at commit index C is
   servable once (a) a quorum has echoed a heartbeat *sent at or after
   registration* — proving the node was still leader when the read
   arrived — and (b) the state machine has applied at least C.  Only
   heartbeat responses qualify: their echoed timestamp dates the
   evidence (etcd's ReadIndex heartbeat round). *)
let note_read_confirmation t ctx ~from ~sent_at =
  if t.pending_reads <> [] then begin
    List.iter
      (fun r ->
        if sent_at >= r.registered_at && is_voter_id t from then
          r.confirmations <- Node_id.Set.add from r.confirmations)
      t.pending_reads;
    let ready, waiting =
      List.partition
        (fun r ->
          self_weight t + Node_id.Set.cardinal r.confirmations >= quorum t
          && t.commit_index >= r.read_index)
        t.pending_reads
    in
    t.pending_reads <- waiting;
    List.iter
      (fun r ->
        emit ctx
          (Serve_read
             { client_id = r.r_client; seq = r.r_seq; read_index = r.read_index }))
      ready
  end

let maybe_take_snapshot t ctx =
  let threshold = t.config.Config.snapshot_threshold in
  if
    threshold > 0
    && t.commit_index - Log.snapshot_index t.log >= threshold
  then emit ctx (Take_snapshot { upto = t.commit_index })

(* Advance the leader commit index to the highest N with a quorum of
   match indices >= N and log term N = current term. *)
let maybe_advance_commit t ctx =
  let q = quorum t in
  let matches =
    let own = if self_is_voter t then [ Log.last_index t.log ] else [] in
    own
    @ List.filter_map
        (fun p ->
          if is_voter_id t p then Some (Progress.match_index (progress_of t p))
          else None)
        t.others
  in
  if List.length matches >= q then begin
    let sorted = List.sort (fun a b -> Int.compare b a) matches in
    (* The quorum-th largest match index is replicated on a majority. *)
    let candidate = List.nth sorted (q - 1) in
    if
      candidate > t.commit_index
      && Log.term_at t.log candidate = Some t.term
    then begin
      let newly =
        Log.slice t.log ~from:(t.commit_index + 1)
          ~max:(candidate - t.commit_index)
      in
      t.commit_index <- candidate;
      emit ctx (Commit newly);
      note_committed t ctx newly;
      maybe_take_snapshot t ctx
    end
  end

let follower_advance_commit t ctx ~leader_commit =
  let target = Stdlib.min leader_commit (Log.last_index t.log) in
  if target > t.commit_index then begin
    let newly =
      Log.slice t.log ~from:(t.commit_index + 1) ~max:(target - t.commit_index)
    in
    t.commit_index <- target;
    emit ctx (Commit newly);
    note_committed t ctx newly;
    maybe_take_snapshot t ctx
  end

(* The learner promotion rule: once a learner's match index is within
   [learner_promotion_gap] entries of the leader's last index, the leader
   grants it a vote — provided no other change is in flight. *)
let maybe_promote_learner t ctx from =
  if
    Types.is_leader t.role
    && Node_id.Set.mem from t.current.m_learners
    && t.latest_config_index <= t.commit_index
    && (not (Option.is_some t.transfer))
    && Progress.match_index (progress_of t from)
       >= Log.last_index t.log - t.config.Config.learner_promotion_gap
  then ignore (append_config t ctx (Log.Promote from) : Types.index)

(* {2 Leadership} *)

let arm_leader_heartbeats t ctx ~immediately =
  match t.config.Config.tuning with
  | Config.Static ->
      let after = if immediately then 0 else t.config.Config.heartbeat_interval in
      emit ctx (Arm_broadcast after)
  | Config.Dynatune _ | Config.Fix_k _ ->
      if t.config.Config.consolidated_timer then
        let after = if immediately then 0 else broadcast_interval t in
        emit ctx (Arm_broadcast after)
      else
        List.iter
          (fun peer ->
            (* Stagger the initial phase of each per-peer timer uniformly
               over one interval: real schedulers drift the n−1 timers
               apart, and the resulting independent heartbeat phases
               spread follower expiries after a leader failure (fewer
               simultaneous candidacies, hence fewer split votes). *)
            let after =
              if immediately then 0
              else
                let interval = Dynatune.Leader_path.interval (path t peer) in
                1 + Stats.Rng.int t.rng (Stdlib.max 1 interval)
            in
            emit ctx (Arm_heartbeat { peer; after }))
          t.others

let become_leader t ctx =
  t.leader <- Some t.id;
  t.quorum_acks <- Node_id.Set.empty;
  t.transfer <- None;
  emit ctx Disarm_election;
  if t.config.Config.check_quorum then
    emit ctx (Arm_quorum_check (Config.election_timeout_base t.config));
  Array.fill t.progress 0 (Array.length t.progress) None;
  Array.fill t.batches 0 (Array.length t.batches) None;
  Array.iter
    (function Some p -> Dynatune.Leader_path.reset p | None -> ())
    t.paths;
  List.iter (fun peer -> ignore (progress_of t peer : Progress.t)) t.others;
  ignore (Log.append_new t.log ~term:t.term Log.Noop : Log.entry);
  set_role t ctx Types.Leader;
  List.iter (fun peer -> replicate t ctx peer) t.others;
  arm_leader_heartbeats t ctx ~immediately:false;
  (* A single-server cluster commits by itself. *)
  maybe_advance_commit t ctx

(* {2 Elections} *)

let broadcast_vote_request t ctx ~pre ~force =
  let req =
    Rpc.Vote_request
      {
        term = (if pre then t.term + 1 else t.term);
        last_log_index = Log.last_index t.log;
        last_log_term = Log.last_term t.log;
        pre_vote = pre;
        force;
      }
  in
  List.iter
    (fun peer ->
      if is_voter_id t peer then
        emit ctx
          (Send { dst = peer; kind = Netsim.Transport.Reliable; msg = req }))
    t.others

let rec campaign t ctx ~pre ~force =
  t.votes <- Node_id.Set.singleton t.id;
  if pre then begin
    set_role t ctx Types.Pre_candidate;
    if Node_id.Set.cardinal t.votes >= quorum t then
      campaign t ctx ~pre:false ~force
    else begin
      broadcast_vote_request t ctx ~pre:true ~force;
      arm_election t ctx
    end
  end
  else begin
    t.term <- t.term + 1;
    t.voted_for <- Some t.id;
    t.force_campaign <- force;
    set_role t ctx Types.Candidate;
    emit ctx (Probe (Probe.Election_started { id = t.id; term = t.term }));
    if Node_id.Set.cardinal t.votes >= quorum t then become_leader t ctx
    else begin
      broadcast_vote_request t ctx ~pre:false ~force;
      arm_election t ctx
    end
  end

let on_election_timeout t ctx =
  match t.role with
  | Types.Leader -> ()
  | Types.Follower | Types.Pre_candidate | Types.Candidate ->
      if not (self_is_voter t) then begin
        (* Learners (and servers already removed from the config) never
           campaign; their timer only marks lost leader contact, which
           still discards the tuner's measurements. *)
        t.leader <- None;
        reset_tuner t ctx;
        arm_election t ctx
      end
      else begin
        emit ctx (Probe (timeout_probe t));
        (* Fall back to the default parameters: discard measurements
           (Section III-B).  The lease is gone: we no longer trust the
           leader. *)
        t.leader <- None;
        reset_tuner t ctx;
        campaign t ctx ~pre:t.config.Config.pre_vote ~force:false
      end

(* {2 Leader contact (heartbeats / appends)} *)

let note_leader_contact t ctx ~now ~from ~term =
  t.last_leader_contact <- now;
  let new_leader = t.leader <> Some from in
  (match t.role with
  | Types.Pre_candidate ->
      emit ctx (Probe (Probe.Pre_vote_aborted { id = t.id; term = t.term }))
  | Types.Follower | Types.Candidate | Types.Leader -> ());
  if term > t.term || not (Types.equal_role t.role Types.Follower) then
    become_follower t ctx ~term ~leader:(Some from)
  else begin
    t.leader <- Some from;
    arm_election t ctx
  end;
  (* A change of leader starts measurement from scratch (Step 0 with the
     new leader). *)
  if new_leader then reset_tuner t ctx

(* {2 Message handlers} *)

let on_vote_request t ctx ~now ~from (req : Rpc.vote_request) =
  if not (self_is_voter t) then begin
    (* A learner (or removed server) has no vote to give.  Adopt newer
       real terms so later messages are not mistaken for stale ones. *)
    if (not req.pre_vote) && req.term > t.term then begin
      t.term <- req.term;
      t.voted_for <- None
    end;
    emit ctx
      (Send
         {
           dst = from;
           kind = Netsim.Transport.Reliable;
           msg =
             Rpc.Vote_response
               { term = t.term; granted = false; pre_vote = req.pre_vote };
         })
  end
  else begin
  let log_ok =
    Log.up_to_date t.log ~last_index:req.last_log_index
      ~last_term:req.last_log_term
  in
  (* etcd's CheckQuorum lease: campaigns are ignored while we have heard
     from a leader within the (base, un-randomized) election timeout. *)
  let lease_active =
    (not req.force)
    && t.config.Config.leader_stickiness
    && t.leader <> None
    && Des.Time.diff now t.last_leader_contact < election_timeout_now t
  in
  if req.pre_vote then begin
    let granted = req.term > t.term && log_ok && not lease_active in
    let term = if granted then req.term else t.term in
    emit ctx
      (Send
         {
           dst = from;
           kind = Netsim.Transport.Reliable;
           msg = Rpc.Vote_response { term; granted; pre_vote = true };
         })
  end
  else if req.term < t.term then
    emit ctx
      (Send
         {
           dst = from;
           kind = Netsim.Transport.Reliable;
           msg = Rpc.Vote_response { term = t.term; granted = false; pre_vote = false };
         })
  else if lease_active && req.term > t.term then
    (* Within the lease we ignore higher-term campaigns entirely (etcd's
       CheckQuorum behaviour): do not adopt the term, reject. *)
    emit ctx
      (Send
         {
           dst = from;
           kind = Netsim.Transport.Reliable;
           msg = Rpc.Vote_response { term = t.term; granted = false; pre_vote = false };
         })
  else begin
    if req.term > t.term then become_follower t ctx ~term:req.term ~leader:None;
    let can_vote =
      match t.voted_for with
      | None -> true
      | Some v -> Node_id.equal v from
    in
    let granted = can_vote && log_ok in
    if granted then begin
      t.voted_for <- Some from;
      arm_election t ctx
    end;
    emit ctx
      (Send
         {
           dst = from;
           kind = Netsim.Transport.Reliable;
           msg =
             Rpc.Vote_response { term = t.term; granted; pre_vote = false };
         })
  end
  end

let on_vote_response t ctx ~from (resp : Rpc.vote_response) =
  if resp.term > t.term && not resp.granted then
    become_follower t ctx ~term:resp.term ~leader:None
  else
    match (t.role, resp.pre_vote) with
    | Types.Pre_candidate, true
      when resp.granted && resp.term = t.term + 1 ->
        if is_voter_id t from then t.votes <- Node_id.Set.add from t.votes;
        if Node_id.Set.cardinal t.votes >= quorum t then
          campaign t ctx ~pre:false ~force:t.force_campaign
    | Types.Candidate, false when resp.granted && resp.term = t.term ->
        if is_voter_id t from then t.votes <- Node_id.Set.add from t.votes;
        if Node_id.Set.cardinal t.votes >= quorum t then become_leader t ctx
    | _ -> ()

(* Top-level predicate: a per-call closure here would charge every
   follower append five words. *)
let entry_is_config (e : Log.entry) =
  match e.Log.command with
  | Log.Config _ -> true
  | Log.Noop | Log.Data _ -> false

let on_append_request t ctx ~now ~from (req : Rpc.append_request) =
  if req.term < t.term then
    emit ctx
      (Send
         {
           dst = from;
           kind = Netsim.Transport.Reliable;
           msg =
             Rpc.Pool.append_response t.pool ~term:t.term ~success:false
               ~match_index:0 ~conflict_hint:0 ~req_prev:req.prev_index;
         })
  else begin
    note_leader_contact t ctx ~now ~from ~term:req.term;
    let response =
      match
        Log.try_append t.log ~prev_index:req.prev_index
          ~prev_term:req.prev_term ~entries:req.entries
      with
      | `Ok covered ->
          (* Config entries are applied on append; a conflicting-suffix
             truncation can also retract one (detected via the log's
             mutation counter). *)
          if
            Array.exists entry_is_config req.entries
            || Log.mutations t.log <> t.config_mutations
          then refresh_membership t;
          follower_advance_commit t ctx ~leader_commit:req.commit;
          Rpc.Pool.append_response t.pool ~term:t.term ~success:true
            ~match_index:covered ~conflict_hint:0 ~req_prev:req.prev_index
      | `Conflict hint ->
          Rpc.Pool.append_response t.pool ~term:t.term ~success:false
            ~match_index:0 ~conflict_hint:hint ~req_prev:req.prev_index
    in
    emit ctx
      (Send { dst = from; kind = Netsim.Transport.Reliable; msg = response })
  end

let on_append_response t ctx ~now ~from (resp : Rpc.append_response) =
  if resp.term > t.term then become_follower t ctx ~term:resp.term ~leader:None
  else if Types.is_leader t.role && resp.term = t.term then begin
    note_ack t from;
    let pr = progress_of t from in
    Progress.note_response pr ~at:now;
    if resp.success then begin
      Progress.record_success pr ~upto:resp.match_index;
      maybe_advance_commit t ctx;
      maybe_send_timeout_now t ctx;
      maybe_promote_learner t ctx from;
      replicate t ctx from
    end
    else
      (* Only a conflict for the probe currently in flight rewinds; a
         nack answering a send from before an earlier rewind is dropped,
         or every stale nack would re-append the same entries. *)
      match
        Progress.record_conflict_response pr ~req_prev:resp.req_prev
          ~hint:resp.conflict_hint
      with
      | `Rewound -> send_append t ctx from
      | `Stale -> ()
  end

(* Inline-record messages cannot escape their match, so the dispatch in
   [handle] passes the heartbeat fields as arguments. *)
let on_heartbeat t ctx ~now ~from ~term:hb_term ~commit ~hb_id ~sent_at
    ~measured_rtt =
  if hb_term < t.term then
    emit ctx
      (Send
         {
           dst = from;
           kind = t.config.Config.heartbeat_transport;
           msg =
             Rpc.Pool.heartbeat_response t.pool ~term:t.term ~hb_id
               ~echo_sent_at:sent_at ~tuned_h:None;
         })
  else begin
    (* Leader contact: abort any pre-campaign, adopt the term/leader,
       and — if the leader changed — restart measurement (Step 0). *)
    (match t.role with
    | Types.Pre_candidate ->
        emit ctx (Probe (Probe.Pre_vote_aborted { id = t.id; term = t.term }))
    | Types.Follower | Types.Candidate | Types.Leader -> ());
    let new_leader = t.leader <> Some from in
    t.last_leader_contact <- now;
    if hb_term > t.term || not (Types.equal_role t.role Types.Follower) then
      become_follower t ctx ~term:hb_term ~leader:(Some from)
    else t.leader <- Some from;
    if new_leader then reset_tuner t ctx;
    (* Record the measurement sample before re-arming so the timer uses
       the freshest tuned Et. *)
    (match t.tuner with
    | Some tuner ->
        Dynatune.Tuner.observe_heartbeat tuner ~hb_id ~rtt:measured_rtt
    | None -> ());
    note_tuner_decision t ctx;
    follower_advance_commit t ctx ~leader_commit:commit;
    emit ctx
      (Send
         {
           dst = from;
           kind = t.config.Config.heartbeat_transport;
           msg =
             Rpc.Pool.heartbeat_response t.pool ~term:t.term ~hb_id
               ~echo_sent_at:sent_at ~tuned_h:(piggyback_h t);
         });
    arm_election t ctx
  end

let on_heartbeat_response t ctx ~now ~from ~term:resp_term ~echo_sent_at
    ~tuned_h =
  if resp_term > t.term then become_follower t ctx ~term:resp_term ~leader:None
  else if Types.is_leader t.role && resp_term = t.term then begin
    note_ack t from;
    note_read_confirmation t ctx ~from ~sent_at:echo_sent_at;
    maybe_send_timeout_now t ctx;
    maybe_promote_learner t ctx from;
    Dynatune.Leader_path.on_response (path t from) ~now ~echo_sent_at ~tuned_h;
    (* Heartbeat responses double as replication nudges.  A follower can
       be behind in two ways: entries never handed to the transport
       ([needs_entries]), or entries sent optimistically while it was
       unreachable and silently dropped — detected as a stale response
       clock, in which case [next] is rewound to just past its match. *)
    let pr = progress_of t from in
    let last_index = Log.last_index t.log in
    let stale_clock () =
      Des.Time.diff now (Progress.last_response_at pr)
      > Config.election_timeout_base t.config
    in
    if Progress.needs_entries pr ~last_index then begin
      if Progress.inflight pr > 0 && stale_clock () then begin
        (* The window is full of sends that never drew a response: they
           were dropped while the follower was unreachable, and no nack
           will ever drain them.  Rewind to re-probe from its match. *)
        Progress.record_conflict pr ~hint:(Progress.match_index pr + 1);
        Progress.note_response pr ~at:now;
        send_append t ctx from
      end
      else replicate t ctx from
    end
    else if Progress.match_index pr < last_index && stale_clock () then begin
      Progress.record_conflict pr ~hint:(Progress.match_index pr + 1);
      Progress.note_response pr ~at:now;
      send_append t ctx from
    end
  end

let on_install_snapshot t ctx ~now ~from (snap : Rpc.install_snapshot) =
  if snap.term < t.term then
    emit ctx
      (Send
         {
           dst = from;
           kind = Netsim.Transport.Reliable;
           msg =
             Rpc.Install_snapshot_response
               { term = t.term; match_index = 0 };
         })
  else begin
    note_leader_contact t ctx ~now ~from ~term:snap.term;
    if snap.last_index > t.commit_index then begin
      Log.install_snapshot t.log ~index:snap.last_index ~term:snap.last_term;
      (* The wire carries the configuration at the snapshot boundary;
         with the log gone it becomes both base and live config. *)
      t.base <-
        {
          m_voters = Node_id.Set.of_list (Array.to_list snap.voters);
          m_learners = Node_id.Set.of_list (Array.to_list snap.learners);
          m_order = Array.to_list snap.voters @ Array.to_list snap.learners;
        };
      refresh_membership t;
      t.commit_index <- snap.last_index;
      t.snapshot_data <- Some snap.data;
      emit ctx (Install_sm { data = snap.data; last_index = snap.last_index })
    end;
    emit ctx
      (Send
         {
           dst = from;
           kind = Netsim.Transport.Reliable;
           msg =
             Rpc.Install_snapshot_response
               { term = t.term; match_index = t.commit_index };
         })
  end

let on_install_snapshot_response t ctx ~now ~from
    (resp : Rpc.install_snapshot_response) =
  if resp.term > t.term then become_follower t ctx ~term:resp.term ~leader:None
  else if Types.is_leader t.role && resp.term = t.term then begin
    note_ack t from;
    let pr = progress_of t from in
    Progress.note_response pr ~at:now;
    Progress.record_success pr ~upto:resp.match_index;
    maybe_advance_commit t ctx;
    maybe_send_timeout_now t ctx;
    maybe_promote_learner t ctx from;
    replicate t ctx from
  end

let on_timeout_now t ctx ~term =
  (* Leadership transfer: campaign immediately, bypassing the pre-vote
     and the voters' leases (etcd's campaignTransfer).  Only voters may
     take the leadership offered. *)
  if term >= t.term && (not (Types.is_leader t.role)) && self_is_voter t then
    campaign t ctx ~pre:false ~force:true

(* {2 Host-facing API} *)

let start t =
  let ctx = fresh_ctx t ~now:Des.Time.zero in
  arm_election t ctx;
  finish ctx

let handle t ~now event =
  let ctx = fresh_ctx t ~now in
  (match event with
  | Message { from; msg } ->
      (match msg with
      | Rpc.Vote_request req -> on_vote_request t ctx ~now ~from req
      | Rpc.Vote_response resp -> on_vote_response t ctx ~from resp
      | Rpc.Append_request req -> on_append_request t ctx ~now ~from req
      | Rpc.Append_response resp -> on_append_response t ctx ~now ~from resp
      | Rpc.Heartbeat { term; commit; hb_id; sent_at; measured_rtt; _ } ->
          on_heartbeat t ctx ~now ~from ~term ~commit ~hb_id ~sent_at
            ~measured_rtt
      | Rpc.Heartbeat_response { term; echo_sent_at; tuned_h; _ } ->
          on_heartbeat_response t ctx ~now ~from ~term ~echo_sent_at ~tuned_h
      | Rpc.Install_snapshot snap -> on_install_snapshot t ctx ~now ~from snap
      | Rpc.Install_snapshot_response resp ->
          on_install_snapshot_response t ctx ~now ~from resp
      | Rpc.Timeout_now { term } -> on_timeout_now t ctx ~term);
      (* The delivery is fully consumed: recycle the payload record.
         Exactly-once per delivery — the fabric clones duplicated
         datagrams, and hand-built records (gen 0) are ignored. *)
      Rpc.Pool.release t.pool msg
  | Election_timeout_fired -> on_election_timeout t ctx
  | Heartbeat_due peer ->
      if Types.is_leader t.role then begin
        check_transfer_deadline t ctx ~now;
        if member_of t.current peer then begin
          let interval = Dynatune.Leader_path.interval (path t peer) in
          if not (heartbeat_suppressed t ctx peer ~interval) then
            send_heartbeat t ctx ~now peer;
          emit ctx (Arm_heartbeat { peer; after = interval })
        end
        (* A removed member's timer simply dies: no re-arm. *)
      end
  | Broadcast_due ->
      if Types.is_leader t.role then begin
        check_transfer_deadline t ctx ~now;
        let interval = broadcast_interval t in
        List.iter
          (fun peer ->
            if not (heartbeat_suppressed t ctx peer ~interval) then
              send_heartbeat t ctx ~now peer)
          t.others;
        emit ctx (Arm_broadcast interval)
      end
  | Quorum_check_due ->
      if Types.is_leader t.role && t.config.Config.check_quorum then begin
        check_transfer_deadline t ctx ~now;
        if
          self_weight t
          + Node_id.Set.cardinal
              (Node_id.Set.inter t.quorum_acks t.current.m_voters)
          >= quorum t
        then begin
          t.quorum_acks <- Node_id.Set.empty;
          emit ctx (Arm_quorum_check (Config.election_timeout_base t.config))
        end
        else
          (* No quorum heard from within an election timeout: the leader
             abdicates (etcd CheckQuorum). *)
          become_follower t ctx ~term:t.term ~leader:None
      end
  | Flush_due ->
      t.flush_requested <- false;
      if Types.is_leader t.role then
        List.iter (fun peer -> replicate t ctx peer) t.others
  | Propose { payload; client_id; seq } ->
      if Types.is_leader t.role && not (Option.is_some t.transfer) then begin
        ignore
          (Log.append_new t.log ~term:t.term
             (Log.Data { payload; client_id; seq })
            : Log.entry);
        if not t.flush_requested then begin
          t.flush_requested <- true;
          emit ctx Request_flush
        end;
        (* A single-server cluster commits immediately. *)
        if t.others = [] then maybe_advance_commit t ctx
      end
      else
        (* Not leader — or leadership is in transit (etcd rejects
           proposals during a transfer rather than risk losing them). *)
        emit ctx (Reject_proposal { client_id; seq })
  | Read { client_id; seq } ->
      if Types.is_leader t.role then
        if t.others = [] then
          (* Single-server cluster: trivially confirmed. *)
          emit ctx
            (Serve_read { client_id; seq; read_index = t.commit_index })
        else begin
          t.pending_reads <-
            {
              r_client = client_id;
              r_seq = seq;
              read_index = t.commit_index;
              registered_at = now;
              confirmations = Node_id.Set.empty;
            }
            :: t.pending_reads;
          (* Kick off the confirmation round immediately rather than
             waiting for the next scheduled heartbeat (as etcd does). *)
          List.iter (fun peer -> send_heartbeat t ctx ~now peer) t.others
        end
      else emit ctx (Reject_proposal { client_id; seq })
  | Transfer_leadership target ->
      if
        Types.is_leader t.role
        && is_voter_id t target
        && not (Node_id.equal target t.id)
      then begin_transfer t ctx ~now target
  | Snapshot_ready { upto; data } ->
      if upto <= t.commit_index && upto > Log.snapshot_index t.log then begin
        fold_base t ~upto;
        Log.compact t.log ~upto;
        t.snapshot_data <- Some data
      end
  | Restarted ->
      if Types.is_leader t.role then begin
        arm_leader_heartbeats t ctx ~immediately:true;
        t.quorum_acks <- Node_id.Set.empty;
        if t.config.Config.check_quorum then
          emit ctx (Arm_quorum_check (Config.election_timeout_base t.config))
      end
      else begin
        t.leader <- None;
        arm_election t ctx
      end);
  finish ctx

let reconfigure t ~now change =
  let ctx = fresh_ctx t ~now in
  let result =
    if not (Types.is_leader t.role) then `Not_leader
    else if Option.is_some t.transfer then `Pending
    else if t.latest_config_index > t.commit_index then
      (* At most one change may be in flight (§4.1): the previous entry
         must commit before the next one is accepted. *)
      `Pending
    else
      match validate_change t change with
      | Error msg -> `Invalid msg
      | Ok () ->
          let index = append_config t ctx change in
          (* A cluster whose only voter is this leader commits alone. *)
          if t.others = [] then maybe_advance_commit t ctx;
          `Ok index
  in
  (finish ctx, result)
