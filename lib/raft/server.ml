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

(* The cluster configuration in force at some log position.  [members]
   lists every member (voters and learners) in insertion order; iteration
   over it is what replaces the frozen [peers] list, so for a cluster
   that never reconfigures the traversal — and hence every PRNG draw —
   is identical to the pre-reconfiguration code.  [learners] holds the
   learners among them; every other member votes.  Neither list repeats
   an id. *)
type membership = { members : Node_id.t list; learners : Node_id.t list }

(* Top-level rather than [List.exists (Node_id.equal n)], which would
   allocate a closure per call. *)
let rec mem n = function
  | [] -> false
  | x :: rest -> Node_id.equal x n || mem n rest

let votes_in m n = mem n m.members && not (mem n m.learners)
let voters_of m = List.filter (fun n -> not (mem n m.learners)) m.members
let learners_of m = List.filter (fun n -> mem n m.learners) m.members

(* The live configuration's roles as an open-addressing table of at
   least twice as many slots as members: the leader's per-heartbeat
   membership and voter checks probe it with int compares, where the
   lists would be scanned.  A slot holds [id * 2 + 1] for a voter,
   [id * 2] for a learner, or -1.  Ids are small and mostly consecutive,
   so with the mask as hash nearly every probe ends at its first slot.
   The membership lists stay canonical; this is a cache of them,
   O(members) in size. *)
module Roles = struct
  type t = int array

  let absent = -1

  let rec probe slots mask id i =
    let v = slots.(i) in
    if v = absent || v lsr 1 = id then v
    else probe slots mask id ((i + 1) land mask)

  (* The slot of [id], or -1. *)
  let find slots id =
    let mask = Array.length slots - 1 in
    probe slots mask id (id land mask)

  let rec pow2_above n size =
    if size >= n then size else pow2_above n (2 * size)

  let of_membership m =
    let slots =
      Array.make (pow2_above (2 * List.length m.members) 2) absent
    in
    let mask = Array.length slots - 1 in
    List.iter
      (fun n ->
        let id = Node_id.to_int n in
        let i = ref (id land mask) in
        while slots.(!i) <> absent do
          i := (!i + 1) land mask
        done;
        slots.(!i) <- (id lsl 1) lor if mem n m.learners then 0 else 1)
      m.members;
    slots

  let mem slots id = find slots (Node_id.to_int id) >= 0

  let is_voter slots id =
    let v = find slots (Node_id.to_int id) in
    v >= 0 && v land 1 = 1

  let is_learner slots id =
    let v = find slots (Node_id.to_int id) in
    v >= 0 && v land 1 = 0
end

(* Linearizable reads awaiting confirmation, oldest first, in a ring
   whose capacity is a power of two.  Reads are numbered in
   registration order: the read [k] places behind the oldest has number
   [first + k].  Serving or rejecting reads only advances [first], so
   numbers are never reused and a confirmation number left over from
   earlier reads cannot cover a newer one. *)
module Reads = struct
  type read = {
    client : int;
    seq : int;
    read_index : Types.index;
    registered_at : Des.Time.t;
  }

  type t = {
    mutable buf : read array;
    mutable head : int;  (* slot of the oldest read *)
    mutable len : int;
    mutable first : int;  (* number of the oldest read *)
  }

  (* Filler for free slots, so served reads are not kept reachable. *)
  let free =
    { client = 0; seq = 0; read_index = 0; registered_at = Des.Time.zero }

  let create () = { buf = [||]; head = 0; len = 0; first = 0 }
  let slot q k = (q.head + k) land (Array.length q.buf - 1)
  let get q k = q.buf.(slot q k)

  let push q r =
    let cap = Array.length q.buf in
    if q.len = cap then begin
      let bigger = Array.make (Int.max 8 (2 * cap)) free in
      for k = 0 to q.len - 1 do
        bigger.(k) <- get q k
      done;
      q.buf <- bigger;
      q.head <- 0
    end;
    q.buf.(slot q q.len) <- r;
    q.len <- q.len + 1

  (* Retire the [k] oldest reads. *)
  let drop q k =
    for i = 0 to k - 1 do
      q.buf.(slot q i) <- free
    done;
    q.head <- slot q k;
    q.len <- q.len - k;
    q.first <- q.first + k
end

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
      (* [current.members] minus self, cached for the hot paths *)
  mutable roles : Roles.t;
      (* [current]'s roles while leader, empty otherwise: only a leader
         checks membership per heartbeat, so a group holds one table
         rather than one per server *)
  mutable self_voter : bool;
  mutable voter_count : int;
  mutable latest_config_index : Types.index;
  mutable config_mutations : int;
  mutable transfer : transfer option;
  mutable rewarm_pending : bool;
  mutable term : Types.term;
  mutable voted_for : Node_id.t option;
  mutable role : Types.role;
  mutable leader : Node_id.t option;
  mutable commit_index : Types.index;
  mutable quorum : int;
      (* majority of [current]'s voters, cached by [set_current] *)
  mutable match_scratch : int array;
      (* [maybe_advance_commit] ranks the voters' match indices here
         instead of building a list; sized by the leader on first use *)
  mutable votes : Node_id.Set.t;
  mutable ack_round : int;
      (* the CheckQuorum round: a voter's ack stamps its [Progress] with
         it, and bumping it forgets every ack at once *)
  (* Per-follower leader state, heartbeat path included, is kept in an
     option array indexed by [Node_id.to_int peer]: the lookups run per
     heartbeat and per replication op, so they must not hash. *)
  mutable progress : Progress.t option array;
  mutable all_progress : Progress.t list;
      (* every record [progress] has held this leadership, members or
         not: a voter removed while reads are pending still counts for
         the reads it confirmed *)
  congestion : Node_id.t -> int;  (* the host's egress-depth probe *)
  tuner : Dynatune.Tuner.t option;
  mutable randomized : Des.Time.span;
  mutable last_leader_contact : Des.Time.t;
  mutable flush_requested : bool;
  mutable snapshot_data : string option;
  mutable force_campaign : bool;
  reads : Reads.t;
  instrument : bool;
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
and ctx = { mutable acts : action list; mutable now : Des.Time.t }

(* {2 Membership} *)

let without n = List.filter (fun x -> not (Node_id.equal x n))

let apply_change m = function
  | Log.Add_learner n ->
      if mem n m.members then m
      else { members = m.members @ [ n ]; learners = n :: m.learners }
  | Log.Promote n ->
      if mem n m.learners then { m with learners = without n m.learners }
      else m
  | Log.Remove n ->
      { members = without n m.members; learners = without n m.learners }

(* Called whenever [current] or the role changes. *)
let refresh_roles t =
  t.roles <-
    (if Types.is_leader t.role then Roles.of_membership t.current else [||])

let set_current t m =
  t.current <- m;
  t.others <- without t.id m.members;
  t.self_voter <- votes_in m t.id;
  t.voter_count <- List.length m.members - List.length m.learners;
  t.quorum <- (t.voter_count / 2) + 1;
  refresh_roles t

let is_voter_id t n =
  if Types.is_leader t.role then Roles.is_voter t.roles n
  else votes_in t.current n

let self_is_voter t = t.self_voter
let self_weight t = if t.self_voter then 1 else 0

(* The boundary config with every config entry stored in the log at or
   below [upto] applied, and the index of the last one applied (0 if
   none). *)
let apply_log_configs t ~upto =
  List.fold_left
    (fun ((m, _) as acc) i ->
      match Log.entry_at t.log i with
      | Some { Log.command = Log.Config c; _ } when i <= upto ->
          (apply_change m c, i)
      | Some { Log.command = Log.Config _ | Log.Noop | Log.Data _; _ } | None
        ->
          acc)
    (t.base, 0) (Log.config_indices t.log)

(* Re-derive the live configuration: the boundary config plus every
   config entry still stored in the log (applied-on-append). *)
let refresh_membership t =
  let m, latest = apply_log_configs t ~upto:max_int in
  set_current t m;
  t.latest_config_index <- latest;
  t.config_mutations <- Log.mutations t.log

(* Fold the config entries at or below [upto] into the boundary config;
   called just before the log compacts to [upto]. *)
let fold_base t ~upto = t.base <- fst (apply_log_configs t ~upto)

let create ?restore ?pool ?(joining = false) ~instrument ~congestion ~id
    ~peers ~config ~rng () =
  (match Config.validate config with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Server.create: " ^ msg));
  if mem id peers then
    invalid_arg "Server.create: peers must not contain the server itself";
  let tuner =
    let create ?fixed_k cfg =
      Some
        (Dynatune.Tuner.create ?fixed_k cfg
           ~election_timeout:config.Config.election_timeout
           ~heartbeat_interval:config.Config.heartbeat_interval)
    in
    match config.Config.tuning with
    | Config.Static -> None
    | Config.Dynatune cfg -> create cfg
    | Config.Fix_k { cfg; k } -> create ~fixed_k:k cfg
  in
  let log = Log.create () in
  let term, voted_for, snapshot_data, base =
    match restore with
    | None ->
        (* A joining server starts outside the configuration: it learns
           of its own membership from the Add_learner entry the leader
           replicates to it. *)
        let members = if joining then peers else id :: peers in
        (0, None, None, { members; learners = [] })
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
        ( p.term,
          p.voted_for,
          snapshot_data,
          {
            members = p.base_voters @ p.base_learners;
            learners = p.base_learners;
          } )
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
      roles = [||];
      self_voter = false;
      voter_count = 0;
      latest_config_index = 0;
      config_mutations = 0;
      transfer = None;
      rewarm_pending = false;
      term;
      voted_for;
      role = Types.Follower;
      leader = None;
      commit_index = Log.snapshot_index log;
      quorum = 1;
      match_scratch = [||];
      votes = Node_id.Set.empty;
      ack_round = 0;
      progress = [||];
      all_progress = [];
      congestion;
      tuner;
      randomized = 0;
      last_leader_contact = Des.Time.zero;
      flush_requested = false;
      snapshot_data;
      force_campaign = false;
      reads = Reads.create ();
      instrument;
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
    base_voters = voters_of srv.base;
    base_learners = learners_of srv.base;
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

let voters t = voters_of t.current
let learners t = learners_of t.current
let members t = t.current.members
let is_voter t n = is_voter_id t n
let votes t = Node_id.Set.elements t.votes
let transfer_pending t = Option.map (fun tr -> tr.tr_target) t.transfer

let pending_config t =
  if t.latest_config_index > t.commit_index then Some t.latest_config_index
  else None

(* The interval toward [peer]: its path's, or the base h for a peer
   with no record this leadership, which is what a fresh path holds. *)
let interval_to t peer =
  let i = Node_id.to_int peer in
  match if i < Array.length t.progress then t.progress.(i) else None with
  | Some pr -> Dynatune.Leader_path.interval (Progress.path pr)
  | None -> t.config.Config.heartbeat_interval

let heartbeat_interval_to t peer =
  if Types.is_leader t.role then Some (interval_to t peer) else None

(* The h a follower piggybacks to the leader (Step 3); [None] while
   warming or untuned: the leader then keeps its current (default)
   interval. *)
let piggyback_h t =
  match t.tuner with
  | Some tuner -> Dynatune.Tuner.piggyback_h tuner
  | None -> None

(* The expiry probe, carrying the (Et, h, K) the expired timer ran
   under.  Built before the fallback resets the tuner, so a tuned
   follower reports its tuned values.  h is the configured interval
   while warming (or in static mode); K is 0 when no tuner exists. *)
let timeout_probe t =
  let h, k =
    match t.tuner with
    | Some tuner ->
        ( Dynatune.Tuner.heartbeat_interval tuner,
          Dynatune.Tuner.required_heartbeats tuner )
    | None -> (t.config.Config.heartbeat_interval, 0)
  in
  Probe.Timeout_expired
    {
      id = t.id;
      term = t.term;
      randomized = t.randomized;
      et = election_timeout_now t;
      h;
      k;
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
  let et = Int.max 1 (election_timeout_now t) in
  et + Stats.Rng.int t.rng et

let arm_election t ctx =
  t.randomized <- draw_timeout t;
  emit ctx (Arm_election t.randomized)

let set_role t ctx role =
  if not (Types.equal_role t.role role) then begin
    t.role <- role;
    refresh_roles t;
    emit ctx (Probe (Probe.Role_change { id = t.id; role; term = t.term }))
  end

let reset_tuner t ctx =
  match t.tuner with
  | Some tuner ->
      Dynatune.Tuner.reset tuner;
      emit ctx (Probe (Probe.Tuner_reset { id = t.id }))
  | None -> ()

let probe_decision t ctx tuner reason =
  let reason = if t.rewarm_pending then Probe.Reconfigured else reason in
  t.rewarm_pending <- false;
  emit ctx
    (Probe
       (Probe.Tuner_decision
          {
            id = t.id;
            rtt_ms = Des.Time.to_ms_f (Dynatune.Tuner.rtt_mean tuner);
            rtt_std_ms = Des.Time.to_ms_f (Dynatune.Tuner.rtt_std tuner);
            loss = Dynatune.Tuner.loss_rate tuner;
            k = Dynatune.Tuner.required_heartbeats tuner;
            et = Dynatune.Tuner.election_timeout tuner;
            h = Dynatune.Tuner.heartbeat_interval tuner;
            reason;
          }))

(* Probe the tuner's chosen parameters when they change.  Runs only on
   instrumented servers: the probe volume stays out of plain
   campaigns. *)
let note_tuner_decision t ctx =
  if t.instrument then
    match t.tuner with
    | None -> ()
    | Some tuner -> (
        match Dynatune.Tuner.take_decision tuner with
        | Dynatune.Tuner.Unchanged -> ()
        | Dynatune.Tuner.First -> probe_decision t ctx tuner Probe.Warmed
        | Dynatune.Tuner.Moved -> probe_decision t ctx tuner Probe.Retuned)

let become_follower t ctx ~term ~leader =
  if term > t.term then begin
    t.term <- term;
    t.voted_for <- None
  end;
  if Types.is_leader t.role then begin
    emit ctx Disarm_heartbeats;
    (* Linearizable reads awaiting confirmation cannot be served by a
       deposed leader.  Rejected newest first, like served reads. *)
    let q = t.reads in
    for k = q.Reads.len - 1 downto 0 do
      let r = Reads.get q k in
      emit ctx
        (Reject_proposal { client_id = r.Reads.client; seq = r.Reads.seq })
    done;
    Reads.drop q q.Reads.len
  end;
  t.votes <- Node_id.Set.empty;
  (* A pending transfer ends with deposition — by the transferee on
     success, by anyone else on failure.  Either way it is over. *)
  t.transfer <- None;
  t.leader <- leader;
  set_role t ctx Types.Follower;
  arm_election t ctx

(* {2 Leader-side replication} *)

(* [peer]'s record for this leadership, made on first use with a fresh
   heartbeat path.  The array is reassigned only when it grows: writing
   back the same pointer would still pay the write barrier on every
   heartbeat. *)
let progress_of t peer =
  let i = Node_id.to_int peer in
  if i >= Array.length t.progress then begin
    let bigger = Array.make (i + 8) None in
    Array.blit t.progress 0 bigger 0 (Array.length t.progress);
    t.progress <- bigger
  end;
  match t.progress.(i) with
  | Some p -> p
  | None ->
      (* Static mode still stamps measurement metadata (followers
         simply ignore it), so every follower has a path. *)
      let p =
        Progress.create ~last_index:(Log.last_index t.log)
          ~path:
            (Dynatune.Leader_path.create
               ~heartbeat_interval:t.config.Config.heartbeat_interval)
      in
      t.progress.(i) <- Some p;
      t.all_progress <- p :: t.all_progress;
      p

(* Quorum evidence (CheckQuorum, ReadIndex) only ever counts voters. *)
let note_ack t from =
  if is_voter_id t from then
    Progress.note_ack (progress_of t from) ~round:t.ack_round

(* Start a new CheckQuorum round: every ack so far is forgotten. *)
let forget_acks t = t.ack_round <- t.ack_round + 1

(* Voters other than self that acknowledged in the current round. *)
let rec acked_voters t n = function
  | [] -> n
  | peer :: rest ->
      let i = Node_id.to_int peer in
      let acked =
        is_voter_id t peer
        && i < Array.length t.progress
        &&
        match t.progress.(i) with
        | Some pr -> Progress.acked_in pr ~round:t.ack_round
        | None -> false
      in
      acked_voters t (if acked then n + 1 else n) rest

let append_request_for t peer =
  let pr = progress_of t peer in
  let next = Progress.next_index pr in
  let prev_index = next - 1 in
  let prev_term = Option.value ~default:0 (Log.term_at t.log prev_index) in
  let entries =
    Log.slice t.log ~from:next ~max:t.config.Config.max_entries_per_append
  in
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
               voters = Array.of_list (voters_of t.base);
               learners = Array.of_list (learners_of t.base);
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
  let pr = progress_of t peer in
  let p = Progress.path pr in
  let hb_id = Dynatune.Leader_path.next_id p in
  let measured_rtt = Dynatune.Leader_path.take_rtt p in
  let commit = Int.min t.commit_index (Progress.match_index pr) in
  emit ctx
    (Send
       {
         dst = peer;
         kind = Config.heartbeat_transport t.config;
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

(* The one heartbeat-timer rule: the leader drives every follower from a
   single timer under [Static] (etcd's broadcast ticker) and under a
   tuned mode with Section IV-E extension 2; otherwise each follower has
   a timer of its own, at its own h. *)
let single_heartbeat_timer t =
  match t.config.Config.tuning with
  | Config.Static -> true
  | Config.Dynatune _ | Config.Fix_k _ -> t.config.Config.consolidated_timer

let rec min_interval t acc = function
  | [] -> acc
  | peer :: rest ->
      min_interval t (Des.Time.min_span acc (interval_to t peer)) rest

(* The single timer's interval: the minimum h across all follower paths,
   starting from the base h.  Under [Static] no follower piggybacks an h,
   so every path keeps the base and the minimum is exactly it. *)
let consolidated_interval t =
  min_interval t t.config.Config.heartbeat_interval t.others

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
                Des.Time.add now t.config.Config.election_timeout;
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
      if not (single_heartbeat_timer t) then
        emit ctx
          (Arm_heartbeat { peer = n; after = interval_to t n })
  | Log.Promote _ | Log.Remove _ -> ());
  if not t.flush_requested then begin
    t.flush_requested <- true;
    emit ctx Request_flush
  end;
  e.Log.index

let validate_change t change =
  match change with
  | Log.Add_learner n ->
      if mem n t.current.members then Error "already a member" else Ok ()
  | Log.Promote n ->
      if mem n t.current.learners then Ok () else Error "not a learner"
  | Log.Remove n ->
      if not (mem n t.current.members) then Error "not a member"
      else if (not (mem n t.current.learners)) && t.voter_count <= 1 then
        Error "cannot remove the last voter"
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
   evidence (etcd's ReadIndex heartbeat round).

   Reads register in time order, so an echo sent at [sent_at] confirms
   a prefix of the queue: every pending read registered at or before
   it.  A follower's confirmations are therefore one number, the newest
   read it has confirmed ([Progress.reads_confirmed]), and a read's
   confirmations are the followers whose number reaches its own.  An
   older read holds every confirmation of a newer one (and an index no
   higher), so the servable reads are a prefix too. *)
let rec confirmations n = function
  | [] -> 0
  | pr :: rest ->
      (if Progress.reads_confirmed pr >= n then 1 else 0)
      + confirmations n rest

let[@hot] note_read_confirmation t ctx ~from ~sent_at =
  let q = t.reads in
  if q.Reads.len > 0 then begin
    (* Only a voter at the time of the response confirms; the reads it
       confirms are those pending now, so an echo handled before a read
       registered (even at the same instant) never covers it. *)
    if is_voter_id t from then begin
      (* Scan on from the reads it already covers, so a reordered older
         echo takes nothing back. *)
      let pr = progress_of t from in
      let k =
        ref (Int.max 0 (Progress.reads_confirmed pr + 1 - q.Reads.first))
      in
      while
        !k < q.Reads.len && (Reads.get q !k).Reads.registered_at <= sent_at
      do
        incr k
      done;
      Progress.set_reads_confirmed pr (q.Reads.first + !k - 1)
    end;
    let needed = t.quorum - self_weight t in
    let ready = ref 0 in
    while
      !ready < q.Reads.len
      && t.commit_index >= (Reads.get q !ready).Reads.read_index
      && confirmations (q.Reads.first + !ready) t.all_progress >= needed
    do
      incr ready
    done;
    (* Served newest first: the replies fire in this order, which the
       pinned traces record. *)
    for k = !ready - 1 downto 0 do
      let r = Reads.get q k in
      emit ctx
        (Serve_read
           {
             client_id = r.Reads.client;
             seq = r.Reads.seq;
             read_index = r.Reads.read_index;
           })
    done;
    Reads.drop q !ready
  end

let maybe_take_snapshot t ctx =
  let threshold = t.config.Config.snapshot_threshold in
  if
    threshold > 0
    && t.commit_index - Log.snapshot_index t.log >= threshold
  then emit ctx (Take_snapshot { upto = t.commit_index })

(* Write the match index of every voter in [peers] into [m] from slot
   [n] on; returns the next free slot. *)
let rec gather_matches t m n = function
  | [] -> n
  | p :: rest ->
      if is_voter_id t p then begin
        m.(n) <- Progress.match_index (progress_of t p);
        gather_matches t m (n + 1) rest
      end
      else gather_matches t m n rest

(* Advance the leader commit index to the highest N with a quorum of
   match indices >= N and log term N = current term. *)
let[@hot] maybe_advance_commit t ctx =
  let q = t.quorum in
  let voters = t.voter_count in
  if Array.length t.match_scratch < voters then
    t.match_scratch <- Array.make voters 0;
  let m = t.match_scratch in
  let own =
    if self_is_voter t then begin
      m.(0) <- Log.last_index t.log;
      1
    end
    else 0
  in
  let n = gather_matches t m own t.others in
  if n >= q then begin
    (* Insertion sort, descending: a handful of voters. *)
    for i = 1 to n - 1 do
      let v = m.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && m.(!j) < v do
        m.(!j + 1) <- m.(!j);
        decr j
      done;
      m.(!j + 1) <- v
    done;
    (* The quorum-th largest match index is replicated on a majority. *)
    let candidate = m.(q - 1) in
    if
      candidate > t.commit_index
      &&
      match Log.term_at t.log candidate with
      | Some term -> Int.equal term t.term
      | None -> false
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
  let target = Int.min leader_commit (Log.last_index t.log) in
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
    && Roles.is_learner t.roles from
    && t.latest_config_index <= t.commit_index
    && (not (Option.is_some t.transfer))
    && Progress.match_index (progress_of t from)
       >= Log.last_index t.log - Config.learner_promotion_gap
  then ignore (append_config t ctx (Log.Promote from) : Types.index)

(* {2 Leadership} *)

let arm_leader_heartbeats t ctx ~immediately =
  if single_heartbeat_timer t then
    emit ctx (Arm_broadcast (if immediately then 0 else consolidated_interval t))
  else
    List.iter
      (fun peer ->
        (* Stagger the initial phase of each per-peer timer uniformly over
           one interval: real schedulers drift the n−1 timers apart, and
           the resulting independent heartbeat phases spread follower
           expiries after a leader failure (fewer simultaneous
           candidacies, hence fewer split votes). *)
        let after =
          if immediately then 0
          else
            let interval = interval_to t peer in
            1 + Stats.Rng.int t.rng (Int.max 1 interval)
        in
        emit ctx (Arm_heartbeat { peer; after }))
      t.others

let become_leader t ctx =
  t.leader <- Some t.id;
  forget_acks t;
  t.transfer <- None;
  emit ctx Disarm_election;
  emit ctx (Arm_quorum_check t.config.Config.election_timeout);
  Array.fill t.progress 0 (Array.length t.progress) None;
  t.all_progress <- [];
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
    if Node_id.Set.cardinal t.votes >= t.quorum then
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
    if Node_id.Set.cardinal t.votes >= t.quorum then become_leader t ctx
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

(* Does [t] already follow [from]?  The stored [Some] box is then kept,
   not rebuilt per heartbeat. *)
let led_by t from =
  match t.leader with Some l -> Node_id.equal l from | None -> false

let note_leader_contact t ctx ~now ~from ~term =
  t.last_leader_contact <- now;
  let new_leader = not (led_by t from) in
  (match t.role with
  | Types.Pre_candidate ->
      emit ctx (Probe (Probe.Pre_vote_aborted { id = t.id; term = t.term }))
  | Types.Follower | Types.Candidate | Types.Leader -> ());
  if term > t.term || not (Types.equal_role t.role Types.Follower) then
    become_follower t ctx ~term
      ~leader:(if new_leader then Some from else t.leader)
  else begin
    if new_leader then t.leader <- Some from;
    arm_election t ctx
  end;
  (* A change of leader starts measurement from scratch (Step 0 with the
     new leader). *)
  if new_leader then reset_tuner t ctx

(* {2 Message handlers} *)

let on_vote_request t ctx ~now ~from (req : Rpc.vote_request) =
  let reply ~term ~granted ~pre_vote =
    emit ctx
      (Send
         {
           dst = from;
           kind = Netsim.Transport.Reliable;
           msg = Rpc.Vote_response { term; granted; pre_vote };
         })
  in
  if not (self_is_voter t) then begin
    (* A learner (or removed server) has no vote to give.  Adopt newer
       real terms so later messages are not mistaken for stale ones. *)
    if (not req.pre_vote) && req.term > t.term then begin
      t.term <- req.term;
      t.voted_for <- None
    end;
    reply ~term:t.term ~granted:false ~pre_vote:req.pre_vote
  end
  else begin
  let log_ok =
    Log.up_to_date t.log ~last_index:req.last_log_index
      ~last_term:req.last_log_term
  in
  (* etcd's CheckQuorum lease: campaigns are ignored while we have heard
     from a leader within the current un-randomized election timeout
     (the tuned Et under a tuned mode, else the base). *)
  let lease_active =
    (not req.force)
    && t.leader <> None
    && Des.Time.diff now t.last_leader_contact < election_timeout_now t
  in
  if req.pre_vote then begin
    let granted = req.term > t.term && log_ok && not lease_active in
    let term = if granted then req.term else t.term in
    reply ~term ~granted ~pre_vote:true
  end
  else if req.term < t.term then
    reply ~term:t.term ~granted:false ~pre_vote:false
  else if lease_active && req.term > t.term then
    (* Within the lease we ignore higher-term campaigns entirely (etcd's
       CheckQuorum behaviour): do not adopt the term, reject. *)
    reply ~term:t.term ~granted:false ~pre_vote:false
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
    reply ~term:t.term ~granted ~pre_vote:false
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
        if Node_id.Set.cardinal t.votes >= t.quorum then
          campaign t ctx ~pre:false ~force:t.force_campaign
    | Types.Candidate, false when resp.granted && resp.term = t.term ->
        if is_voter_id t from then t.votes <- Node_id.Set.add from t.votes;
        if Node_id.Set.cardinal t.votes >= t.quorum then become_leader t ctx
    | Types.(Follower | Pre_candidate | Candidate | Leader), _ -> ()

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
           kind = Config.heartbeat_transport t.config;
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
    let new_leader = not (led_by t from) in
    t.last_leader_contact <- now;
    if hb_term > t.term || not (Types.equal_role t.role Types.Follower) then
      become_follower t ctx ~term:hb_term
        ~leader:(if new_leader then Some from else t.leader)
    else if new_leader then t.leader <- Some from;
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
           kind = Config.heartbeat_transport t.config;
           msg =
             Rpc.Pool.heartbeat_response t.pool ~term:t.term ~hb_id
               ~echo_sent_at:sent_at ~tuned_h:(piggyback_h t);
         });
    arm_election t ctx
  end

(* No append response from [pr]'s follower for over an election
   timeout. *)
let stale_clock t pr ~now =
  Des.Time.diff now (Progress.last_response_at pr)
  > t.config.Config.election_timeout

let on_heartbeat_response t ctx ~now ~from ~term:resp_term ~echo_sent_at
    ~tuned_h =
  if resp_term > t.term then become_follower t ctx ~term:resp_term ~leader:None
  else if Types.is_leader t.role && resp_term = t.term then begin
    note_ack t from;
    note_read_confirmation t ctx ~from ~sent_at:echo_sent_at;
    maybe_send_timeout_now t ctx;
    maybe_promote_learner t ctx from;
    let pr = progress_of t from in
    Dynatune.Leader_path.on_response (Progress.path pr) ~now ~echo_sent_at
      ~tuned_h;
    (* Heartbeat responses double as replication nudges.  A follower can
       be behind in two ways: entries never handed to the transport
       ([needs_entries]), or entries sent optimistically while it was
       unreachable and silently dropped — detected as a stale response
       clock.  Sends that never drew a response will never be drained
       by a nack either, so a stale clock rewinds [next] to just past
       the follower's match and re-probes from there. *)
    let last_index = Log.last_index t.log in
    let needs = Progress.needs_entries pr ~last_index in
    let stale = stale_clock t pr ~now in
    if needs && not (Progress.inflight pr > 0 && stale) then
      replicate t ctx from
    else if (needs || Progress.match_index pr < last_index) && stale then begin
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
      let learners = Array.to_list snap.learners in
      t.base <- { members = Array.to_list snap.voters @ learners; learners };
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
        if Roles.mem t.roles peer then begin
          let interval = interval_to t peer in
          if not (heartbeat_suppressed t ctx peer ~interval) then
            send_heartbeat t ctx ~now peer;
          emit ctx (Arm_heartbeat { peer; after = interval })
        end
        (* A removed member's timer simply dies: no re-arm. *)
      end
  | Broadcast_due ->
      if Types.is_leader t.role then begin
        check_transfer_deadline t ctx ~now;
        let interval = consolidated_interval t in
        List.iter
          (fun peer ->
            if not (heartbeat_suppressed t ctx peer ~interval) then
              send_heartbeat t ctx ~now peer)
          t.others;
        emit ctx (Arm_broadcast interval)
      end
  | Quorum_check_due ->
      if Types.is_leader t.role then begin
        check_transfer_deadline t ctx ~now;
        if self_weight t + acked_voters t 0 t.others >= t.quorum then begin
          forget_acks t;
          emit ctx (Arm_quorum_check t.config.Config.election_timeout)
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
          Reads.push t.reads
            {
              client = client_id;
              seq;
              read_index = t.commit_index;
              registered_at = now;
            };
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
        forget_acks t;
        emit ctx (Arm_quorum_check t.config.Config.election_timeout)
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
