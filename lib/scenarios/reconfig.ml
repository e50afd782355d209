module Cluster = Harness.Cluster
module Monitor = Harness.Monitor
module Node_id = Netsim.Node_id

type raw = {
  rounds : int;
  replacements : int;
  stalls : int;
  sampled_ms : float;
  reactive_down_ms : float;
  graceful_down_ms : float;
  offered : int;
  completed : int;
  rejected : int;
  redirected : int;
  abandoned : int;
}

let empty_raw =
  {
    rounds = 0;
    replacements = 0;
    stalls = 0;
    sampled_ms = 0.;
    reactive_down_ms = 0.;
    graceful_down_ms = 0.;
    offered = 0;
    completed = 0;
    rejected = 0;
    redirected = 0;
    abandoned = 0;
  }

let merge_raw parts =
  List.fold_left
    (fun acc p ->
      {
        rounds = acc.rounds + p.rounds;
        replacements = acc.replacements + p.replacements;
        stalls = acc.stalls + p.stalls;
        sampled_ms = acc.sampled_ms +. p.sampled_ms;
        reactive_down_ms = acc.reactive_down_ms +. p.reactive_down_ms;
        graceful_down_ms = acc.graceful_down_ms +. p.graceful_down_ms;
        offered = acc.offered + p.offered;
        completed = acc.completed + p.completed;
        rejected = acc.rejected + p.rejected;
        redirected = acc.redirected + p.redirected;
        abandoned = acc.abandoned + p.abandoned;
      })
    empty_raw parts

type result = {
  mode : string;
  rounds : int;
  replacements : int;
  stalls : int;
  sampled_ms : float;
  reactive_down_ms : float;
  graceful_down_ms : float;
  total_down_ms : float;
  unavailability : float;
  offered : int;
  completed : int;
  rejected : int;
  redirected : int;
  abandoned : int;
  digest : int64;
  metrics : Telemetry.Metrics.snapshot;
}

let result_of_raw ~mode ~digest ?(metrics = []) (raw : raw) =
  let total = raw.reactive_down_ms +. raw.graceful_down_ms in
  {
    mode;
    digest;
    metrics;
    rounds = raw.rounds;
    replacements = raw.replacements;
    stalls = raw.stalls;
    sampled_ms = raw.sampled_ms;
    reactive_down_ms = raw.reactive_down_ms;
    graceful_down_ms = raw.graceful_down_ms;
    total_down_ms = total;
    unavailability = (if raw.sampled_ms <= 0. then 0. else total /. raw.sampled_ms);
    offered = raw.offered;
    completed = raw.completed;
    rejected = raw.rejected;
    redirected = raw.redirected;
    abandoned = raw.abandoned;
  }

(* One rolling-replace campaign on the 5-region geo cluster.

   Each round replaces every current member with a fresh server in the
   same region slot, one at a time, make-before-break: spawn the
   replacement as a learner, wait for the leader to promote it, then
   remove the outgoing member.  The round's first replacement is
   {e reactive} — the outgoing leader fails un-announced (the crashed
   server is replaced rather than drained), so downtime there is bounded
   by failure detection, the quantity the tuner shrinks.  The remaining
   four are {e graceful}: a removed leader hands off via leadership
   transfer before departing.

   Client-perceived downtime is exact: every wait runs inside a
   {!Monitor.observe} window, whose leaderless intervals are the
   spans when no live leader can accept proposals (no leader at all, or
   the leader is frozen by an in-flight transfer). *)

type phase = Steady | Reactive | Graceful

let wait_timeout = Des.Time.sec 180

(* Tuner warm-up before the first round, the unsampled operator hold
   between rounds, and the open-loop client's request rate. *)
let warmup = Des.Time.sec 30
let recover = Des.Time.sec 15
let rate = 20.

let shard_campaign ~check ~telemetry ~config ~on_cluster ~rounds ~seed
    ~shard_index () =
  let cluster = Cluster.create ~seed ~n:5 ~config ~check ~telemetry () in
  Geo.apply cluster;
  (match on_cluster with Some f -> f ~shard:shard_index cluster | None -> ());
  ignore
    (Cluster.boot ~timeout:(Des.Time.sec 60) cluster ~label:"reconfig"
      : Raft.Node.t);
  Cluster.run_for cluster warmup;
  (* Region slot of each node: replacements inherit the slot of the
     member they replace, so the WAN geometry is preserved across
     rounds. *)
  let region = Hashtbl.create 16 in
  List.iteri
    (fun i id -> Hashtbl.replace region (Node_id.to_int id) i)
    (Cluster.node_ids cluster);
  let client =
    Kvsm.Client.create
      ~engine:(Cluster.engine cluster)
      ~target:(Cluster.submit_target cluster)
      ~route:(Cluster.submit_to cluster) ~client_id:1 ~rate ()
  in
  Kvsm.Client.start client;
  let sampled = ref 0. and reactive = ref 0. and graceful = ref 0. in
  let stalls = ref 0 and replacements = ref 0 and rounds_done = ref 0 in
  (* Run one wait (at most [wait_timeout]), charging its simulated time
     to [sampled] and its out-of-service time to the phase's bucket.  A
     wait that times out is a stall.  Returns whether it succeeded. *)
  let wait ~phase await =
    let from = Cluster.now cluster in
    let ok, window =
      Monitor.observe cluster (fun () -> await ~timeout:wait_timeout)
    in
    sampled :=
      !sampled +. Des.Time.to_ms_f (Des.Time.diff (Cluster.now cluster) from);
    (match phase with
    | Reactive -> reactive := !reactive +. Monitor.ots_ms window
    | Graceful -> graceful := !graceful +. Monitor.ots_ms window
    | Steady -> ());
    if not ok then incr stalls;
    ok
  in
  let await_leader ~timeout =
    Option.is_some (Cluster.await_leader cluster ~timeout)
  in
  (* Submitting a change retries through leader churn: [`Not_leader] and
     [`Pending] resolve as the engine advances. *)
  let submit ~phase change =
    wait ~phase (fun ~timeout ->
        Des.Engine.await (Cluster.engine cluster) ~slice:(Des.Time.ms 1)
          ~timeout (fun () ->
            match Cluster.reconfigure cluster change with
            | `Ok _ -> true
            | `Not_leader | `Pending | `Invalid _ -> false))
  in
  let replace_one ~reactive_step old =
    let slot = Hashtbl.find region (Node_id.to_int old) in
    let entry_phase = if reactive_step then Reactive else Graceful in
    if reactive_step then begin
      (* The outgoing leader fails before it can be drained. *)
      Raft.Node.pause (Cluster.node cluster old);
      ignore (wait ~phase:Reactive await_leader : bool)
    end;
    let nid = Cluster.spawn_joiner cluster in
    Hashtbl.replace region (Node_id.to_int nid) slot;
    List.iter
      (fun other ->
        if not (Node_id.equal other nid) then
          let a = List.nth Geo.regions slot in
          let b =
            List.nth Geo.regions (Hashtbl.find region (Node_id.to_int other))
          in
          Cluster.set_pair_conditions cluster nid other (Geo.conditions a b))
      (Cluster.node_ids cluster);
    if submit ~phase:entry_phase (Raft.Log.Add_learner nid) then begin
      ignore
        (wait ~phase:entry_phase (Cluster.await_voter cluster nid) : bool);
      if submit ~phase:Graceful (Raft.Log.Remove old) then begin
        ignore
          (wait ~phase:Graceful (Cluster.await_config_quiet cluster) : bool);
        Cluster.retire cluster old;
        incr replacements
      end
    end
  in
  for _ = 1 to rounds do
    ignore (wait ~phase:Steady await_leader : bool);
    let originals = Cluster.node_ids cluster in
    let lead =
      match Cluster.leader cluster with
      | Some l -> Raft.Node.id l
      | None -> List.hd originals
    in
    replace_one ~reactive_step:true lead;
    List.iter
      (fun old ->
        if not (Node_id.equal old lead) then
          replace_one ~reactive_step:false old)
      originals;
    incr rounds_done;
    (* Operator pacing: rolling replaces run with a health-check hold
       between rounds.  The committed config changes re-warmed every
       tuner; the hold gives them time to measure again, so the next
       round's un-announced failure meets tuned parameters (the steady
       state the campaign is probing).  Not sampled: nothing is being
       replaced. *)
    Cluster.run_for cluster recover
  done;
  Kvsm.Client.stop client;
  (* Let in-flight commits complete so the client tallies settle. *)
  Cluster.run_for cluster (Des.Time.sec 2);
  Cluster.check_now cluster;
  Cluster.collect_metrics cluster;
  let raw =
    {
      rounds = !rounds_done;
      replacements = !replacements;
      stalls = !stalls;
      sampled_ms = !sampled;
      reactive_down_ms = !reactive;
      graceful_down_ms = !graceful;
      offered = Kvsm.Client.offered client;
      completed = Kvsm.Client.completed client;
      rejected = Kvsm.Client.rejected client;
      redirected = Kvsm.Client.redirected client;
      abandoned = Kvsm.Client.abandoned client;
    }
  in
  (raw, Cluster.trace_digest cluster, Telemetry.Metrics.snapshot telemetry)

let run ?(seed = 42L) ?(rounds = 4) ?(jobs = 1) ?(check = Check.Off)
    ?(instrument = false) ?on_cluster ~config () =
  let shard (s : Parallel.Campaign.shard) =
    let telemetry = Telemetry.Metrics.create ~enabled:instrument () in
    shard_campaign ~check ~telemetry ~config ~on_cluster ~rounds:s.quota
      ~seed:s.seed ~shard_index:s.index ()
  in
  let outcomes = Parallel.Campaign.sharded ~jobs ~seed ~total:rounds ~f:shard in
  result_of_raw ~mode:(Raft.Config.mode_name config)
    ~digest:(Check.Digest.combine (List.map (fun (_, d, _) -> d) outcomes))
    ~metrics:(Telemetry.Metrics.merge (List.map (fun (_, _, m) -> m) outcomes))
    (merge_raw (List.map (fun (r, _, _) -> r) outcomes))

let compare_modes ?(rounds = 4) ?(jobs = 1) () =
  [
    run ~rounds ~jobs ~config:(Raft.Config.static ()) ();
    run ~rounds ~jobs ~config:(Raft.Config.dynatune ()) ();
  ]

let print ppf results =
  Report.banner ppf
    "Reconfig: rolling replace on the 5-region geo WAN (client-perceived \
     downtime)";
  List.iter
    (fun r ->
      Report.subhead ppf
        (Printf.sprintf "%s (%d rounds, %d replacements)" r.mode r.rounds
           r.replacements);
      Report.kv ppf "sampled"
        (Printf.sprintf "%.0f ms of replacement activity" r.sampled_ms);
      Report.kv ppf "downtime"
        (Printf.sprintf "%.0f ms total = %.0f ms reactive + %.0f ms graceful"
           r.total_down_ms r.reactive_down_ms r.graceful_down_ms);
      Report.kv ppf "unavailability"
        (Printf.sprintf "%.3f%%" (100. *. r.unavailability));
      Report.kv ppf "client"
        (Printf.sprintf
           "%d offered, %d committed, %d rejected, %d redirects, %d abandoned"
           r.offered r.completed r.rejected r.redirected r.abandoned);
      if r.stalls > 0 then
        Report.kv ppf "stalls" (string_of_int r.stalls))
    results;
  match results with
  | [ off; on ] when off.mode <> on.mode ->
      Report.subhead ppf "tuner impact";
      let pct a b = if a <= 0. then 0. else 100. *. (1. -. (b /. a)) in
      Report.kv ppf "downtime"
        (Printf.sprintf "%.0fms -> %.0fms (%.0f%% reduction)" off.total_down_ms
           on.total_down_ms
           (pct off.total_down_ms on.total_down_ms));
      Report.kv ppf "reactive"
        (Printf.sprintf "%.0fms -> %.0fms (detection-bound)"
           off.reactive_down_ms on.reactive_down_ms)
  | _ -> ()
