(* The four benchmark workloads.

   Each is built from the layers' public functions — the calls
   Scenarios.* makes — rather than by calling a scenario, so that the
   traced pass can wrap every call into a layer from outside.  A run is
   a set-up phase (build, first election, warm-up) and a measured phase
   of fixed simulated size, both timed on the host.  Everything in an
   [outcome] is a function of the seed alone. *)

module Cluster = Harness.Cluster
module Gm = Multiraft.Group_manager
module Router = Multiraft.Router

type pass =
  | Timed
      (** no checker, no registry: the end-to-end numbers, and the
          traced pass when [Layers] is enabled *)
  | Registry
      (** the metrics registry on: servers emit tuner probes and batch
          sizes, at a host cost that would distort a traced pass *)
  | Verify  (** [Check.Always], then invariants and replica convergence *)

type outcome = {
  latency : Stats.Summary.t;  (** the workload's headline latency, ms *)
  attempted : int;
  failed : int;
  digest : int64;
  sim : (string * float) list;  (** simulated per-layer values *)
}

type host = {
  setup_s : float;
  wall_s : float;
  live_mb : float;
      (** live heap at the end of the measured phase; [nan] unless
          [measure_live] was set *)
  minor_words : float;  (** allocated during the measured phase *)
  major_words : float;
  registry : (string * float) list;  (** values only a [Registry] pass has *)
}

type result = { outcome : outcome; host : host }

exception Verify_failed of string

type t = {
  name : string;
  sizes : small:bool -> string;
  run : pass -> small:bool -> seed:int64 -> result;
}

(* Latency limit for [kvsm.sustainable_rps]: the p99 a level may reach
   and still count as served without a growing backlog. *)
let p99_limit_ms = 150.

(* The Scenarios.Multiraft replication config: fig5's best pipelining
   window with priority lanes, on top of Dynatune. *)
let pipelined () =
  Raft.Config.with_replication ~max_inflight_appends:16 ~append_backpressure:64
    ~max_entries_per_append:64 ~priority_lanes:true (Raft.Config.dynatune ())

let check_of = function Timed | Registry -> Check.Off | Verify -> Check.Always

let telemetry_of = function
  | Registry -> Telemetry.Metrics.create ()
  | Timed | Verify -> Telemetry.Metrics.noop

let seconds_since t0 = float_of_int (Layers.clock_ns () - t0) /. 1e9
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let fl = float_of_int

let p50 l =
  match l with [] -> 0. | _ -> Stats.Summary.median (Stats.Summary.of_list l)

let mean l = match l with [] -> 0. | _ -> Stats.Summary.mean (Stats.Summary.of_list l)

(* {2 Probe counts, from a live trace subscription} *)

type probes = {
  mutable elections : int;
  mutable timeouts : int;
  mutable prevote_aborts : int;
  mutable leader_wins : int;
  mutable resets : int;
  mutable decisions : int;
}

let probes () =
  { elections = 0; timeouts = 0; prevote_aborts = 0; leader_wins = 0; resets = 0; decisions = 0 }

let watch p trace =
  Des.Mtrace.subscribe trace (fun _ probe ->
      Layers.note_probe probe;
      match probe with
      | Raft.Probe.Election_started _ -> p.elections <- p.elections + 1
      | Raft.Probe.Timeout_expired _ -> p.timeouts <- p.timeouts + 1
      | Raft.Probe.Pre_vote_aborted _ -> p.prevote_aborts <- p.prevote_aborts + 1
      | Raft.Probe.Role_change { role = Raft.Types.Leader; _ } ->
          p.leader_wins <- p.leader_wins + 1
      | Raft.Probe.Tuner_reset _ -> p.resets <- p.resets + 1
      | Raft.Probe.Tuner_decision _ -> p.decisions <- p.decisions + 1
      | Raft.Probe.Role_change _ | Raft.Probe.Node_paused _ | Raft.Probe.Node_resumed _
      | Raft.Probe.Config_change _ | Raft.Probe.Transfer_started _
      | Raft.Probe.Transfer_aborted _ ->
          ())

(* {2 Set-up and measured phases} *)

let setup ~create ~first_election ~warmup =
  let t0 = Layers.clock_ns () in
  let x = Layers.span "harness.create" create in
  Layers.span "harness.first_election" (fun () ->
      if not (first_election x) then failwith "initial election failed");
  Layers.span "harness.warmup" (fun () -> warmup x);
  (x, seconds_since t0)

(* Set to have the next measured phase end with a full major GC (outside
   its timing) and report the live heap. *)
let measure_live = ref false

(* Run [f] as the measured phase; returns its value, the phase's
   per-layer values and its host cost.  Counters are read before and
   after, so set-up work never leaks into the per-layer values. *)
let measure ~setup_s engine fabric pr f =
  let es0 = Des.Engine.stats engine and fc0 = Netsim.Fabric.counters fabric in
  let pr0 = { pr with elections = pr.elections } (* a copy *) in
  let g0 = Gc.quick_stat () in
  Layers.attach engine fabric;
  let t0 = Layers.clock_ns () in
  let v = Layers.span "measure" f in
  let wall_s = seconds_since t0 in
  let g1 = Gc.quick_stat () in
  Layers.detach engine;
  let live_mb =
    if !measure_live then begin
      Gc.full_major ();
      fl ((Gc.quick_stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6
    end
    else Float.nan
  in
  let es = Des.Engine.stats engine and fc = Netsim.Fabric.counters fabric in
  let d get = get es - get es0 and dn get = get fc - get fc0 in
  let cancelled = d (fun s -> s.Des.Engine.cancelled) in
  let elections = pr.elections - pr0.elections in
  let wins = pr.leader_wins - pr0.leader_wins in
  let egress =
    List.fold_left (fun m (_, depth) -> max m depth) 0 (Netsim.Fabric.link_queue_depths fabric)
  in
  let values =
    [
      ("des.events", fl (d (fun s -> s.Des.Engine.processed)));
      ("des.timers_cancelled", fl cancelled);
      ("des.wheel_absorb_ratio", ratio (d (fun s -> s.Des.Engine.cancelled_in_place)) cancelled);
      ("des.cascades", fl (d (fun s -> s.Des.Engine.cascades)));
      ("des.heap_high_water", fl es.Des.Engine.heap_high_water);
      ("des.wheel_high_water", fl es.Des.Engine.wheel_high_water);
      ("netsim.sent", fl (dn (fun c -> c.Netsim.Fabric.sent)));
      ("netsim.delivered", fl (dn (fun c -> c.Netsim.Fabric.delivered)));
      ("netsim.lost", fl (dn (fun c -> c.Netsim.Fabric.lost)));
      ("netsim.dropped_paused", fl (dn (fun c -> c.Netsim.Fabric.dropped_paused)));
      ("netsim.egress_high_water", fl egress);
      ("raft.elections", fl elections);
      ("raft.timeouts", fl (pr.timeouts - pr0.timeouts));
      ("raft.prevote_aborts", fl (pr.prevote_aborts - pr0.prevote_aborts));
      ("raft.leader_changes", fl wins);
      ("raft.election_win_ratio", ratio wins elections);
      ("dynatune.resets", fl (pr.resets - pr0.resets));
    ]
  in
  ( v,
    values,
    {
      setup_s;
      wall_s;
      live_mb;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
      registry = [];
    } )

(* What only the registry knows: the tuner decisions that reached the
   trace (servers emit them only when instrumented), and the mean
   entries per AppendEntries from [raft/append_batch_size]. *)
let registry_values pass telemetry pr =
  match pass with
  | Timed | Verify -> []
  | Registry ->
      let n = ref 0 and sum = ref 0. in
      List.iter
        (fun ((k : Telemetry.Metrics.key), v) ->
          match v with
          | Telemetry.Metrics.Series h when String.equal k.Telemetry.Metrics.name "append_batch_size"
            ->
              for i = 0 to Stats.Histogram.bins h - 1 do
                let lo, hi = Stats.Histogram.bin_bounds h i in
                let c = Stats.Histogram.bin_count h i in
                n := !n + c;
                sum := !sum +. (fl c *. (lo +. hi) /. 2.)
              done
          | Telemetry.Metrics.Series _ | Telemetry.Metrics.Count _ | Telemetry.Metrics.Level _ -> ())
        (Telemetry.Metrics.snapshot telemetry);
      [
        ("dynatune.decisions", fl pr.decisions);
        ("raft.entries_per_append", if !n = 0 then 0. else !sum /. fl !n);
      ]

let result pass telemetry pr host outcome =
  { outcome; host = { host with registry = registry_values pass telemetry pr } }

(* The leader's applied heartbeat interval toward each follower. *)
let h_samples cluster =
  match Cluster.leader cluster with
  | None -> []
  | Some l ->
      List.filter_map
        (fun id ->
          Option.map Des.Time.to_ms_f
            (Raft.Server.heartbeat_interval_to (Raft.Node.server l) id))
        (Cluster.node_ids cluster)

let live_stores cluster =
  List.filter_map
    (fun id ->
      if Raft.Node.is_paused (Cluster.node cluster id) then None
      else Some (Cluster.store cluster id))
    (Cluster.node_ids cluster)

let lag cluster =
  let counts = List.map Kvsm.Store.applied_count (live_stores cluster) in
  List.fold_left max 0 counts - List.fold_left min max_int counts

(* The KV state after the first [n] data entries of [log]; [None] when
   the log no longer holds them. *)
let replay log n =
  let s = Kvsm.Store.create () in
  let last = Raft.Log.last_index log in
  let rec go i =
    if Kvsm.Store.applied_count s < n && i <= last then begin
      Option.iter
        (fun e -> ignore (Kvsm.Store.apply_entry s e : Kvsm.Store.result option))
        (Raft.Log.entry_at log i);
      go (i + 1)
    end
  in
  if Raft.Log.snapshot_index log > 0 then None
  else begin
    go 1;
    if Kvsm.Store.applied_count s = n then Some (Kvsm.Store.state_digest s) else None
  end

(* The verify pass's final verdict.  Each group takes one last write,
   since replication to a follower that missed appends resumes only when
   the leader has entries to send, and gets up to 10 s to catch up.
   Then the invariants run once more and every live replica must hold
   exactly the leader's log replayed to the same point.  A replica may
   still trail (a reliable-stream message can be delayed by minutes of
   RTO backoff under loss); the largest lag is returned. *)
let verify pass ~run_for clusters =
  match pass with
  | Timed | Registry -> []
  | Verify ->
      let payload = Kvsm.Command.to_payload (Kvsm.Command.Put { key = "verify"; value = "end" }) in
      List.iter
        (fun c ->
          ignore
            (Cluster.submit_target c ~payload ~client_id:0 ~seq:0 ~on_result:(fun ~committed:_ -> ())
              : Kvsm.Client.submit_result))
        clusters;
      let rec settle n =
        if n > 0 && List.exists (fun c -> lag c > 0) clusters then begin
          run_for (Des.Time.ms 100);
          settle (n - 1)
        end
      in
      settle 100;
      List.iter Cluster.check_now clusters;
      List.iteri
        (fun g c ->
          match Cluster.leader c with
          | None -> raise (Verify_failed (Printf.sprintf "group %d: no leader at the end" g))
          | Some l ->
              let log = Raft.Server.log (Raft.Node.server l) in
              List.iter
                (fun s ->
                  match replay log (Kvsm.Store.applied_count s) with
                  | Some d when String.equal d (Kvsm.Store.state_digest s) -> ()
                  | Some _ | None ->
                      raise
                        (Verify_failed
                           (Printf.sprintf "group %d: a KV replica differs from the leader's log" g)))
                (live_stores c))
        clusters;
      [ ("verify.max_lag", fl (List.fold_left (fun m c -> max m (lag c)) 0 clusters)) ]

(* {2 Open-loop load}

   Arrivals are Poisson and fire in the DES exactly when due, so the
   generator is never late; every latency runs from the due time and
   includes the client's round trip to the leader. *)

type level = {
  rate : float;
  mutable clients : Kvsm.Client.t list;
  mutable reads : int;
  mutable read_ms : float list;  (** latencies of the reads that returned a value *)
}

let level rate = { rate; clients = []; reads = 0; read_ms = [] }
let sum_clients f l = List.fold_left (fun n c -> n + f c) 0 l.clients
let offered l = sum_clients Kvsm.Client.offered l + l.reads
let completed l = sum_clients Kvsm.Client.completed l + List.length l.read_ms
let latencies l = List.concat_map Kvsm.Client.latencies_ms l.clients @ l.read_ms

(* A request offered but not answered by the end of the drain failed,
   like one refused or rejected, and so did a read that found no leader. *)
let failed l = offered l - completed l

let client_values levels ~sent =
  let sum f = List.fold_left (fun n l -> n + sum_clients f l) 0 levels in
  let offered_all = List.fold_left (fun n l -> n + offered l) 0 levels in
  let completed_all = List.fold_left (fun n l -> n + completed l) 0 levels in
  [
    ("kvsm.offered", fl offered_all);
    ("kvsm.completed", fl completed_all);
    ("kvsm.redirected", fl (sum Kvsm.Client.redirected));
    ("kvsm.abandoned", fl (sum Kvsm.Client.abandoned));
    ("kvsm.rejected", fl (sum Kvsm.Client.rejected));
    ("netsim.msgs_per_op", ratio sent completed_all);
  ]

let start_client ~engine ~target ?route ~client_id ~rate ~client_rtt () =
  let c = Kvsm.Client.create ~engine ~target ?route ~client_id ~rate ~client_rtt () in
  Kvsm.Client.start c;
  c

(* Linearizable reads through the router at [rate], over the keys the
   level's writer uses ([Kvsm.Client] writes keys [c<id>-k<0..1023>]). *)
let start_reads ~engine ~router ~client_rtt ~writer_id ~rate l stop =
  let rng =
    Stats.Rng.split_int (Stats.Rng.split (Des.Engine.rng engine) "bench-reads") writer_id
  in
  let rec next () =
    let gap = Stats.Dist.exponential rng ~rate in
    ignore
      (Des.Engine.schedule_after engine (Des.Time.of_sec_f gap) (fun () ->
           if not !stop then begin
             l.reads <- l.reads + 1;
             let key = Printf.sprintf "c%d-k%d" writer_id (Stats.Rng.int rng 1024) in
             let due = Des.Engine.now engine in
             let on_result = function
               | Router.Value _ ->
                   l.read_ms <-
                     Des.Time.to_ms_f (Des.Time.diff (Des.Engine.now engine) due + client_rtt)
                     :: l.read_ms
               | Router.Failed | Router.Committed -> ()
             in
             ignore
               (Layers.client_op "multiraft.route" (fun () ->
                    Router.dispatch router (Router.Read { key }) ~client_id:writer_id
                      ~seq:l.reads ~on_result)
                 : Kvsm.Client.submit_result);
             next ()
           end)
        : Des.Engine.handle)
  in
  next ()

(* The ramp: each level holds [hold] with fresh load, then the engine
   drains with no arrivals so every offered request is answered before
   its level is judged. *)
let ramp ~engine ~rates ~hold ~start_level =
  let levels =
    List.mapi
      (fun i rate ->
        Layers.span (Printf.sprintf "ramp.%.0f" rate) (fun () ->
            let l = level rate in
            let stop = start_level i l in
            Des.Engine.run_for engine hold;
            stop ();
            l))
      rates
  in
  Layers.span "ramp.drain" (fun () -> Des.Engine.run_for engine (Des.Time.sec 2));
  levels

(* The ladder rule: the highest offered rate whose requests were at
   least 95% served with p99 within the limit; 0 when none was. *)
let sustainable levels =
  List.fold_left
    (fun best l ->
      let served = ratio (completed l) (offered l) in
      let p99 =
        match latencies l with
        | [] -> infinity
        | lat -> Stats.Summary.percentile (Stats.Summary.of_list lat) 99.
      in
      if served >= 0.95 && p99 <= p99_limit_ms then Float.max best l.rate else best)
    0. levels

let at_reference levels reference =
  match List.find_opt (fun l -> Float.equal l.rate reference) levels with
  | Some l -> l
  | None -> invalid_arg "reference level missing from the ladder"

(* {2 failover — the Fig 4 campaign} *)

let failover_failures ~small = if small then 20 else 4000
let failover_client_rate = 2.

let failover pass ~small ~seed =
  let failures = failover_failures ~small in
  let telemetry = telemetry_of pass and pr = probes () in
  let rtt_ms = 100. in
  let cluster, setup_s =
    setup
      ~create:(fun () ->
        let c =
          Cluster.create ~seed ~n:5 ~config:(Raft.Config.dynatune ())
            ~conditions:Netsim.Conditions.(constant (profile ~rtt_ms ~jitter:0.02 ()))
            ~check:(check_of pass) ~telemetry ()
        in
        watch pr (Cluster.trace c);
        Cluster.start c;
        c)
      ~first_election:(fun c -> Cluster.await_leader c ~timeout:(Des.Time.sec 30) <> None)
      ~warmup:(fun c -> Cluster.run_for c (Des.Time.sec 30))
  in
  let engine = Cluster.engine cluster in
  let target = Layers.wrap_target "raft.submit" (Cluster.submit_target cluster) in
  let window = level failover_client_rate in
  let ots = ref [] and detection = ref [] and randomized = ref [] in
  let rounds = ref [] and splits = ref 0 and errors = ref 0 in
  let (), values, host =
    measure ~setup_s engine (Cluster.fabric cluster) pr (fun () ->
        for i = 1 to failures do
          (* A fresh open-loop client per failure window, so requests due
             while no leader exists are counted (refused: [abandoned]). *)
          let c =
            start_client ~engine ~target ~client_id:i ~rate:failover_client_rate
              ~client_rtt:(Des.Time.of_ms_f rtt_ms) ()
          in
          window.clients <- c :: window.clients;
          (match
             Layers.span "harness.fail_and_measure" (fun () ->
                 Harness.Fault.fail_and_measure cluster ())
           with
          | Ok o ->
              ots := o.Harness.Fault.ots_ms :: !ots;
              detection := o.Harness.Fault.detection_ms :: !detection;
              randomized := o.Harness.Fault.randomized_at_detection_ms :: !randomized;
              rounds := fl o.Harness.Fault.election_rounds :: !rounds;
              if o.Harness.Fault.election_rounds > 1 then incr splits
          | Error _ -> incr errors);
          Kvsm.Client.stop c
        done)
  in
  let checked = verify pass ~run_for:(Cluster.run_for cluster) [ cluster ] in
  let measured = List.length !ots in
  result pass telemetry pr host
    {
      latency = Stats.Summary.of_list !ots;
      attempted = failures;
      failed = !errors;
      digest = Cluster.trace_digest cluster;
      sim =
        checked @ values
        @ client_values [ window ] ~sent:(int_of_float (List.assoc "netsim.sent" values))
        @ [
            ("raft.rounds_per_failover", mean !rounds);
            ("raft.split_vote_rate", ratio !splits measured);
            ("dynatune.detection_p50_ms", p50 !detection);
            ("dynatune.et_p50_ms", p50 !randomized);
            ("dynatune.h_ms_mean", mean (h_samples cluster));
            ("harness.failover_errors", fl !errors);
          ];
    }

(* {2 saturation — one group up a write ramp (Fig 5 saturation)} *)

let saturation_rates = [ 2000.; 4000.; 6000.; 8000.; 8500.; 9000.; 9500.; 10000.; 10500. ]
let saturation_reference = 6000.
let saturation_hold ~small = if small then Des.Time.ms 500 else Des.Time.sec 5

(* Link RTT and per-message wire time shared by the two ramp
   workloads: the Scenarios.Multiraft wire model. *)
let ramp_rtt_ms = 50.
let ramp_serialization = Des.Time.us 100
let ramp_conditions () = Netsim.Conditions.(constant (profile ~rtt_ms:ramp_rtt_ms ~jitter:0.05 ()))

let saturation pass ~small ~seed =
  let telemetry = telemetry_of pass and pr = probes () in
  let client_rtt = Des.Time.of_ms_f ramp_rtt_ms in
  let cluster, setup_s =
    setup
      ~create:(fun () ->
        let c =
          Cluster.create ~seed ~n:3 ~config:(pipelined ()) ~conditions:(ramp_conditions ())
            ~check:(check_of pass) ~telemetry ()
        in
        Netsim.Fabric.set_uniform_serialization (Cluster.fabric c) ramp_serialization;
        watch pr (Cluster.trace c);
        Cluster.start c;
        c)
      ~first_election:(fun c -> Cluster.await_leader c ~timeout:(Des.Time.sec 30) <> None)
      ~warmup:(fun c -> Cluster.run_for c (Des.Time.sec 10))
  in
  let engine = Cluster.engine cluster in
  let target = Layers.wrap_target "raft.submit" (Cluster.submit_target cluster) in
  let levels, values, host =
    measure ~setup_s engine (Cluster.fabric cluster) pr (fun () ->
        ramp ~engine ~rates:saturation_rates ~hold:(saturation_hold ~small)
          ~start_level:(fun i l ->
            let c = start_client ~engine ~target ~client_id:(i + 1) ~rate:l.rate ~client_rtt () in
            l.clients <- [ c ];
            fun () -> Kvsm.Client.stop c))
  in
  let checked = verify pass ~run_for:(Cluster.run_for cluster) [ cluster ] in
  let attempted = List.fold_left (fun n l -> n + offered l) 0 levels in
  result pass telemetry pr host
    {
      latency = Stats.Summary.of_list (latencies (at_reference levels saturation_reference));
      attempted;
      failed = List.fold_left (fun n l -> n + failed l) 0 levels;
      digest = Cluster.trace_digest cluster;
      sim =
        checked @ values
        @ client_values levels ~sent:(int_of_float (List.assoc "netsim.sent" values))
        @ [
            ("raft.spurious_elections", List.assoc "raft.elections" values);
            ("kvsm.sustainable_rps", sustainable levels);
            ("dynatune.h_ms_mean", mean (h_samples cluster));
          ];
    }

(* {2 multiraft — 64 groups behind the shard router, writes and reads} *)

let multiraft_groups ~small = if small then 8 else 64
let multiraft_rates = [ 20000.; 40000.; 80000. ]
let multiraft_reference = 40000.
let multiraft_hold ~small = if small then Des.Time.ms 300 else Des.Time.ms 500

let multiraft pass ~small ~seed =
  let groups = multiraft_groups ~small in
  (* The reduced scale keeps the full scale's per-group load. *)
  let scale = fl groups /. fl (multiraft_groups ~small:false) in
  let telemetry = telemetry_of pass and pr = probes () in
  let client_rtt = Des.Time.of_ms_f ramp_rtt_ms in
  let manager, setup_s =
    setup
      ~create:(fun () ->
        let m =
          Gm.create ~seed ~conditions:(ramp_conditions ()) ~check:(check_of pass) ~telemetry
            ~groups ~replicas:3 ~config:(pipelined ()) ()
        in
        Netsim.Fabric.set_uniform_serialization (Gm.fabric m) ramp_serialization;
        Gm.iter_groups m (fun _ c -> watch pr (Cluster.trace c));
        Gm.start m;
        m)
      ~first_election:(fun m -> Gm.await_leaders m ~timeout:(Des.Time.sec 30))
      ~warmup:(fun m -> Gm.run_for m (Des.Time.sec 10))
  in
  let engine = Gm.engine manager in
  let router = Router.create manager in
  let target = Layers.wrap_target "multiraft.route" (Router.target router) in
  let route = Layers.wrap_route "multiraft.route" (Router.route router) in
  let reference = multiraft_reference *. scale in
  let levels, values, host =
    measure ~setup_s engine (Gm.fabric manager) pr (fun () ->
        ramp ~engine
          ~rates:(List.map (fun r -> r *. scale) multiraft_rates)
          ~hold:(multiraft_hold ~small)
          ~start_level:(fun i l ->
            (* Half of the offered rate is writes, half linearizable
               reads over the same keys. *)
            let writer_id = i + 1 and rate = l.rate /. 2. in
            let c = start_client ~engine ~target ~route ~client_id:writer_id ~rate ~client_rtt () in
            l.clients <- [ c ];
            let stop = ref false in
            start_reads ~engine ~router ~client_rtt ~writer_id ~rate l stop;
            fun () ->
              Kvsm.Client.stop c;
              stop := true))
  in
  let clusters = List.init groups (Gm.group manager) in
  let checked = verify pass ~run_for:(Gm.run_for manager) clusters in
  let ref_level = at_reference levels reference in
  let reads = Stats.Summary.of_list ref_level.read_ms in
  let leaders = Gm.leader_distribution manager in
  let hits = Router.hint_hits router and misses = Router.hint_misses router in
  result pass telemetry pr host
    {
      latency = Stats.Summary.of_list (latencies ref_level);
      attempted = List.fold_left (fun n l -> n + offered l) 0 levels;
      failed = List.fold_left (fun n l -> n + failed l) 0 levels;
      digest = Gm.digest manager;
      sim =
        checked @ values
        @ client_values levels ~sent:(int_of_float (List.assoc "netsim.sent" values))
        @ [
            ("raft.spurious_elections", List.assoc "raft.elections" values);
            ("kvsm.sustainable_rps", sustainable levels);
            ("kvsm.read_p50_ms", Stats.Summary.median reads);
            ("kvsm.read_p999_ms", Stats.Summary.percentile reads 99.9);
            ("multiraft.hint_hit_ratio", ratio hits (hits + misses));
            ("multiraft.hint_refreshes", fl (Router.hint_refreshes router));
            ( "multiraft.leader_skew",
              fl (Array.fold_left max 0 leaders) /. (fl groups /. fl (Array.length leaders)) );
            ("dynatune.h_ms_mean", mean (List.concat_map h_samples clusters));
          ];
    }

(* {2 fanout — the Fig 7 stimulus at paper scale}

   No clients and no faults.  The headline delay is the paper's Fig 6
   quantity: the (f+1)-th smallest randomized election timeout among the
   followers, the point at which a pre-vote quorum could form — how long
   clients would wait to have a leader failure detected, under the loss
   in force. *)

let fanout_loss_pct = [ 0.; 5.; 10.; 15.; 20.; 25.; 30.; 25.; 20.; 15.; 10.; 5.; 0. ]
(* A quarter of the paper's 180 s.  After the loss first appears, a
   majority of timeouts sit back at their defaults for about 5 s; at
   this hold that is under 1% of the samples, far from p95. *)
let fanout_hold ~small = if small then Des.Time.ms 500 else Des.Time.sec 45
let fanout_warmup ~small = Des.Time.sec (if small then 5 else 30)
let sample_every = Des.Time.ms 100

let fanout pass ~small ~seed =
  let hold = fanout_hold ~small in
  let telemetry = telemetry_of pass and pr = probes () in
  let rtt_ms = 200. and jitter = 0.02 and warmup = fanout_warmup ~small in
  let conditions =
    Netsim.Conditions.piecewise
      ((Des.Time.zero, Netsim.Conditions.profile ~rtt_ms ~jitter ())
      :: List.mapi
           (fun i pct ->
             ( Des.Time.add warmup (i * hold),
               Netsim.Conditions.profile ~rtt_ms ~jitter ~loss:(pct /. 100.) () ))
           fanout_loss_pct)
  in
  let cluster, setup_s =
    setup
      ~create:(fun () ->
        let c =
          Cluster.create ~seed ~costs:Raft.Cost_model.etcd_like ~cores:2. ~n:65
            ~config:(Raft.Config.dynatune ()) ~conditions ~check:(check_of pass) ~telemetry ()
        in
        watch pr (Cluster.trace c);
        Cluster.start c;
        c)
      ~first_election:(fun c -> Cluster.await_leader c ~timeout:(Des.Time.sec 60) <> None)
      ~warmup:(fun c -> Des.Engine.run_until (Cluster.engine c) warmup)
  in
  let leader =
    match Cluster.leader cluster with Some l -> l | None -> failwith "fanout: no leader"
  in
  let detection = ref [] and samples = ref 0 and leaderless = ref 0 and h = ref [] in
  let from = Cluster.now cluster in
  let (), values, host =
    measure ~setup_s (Cluster.engine cluster) (Cluster.fabric cluster) pr (fun () ->
        List.iter
          (fun pct ->
            Layers.span (Printf.sprintf "loss.%.0f" pct) (fun () ->
                for _ = 1 to hold / sample_every do
                  Cluster.run_for cluster sample_every;
                  incr samples;
                  match (Cluster.leader cluster, Harness.Monitor.majority_randomized_ms cluster) with
                  | Some _, Some ms -> detection := ms :: !detection
                  | None, _ | Some _, None -> incr leaderless
                done;
                h := h_samples cluster @ !h))
          fanout_loss_pct)
  in
  let upto = Cluster.now cluster in
  let checked = verify pass ~run_for:(Cluster.run_for cluster) [ cluster ] in
  result pass telemetry pr host
    {
      latency = Stats.Summary.of_list !detection;
      attempted = !samples;
      failed = !leaderless;
      digest = Cluster.trace_digest cluster;
      sim =
        checked @ values
        @ [
            ("raft.spurious_elections", List.assoc "raft.elections" values);
            ( "netsim.leader_cpu_pct",
              Netsim.Cpu.utilization_in (Raft.Node.cpu leader)
                ~lo_sec:(Des.Time.to_sec_f from) ~hi_sec:(Des.Time.to_sec_f upto) );
            ("dynatune.h_ms_mean", mean !h);
          ];
    }

let all =
  [
    {
      name = "failover";
      sizes =
        (fun ~small ->
          Printf.sprintf "n=5 rtt_ms=100 jitter=0.02 warmup_s=30 failures=%d client_rps=%.0f"
            (failover_failures ~small) failover_client_rate);
      run = failover;
    };
    {
      name = "saturation";
      sizes =
        (fun ~small ->
          Printf.sprintf
            "n=3 rtt_ms=50 serialization_us=100 warmup_s=10 hold_s=%.1f ladder=%s reference=%.0f"
            (Des.Time.to_sec_f (saturation_hold ~small))
            (String.concat "," (List.map (Printf.sprintf "%.0f") saturation_rates))
            saturation_reference);
      run = saturation;
    };
    {
      name = "multiraft";
      sizes =
        (fun ~small ->
          let scale = fl (multiraft_groups ~small) /. 64. in
          Printf.sprintf
            "groups=%d replicas=3 rtt_ms=50 serialization_us=100 warmup_s=10 hold_s=%.1f \
             ladder=%s reference=%.0f reads=0.5"
            (multiraft_groups ~small)
            (Des.Time.to_sec_f (multiraft_hold ~small))
            (String.concat "," (List.map (fun r -> Printf.sprintf "%.0f" (r *. scale)) multiraft_rates))
            (multiraft_reference *. scale));
      run = multiraft;
    };
    {
      name = "fanout";
      sizes =
        (fun ~small ->
          Printf.sprintf "n=65 rtt_ms=200 cores=2 warmup_s=%.0f hold_s=%.1f loss_pct=%s sample_ms=100"
            (Des.Time.to_sec_f (fanout_warmup ~small))
            (Des.Time.to_sec_f (fanout_hold ~small))
            (String.concat "," (List.map (Printf.sprintf "%.0f") fanout_loss_pct)));
      run = fanout;
    };
  ]
