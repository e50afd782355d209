module Cluster = Harness.Cluster
module Monitor = Harness.Monitor

type safety_row = {
  s : float;
  detection_mean_ms : float;
  ots_mean_ms : float;
  et_mean_ms : float;
  false_timeouts : int;
}

let dynatune_with f = Raft.Config.dynatune ~cfg:(f Dynatune.Config.default) ()

(* Sample [read] once a second for [duration], skipping [None]s
   (samples taken while warming / leaderless are excluded). *)
let sample_each_second cluster ~duration ~read =
  let probe =
    { Monitor.name = "sample"; read = (fun c -> Monitor.gap (read c)) }
  in
  let w = Stats.Welford.create () in
  List.iter
    (fun (_, ts) ->
      List.iter
        (fun (_, v) -> if not (Float.is_nan v) then Stats.Welford.add w v)
        (Stats.Timeseries.points ts))
    (Monitor.watch cluster ~every:(Des.Time.sec 1) ~duration ~probes:[ probe ]);
  w

let mean_or_nan w =
  if Stats.Welford.count w = 0 then nan else Stats.Welford.mean w

(* Mean of one field over a failover campaign's outcomes. *)
let mean_of field (outcomes : Harness.Fault.failure_outcome list) =
  Stats.Summary.(mean (of_list (List.map field outcomes)))

(* Every node but the live leader (all of them while leaderless). *)
let followers cluster =
  let leader = Option.map Raft.Node.id (Cluster.leader cluster) in
  List.filter
    (fun id ->
      match leader with
      | Some l -> not (Netsim.Node_id.equal l id)
      | None -> true)
    (Cluster.node_ids cluster)

(* A node's tuner once it has left Step 0. *)
let tuned_tuner cluster id =
  match Raft.Server.tuner (Raft.Node.server (Cluster.node cluster id)) with
  | Some t when Dynatune.Tuner.phase t = Dynatune.Tuner.Tuned -> Some t
  | Some _ | None -> None

let all_tuned cluster =
  List.for_all (fun id -> tuned_tuner cluster id <> None) (followers cluster)

(* Mean tuned Et across followers whose tuner has left Step 0; [None]
   when none is tuned right now. *)
let tuned_follower_et cluster =
  match
    List.filter_map
      (fun id ->
        Option.map
          (fun t -> Des.Time.to_ms_f (Dynatune.Tuner.election_timeout t))
          (tuned_tuner cluster id))
      (followers cluster)
  with
  | [] -> None
  | ets ->
      Some (List.fold_left ( +. ) 0. ets /. float_of_int (List.length ets))

(* Every follower tuned and the majority randomized timeout at least the
   150 ms RTT the step sweeps move to. *)
let adapted cluster =
  all_tuned cluster
  &&
  match Monitor.majority_randomized_ms cluster with
  | Some v -> v >= 150.
  | None -> false

(* Step the cluster in 100 ms slices until [ready] holds or the clock
   reaches [limit]; returns the instant it stopped. *)
let wait_until cluster ~limit ready =
  ignore
    (Des.Engine.await (Cluster.engine cluster) ~slice:(Des.Time.ms 100)
       ~timeout:(Des.Time.diff limit (Cluster.now cluster))
       (fun () -> ready cluster)
      : bool);
  Cluster.now cluster

let safety_factor_sweep ?(failures = 100) ?(quiet = Des.Time.sec 120)
    ?(jobs = 1) () =
  let seed = 31L and jitter = 0.15 in
  Parallel.Campaign.all ~jobs
  @@ List.map
       (fun s () ->
      let config =
        dynatune_with (fun cfg -> { cfg with Dynatune.Config.safety_factor = s })
      in
      let conditions =
        Netsim.Conditions.(constant (profile ~rtt_ms:100. ~jitter ()))
      in
      let cluster = Cluster.create ~seed ~n:5 ~config ~conditions () in
      ignore (Cluster.boot cluster ~label:"ablation" : Raft.Node.t);
      Cluster.run_for cluster (Des.Time.sec 30);
      (* Quiet period: sample the tuned Et and count false detections
         under jitter. *)
      let et, quiet_window =
        Monitor.observe cluster (fun () ->
            sample_each_second cluster ~duration:quiet ~read:tuned_follower_et)
      in
      let measured = Measure.failures cluster ~quota:failures in
      {
        s;
        detection_mean_ms = mean_of (fun o -> o.detection_ms) measured;
        ots_mean_ms = mean_of (fun o -> o.ots_ms) measured;
        et_mean_ms = mean_or_nan et;
        false_timeouts = List.length quiet_window.Monitor.timeouts;
      })
       [ 0.; 1.; 2.; 3.; 4. ]

type arrival_row = {
  x : float;
  k : int;
  h_ms : float;
  heartbeat_rate_hz : float;
  false_timeouts : int;
}

let arrival_probability_sweep ?(quiet = Des.Time.sec 120) ?(jobs = 1) () =
  let seed = 37L and loss = 0.10 in
  Parallel.Campaign.all ~jobs
  @@ List.map
       (fun x () ->
      let config =
        dynatune_with (fun cfg ->
            { cfg with Dynatune.Config.arrival_probability = x })
      in
      let conditions =
        Netsim.Conditions.(
          constant (profile ~rtt_ms:200. ~jitter:0.02 ~loss ()))
      in
      let cluster = Cluster.create ~seed ~n:5 ~config ~conditions () in
      ignore (Cluster.boot cluster ~label:"ablation" : Raft.Node.t);
      Cluster.run_for cluster (Des.Time.sec 60);
      (* Sample the h the leader actually applies toward one follower
         over the quiet period (warming dips excluded as NaN). *)
      let follower = List.hd (followers cluster) in
      let h, quiet_window =
        Monitor.observe cluster (fun () ->
            sample_each_second cluster ~duration:quiet ~read:(fun c ->
                Monitor.leader_h_ms c ~follower))
      in
      let h_ms = mean_or_nan h in
      let k = Dynatune.Tuner.required_heartbeats_for ~p:loss ~x in
      {
        x;
        k;
        h_ms;
        heartbeat_rate_hz = (if h_ms > 0. then 1000. /. h_ms else nan);
        false_timeouts = List.length quiet_window.Monitor.timeouts;
      })
       [ 0.9; 0.99; 0.999; 0.9999 ]

type list_size_row = {
  min_list_size : int;
  warmup_ms : float;
  adaptation_ms : float;
}

let list_size_sweep ?(jobs = 1) () =
  let seed = 41L in
  Parallel.Campaign.all ~jobs
  @@ List.map
       (fun min_list_size () ->
      let config =
        dynatune_with (fun cfg ->
            {
              cfg with
              Dynatune.Config.min_list_size;
              max_list_size =
                Int.max min_list_size cfg.Dynatune.Config.max_list_size;
            })
      in
      let step_at = Des.Time.sec 120 in
      let conditions =
        Netsim.Conditions.piecewise
          [
            (Des.Time.zero, Netsim.Conditions.profile ~rtt_ms:50. ~jitter:0.02 ());
            (step_at, Netsim.Conditions.profile ~rtt_ms:150. ~jitter:0.02 ());
          ]
      in
      let cluster = Cluster.create ~seed ~n:5 ~config ~conditions () in
      ignore (Cluster.boot cluster ~label:"ablation" : Raft.Node.t);
      let elected = Cluster.now cluster in
      (* Warm-up duration: run until every follower's tuner is Tuned. *)
      let tuned_at = wait_until cluster ~limit:(Des.Time.sec 110) all_tuned in
      let warmup_ms = Des.Time.to_ms_f (Des.Time.diff tuned_at elected) in
      (* Adaptation: run to the RTT step, then wait until every follower
         has re-tuned (left Step 0 again — the step typically trips timers
         and falls back to defaults) and the majority randomized timeout
         accommodates the new RTT. *)
      Des.Engine.run_until (Cluster.engine cluster) step_at;
      let adapted_at =
        wait_until cluster
          ~limit:(Des.Time.add step_at (Des.Time.sec 120))
          adapted
      in
      {
        min_list_size;
        warmup_ms;
        adaptation_ms = Des.Time.to_ms_f (Des.Time.diff adapted_at step_at);
      })
       [ 5; 20; 50; 100 ]

type estimator_row = {
  estimator : string;
  et_steady_ms : float;
  et_jitter_ms : float;
  adaptation_up_ms : float;
  false_timeouts : int;
  detection_mean_ms : float;
}

let estimator_sweep ?(jobs = 1) () =
  let seed = 47L and failures = 40 in
  let backends =
    [
      ("window", Dynatune.Config.Sliding_window);
      ("ewma-1/8", Dynatune.Config.Ewma 0.125);
      ("ewma-1/4", Dynatune.Config.Ewma 0.25);
      ("ewma-1/2", Dynatune.Config.Ewma 0.5);
    ]
  in
  Parallel.Campaign.all ~jobs
  @@ List.map
       (fun (name, rtt_estimator) () ->
      let config =
        dynatune_with (fun cfg -> { cfg with Dynatune.Config.rtt_estimator })
      in
      let step_at = Des.Time.sec 150 in
      let conditions =
        Netsim.Conditions.piecewise
          [
            ( Des.Time.zero,
              Netsim.Conditions.profile ~rtt_ms:50. ~jitter:0.1 () );
            (step_at, Netsim.Conditions.profile ~rtt_ms:150. ~jitter:0.1 ());
          ]
      in
      let cluster = Cluster.create ~seed ~n:5 ~config ~conditions () in
      ignore (Cluster.boot cluster ~label:"ablation" : Raft.Node.t);
      Cluster.run_for cluster (Des.Time.sec 30);
      (* Steady jittery period: Et level, Et stability, false trips. *)
      let et, steady_window =
        Monitor.observe cluster (fun () ->
            sample_each_second cluster ~duration:(Des.Time.sec 100)
              ~read:tuned_follower_et)
      in
      (* Adaptation to the RTT step. *)
      Des.Engine.run_until (Cluster.engine cluster) step_at;
      let adapted_at =
        wait_until cluster
          ~limit:(Des.Time.add step_at (Des.Time.sec 120))
          adapted
      in
      (* Small failover campaign at the new level. *)
      Cluster.run_for cluster (Des.Time.sec 10);
      let measured = Measure.failures cluster ~quota:failures in
      {
        estimator = name;
        et_steady_ms = Stats.Welford.mean et;
        et_jitter_ms = Stats.Welford.std et;
        adaptation_up_ms =
          Des.Time.to_ms_f (Des.Time.diff adapted_at step_at);
        false_timeouts = List.length steady_window.Monitor.timeouts;
        detection_mean_ms = mean_of (fun o -> o.detection_ms) measured;
      })
       backends

let print ppf (safety, arrival, sizes, estimators) =
  Report.banner ppf "Ablations: Dynatune runtime parameters";
  Report.subhead ppf
    "safety factor s (RTT 100ms, jitter 15%; detection vs false triggers)";
  Format.fprintf ppf "  %6s %12s %12s %12s %16s@." "s" "Et(ms)" "detect(ms)"
    "ots(ms)" "false timeouts";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %6.1f %12.1f %12.1f %12.1f %16d@." r.s
        r.et_mean_ms r.detection_mean_ms r.ots_mean_ms r.false_timeouts)
    safety;
  Report.subhead ppf
    "arrival probability x (RTT 200ms, loss 10%; heartbeat cost vs safety)";
  Format.fprintf ppf "  %8s %4s %10s %12s %16s@." "x" "K" "h(ms)" "hb rate/s"
    "false timeouts";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %8.4f %4d %10.1f %12.1f %16d@." r.x r.k r.h_ms
        r.heartbeat_rate_hz r.false_timeouts)
    arrival;
  Report.subhead ppf "minListSize (warm-up and adaptation lag)";
  Format.fprintf ppf "  %8s %14s %16s@." "size" "warmup(ms)" "adaptation(ms)";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %8d %14.0f %16.0f@." r.min_list_size r.warmup_ms
        r.adaptation_ms)
    sizes;
  Report.subhead ppf
    "RTT estimator backend (window vs EWMA; RTT 50ms jitter 10%, step to 150ms)";
  Format.fprintf ppf "  %10s %12s %12s %14s %8s %12s@." "backend" "Et(ms)"
    "Et std(ms)" "adapt(ms)" "false" "detect(ms)";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %10s %12.1f %12.1f %14.0f %8d %12.1f@."
        r.estimator r.et_steady_ms r.et_jitter_ms r.adaptation_up_ms
        r.false_timeouts r.detection_mean_ms)
    estimators
