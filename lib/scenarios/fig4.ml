module Cluster = Harness.Cluster

type result = {
  mode : string;
  failures : int;
  detection : Stats.Summary.t;
  majority_detection : Stats.Summary.t;
  ots : Stats.Summary.t;
  election : Stats.Summary.t;
  randomized : Stats.Summary.t;
  rounds : Stats.Summary.t;
  split_vote_rate : float;
  digest : int64;
      (* order-sensitive digest of every shard's probe trace, in shard
         order: the determinism sanitizer's witness *)
  metrics : Telemetry.Metrics.snapshot;
  recorder : Telemetry.Recorder.dump;
}

let run ?(seed = 42L) ?(n = 5) ?(failures = 1000) ?(rtt_ms = 100.)
    ?(jitter = 0.02) ?(warmup = Des.Time.sec 30) ?(jobs = 1) ?shards
    ?(check = Check.Off) ?(instrument = false) ?record ?on_cluster ~config () =
  let shard (s : Parallel.Campaign.shard) =
    let conditions =
      Netsim.Conditions.(constant (profile ~rtt_ms ~jitter ()))
    in
    (* One registry per shard; the per-shard snapshots merge in shard
       order below, so the aggregate is independent of the worker
       count. *)
    let telemetry = Telemetry.Metrics.create ~enabled:instrument () in
    let recorder =
      match record with
      | Some every -> Telemetry.Recorder.create ~every ()
      | None -> Telemetry.Recorder.noop
    in
    let cluster =
      Cluster.create ~seed:s.seed ~n ~config ~conditions ~check ~telemetry
        ~recorder ()
    in
    (match on_cluster with Some f -> f ~shard:s.index cluster | None -> ());
    ignore (Cluster.boot cluster ~label:"fig4" : Raft.Node.t);
    Cluster.run_for cluster warmup;
    let measured = Measure.failures ~metrics:telemetry cluster ~quota:s.quota in
    Cluster.check_now cluster;
    Cluster.collect_metrics cluster;
    ( measured,
      Cluster.trace_digest cluster,
      Telemetry.Metrics.snapshot telemetry,
      Telemetry.Recorder.dump recorder )
  in
  let outcomes =
    Parallel.Campaign.sharded ?shards ~jobs ~seed ~total:failures ~f:shard ()
  in
  let measured = List.concat_map (fun (o, _, _, _) -> o) outcomes in
  let failures = List.length measured in
  let summary field = Stats.Summary.of_list (List.map field measured) in
  let splits =
    List.length
      (List.filter (fun o -> o.Harness.Fault.election_rounds > 1) measured)
  in
  {
    mode = Raft.Config.mode_name config;
    digest = Check.Digest.combine (List.map (fun (_, d, _, _) -> d) outcomes);
    metrics =
      Telemetry.Metrics.merge (List.map (fun (_, _, m, _) -> m) outcomes);
    recorder =
      Telemetry.Recorder.merge (List.map (fun (_, _, _, r) -> r) outcomes);
    failures;
    detection = summary (fun o -> o.detection_ms);
    majority_detection = summary (fun o -> o.majority_detection_ms);
    ots = summary (fun o -> o.ots_ms);
    election = summary (fun o -> o.ots_ms -. o.detection_ms);
    randomized = summary (fun o -> o.randomized_at_detection_ms);
    rounds = summary (fun o -> float_of_int o.election_rounds);
    split_vote_rate =
      (if failures = 0 then 0.
       else float_of_int splits /. float_of_int failures);
  }

let compare_modes ?(failures = 1000) ?(jobs = 1) () =
  [
    run ~failures ~jobs ~config:(Raft.Config.static ()) ();
    run ~failures ~jobs ~config:(Raft.Config.dynatune ()) ();
  ]

let print_comparison ppf ~paper:(paper_det, paper_ots) results =
  (match results with
  | [ raft; dynatune ] when raft.mode <> dynatune.mode ->
      Report.subhead ppf "paper comparison (means)";
      let reduction field paper =
        let a = Stats.Summary.mean (field raft)
        and b = Stats.Summary.mean (field dynatune) in
        Printf.sprintf "%.0fms -> %.0fms (%.0f%% reduction; paper: %s)" a b
          (100. *. (1. -. (b /. a)))
          paper
      in
      Report.kv ppf "detection" (reduction (fun r -> r.detection) paper_det);
      Report.kv ppf "ots" (reduction (fun r -> r.ots) paper_ots)
  | _ -> ());
  Report.subhead ppf "detection CDF (ms)";
  Report.cdf_table ppf ~label:"prob"
    ~series:(List.map (fun r -> (r.mode, r.detection)) results)
    ~points:10;
  Report.subhead ppf "OTS CDF (ms)";
  Report.cdf_table ppf ~label:"prob"
    ~series:(List.map (fun r -> (r.mode, r.ots)) results)
    ~points:10

let print ppf results =
  Report.banner ppf
    "Fig 4: detection & OTS time CDFs (5 servers, RTT 100ms, p=0)";
  List.iter
    (fun r ->
      Report.subhead ppf
        (r.mode ^ " (" ^ string_of_int r.failures ^ " leader failures)");
      Report.summary_row ppf ~label:"detect" r.detection;
      Report.summary_row ppf ~label:"majority" r.majority_detection;
      Report.summary_row ppf ~label:"ots" r.ots;
      Report.summary_row ppf ~label:"election" r.election;
      Report.summary_row ppf ~label:"randTO" r.randomized;
      Report.kv ppf "split-vote rate"
        (Printf.sprintf "%.1f%% (mean %.2f rounds)" (100. *. r.split_vote_rate)
           (Stats.Summary.mean r.rounds)))
    results;
  let paper = "1205 -> 237 = 80% / 1449 -> 797 = 45%" in
  print_comparison ppf ~paper:(paper, paper) results
