module Cluster = Harness.Cluster

type result = { mode : string; ramp : Report.ramp }

let default_rates =
  List.init 17 (fun i -> float_of_int ((i + 1) * 1000))

let run ?(seed = 7L) ?(rates = default_rates) ?(hold = Des.Time.sec 10)
    ?(rtt_ms = 100.) ~config () =
  let conditions =
    Netsim.Conditions.(constant (profile ~rtt_ms ~jitter:0.05 ()))
  in
  let cluster =
    Cluster.create ~seed ~costs:Raft.Cost_model.etcd_like ~cores:4. ~n:5
      ~config ~conditions ()
  in
  ignore (Cluster.boot cluster ~label:"fig5" : Raft.Node.t);
  (* Let tuned modes finish warming before offering load. *)
  Cluster.run_for cluster (Des.Time.sec 10);
  let target = Cluster.submit_target cluster in
  let levels =
    Kvsm.Workload.run_ramp ~engine:(Cluster.engine cluster) ~target ~rates
      ~hold
      ~client_rtt:(Des.Time.of_ms_f rtt_ms)
      ()
  in
  { mode = Raft.Config.mode_name config; ramp = Report.ramp levels }

(* {2 Saturation sweep (replication engine v2)}

   The fig5 extension: offered load vs commit latency with a wire model
   on every link (per-message serialization), crossing the pipelining
   window with the priority lanes.  [window = 1] recovers strict
   request/response replication — one batch per RTT — while the wire
   itself sustains an order of magnitude more; lanes decide whether the
   heartbeats the tuner measures RTT on queue behind the replication
   burst. *)

type sat_result = {
  sat_label : string;
  sat_window : int;
  sat_lanes : bool;
  sat_ramp : Report.ramp;
  sat_rtt_err : float;
      (* mean relative error of the followers' tuned RTT estimate
         against the configured base RTT, sampled after the last
         (saturating) level; inflation here is queueing delay the tuner
         mistakes for path latency *)
}

let sat_seed = 11L
let sat_rtt_ms = 50.

let run_saturation_one ~hold ~window ~lanes () =
  let rtt_ms = sat_rtt_ms in
  let config =
    Raft.Config.with_replication ~max_inflight_appends:window
      ~append_backpressure:64 ~max_entries_per_append:64
      ~priority_lanes:lanes
      (Raft.Config.dynatune ())
  in
  let conditions =
    Netsim.Conditions.(constant (profile ~rtt_ms ~jitter:0.05 ()))
  in
  let cluster = Cluster.create ~seed:sat_seed ~n:5 ~config ~conditions () in
  Netsim.Fabric.set_uniform_serialization (Cluster.fabric cluster)
    (Des.Time.us 100);
  ignore (Cluster.boot cluster ~label:"fig5" : Raft.Node.t);
  Cluster.run_for cluster (Des.Time.sec 10);
  let target = Cluster.submit_target cluster in
  let levels =
    Kvsm.Workload.run_ramp ~engine:(Cluster.engine cluster) ~target
      ~rates:[ 250.; 500.; 1000.; 2000.; 4000.; 8000. ]
      ~hold
      ~client_rtt:(Des.Time.of_ms_f rtt_ms)
      ()
  in
  let sat_rtt_err =
    let leader =
      match Cluster.leader cluster with
      | Some node -> Some (Raft.Node.id node)
      | None -> None
    in
    let errs =
      List.filter_map
        (fun id ->
          if
            match leader with
            | Some l -> Netsim.Node_id.equal l id
            | None -> false
          then None
          else
            match
              Raft.Server.tuner (Raft.Node.server (Cluster.node cluster id))
            with
            | Some tuner when Dynatune.Tuner.samples tuner > 0 ->
                let est = Des.Time.to_ms_f (Dynatune.Tuner.rtt_mean tuner) in
                Some (Float.abs (est -. rtt_ms) /. rtt_ms)
            | Some _ | None -> None)
        (Cluster.node_ids cluster)
    in
    match errs with
    | [] -> Float.nan
    | _ -> List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs)
  in
  {
    sat_label =
      Printf.sprintf "window=%d lanes=%s" window (if lanes then "on" else "off");
    sat_window = window;
    sat_lanes = lanes;
    sat_ramp = Report.ramp levels;
    sat_rtt_err;
  }

let saturation ?(hold = Des.Time.sec 3) ?(jobs = 1) () =
  Parallel.Campaign.all ~jobs
    (List.map
       (fun (window, lanes) () -> run_saturation_one ~hold ~window ~lanes ())
       [ (1, false); (1, true); (16, false); (16, true) ])

let print_saturation ppf results =
  Report.banner ppf
    "Fig 5 (saturation): pipelining x priority lanes under a wire model";
  List.iter
    (fun r ->
      Report.subhead ppf r.sat_label;
      Report.ramp_block ppf r.sat_ramp;
      Report.kv ppf "tuner RTT estimate error"
        (Printf.sprintf "%.1f%%" (100. *. r.sat_rtt_err)))
    results;
  match
    ( List.find_opt (fun r -> r.sat_window = 1 && r.sat_lanes) results,
      List.find_opt (fun r -> r.sat_window > 1 && r.sat_lanes) results )
  with
  | Some base, Some piped when base.sat_ramp.peak_rps > 0. ->
      Report.subhead ppf "pipelining effect";
      Report.kv ppf "sustainable throughput"
        (Printf.sprintf "%.0f -> %.0f req/s (%.1fx)" base.sat_ramp.peak_rps
           piped.sat_ramp.peak_rps
           (piped.sat_ramp.peak_rps /. base.sat_ramp.peak_rps))
  | _ -> ()

let compare_modes ?hold ?(jobs = 1) () =
  Parallel.Campaign.all ~jobs
    [
      (fun () -> run ?hold ~config:(Raft.Config.static ()) ());
      (fun () -> run ?hold ~config:(Raft.Config.dynatune ()) ());
    ]

let print ppf results =
  Report.banner ppf "Fig 5: throughput & latency vs offered load";
  List.iter
    (fun r ->
      Report.subhead ppf r.mode;
      Report.ramp_block ppf r.ramp)
    results;
  match results with
  | [ raft; dynatune ] when raft.mode <> dynatune.mode ->
      Report.subhead ppf "paper comparison";
      Report.kv ppf "peak throughput"
        (Printf.sprintf
           "%.0f -> %.0f req/s (%.1f%% lower; paper: 13678 -> 12800 = 6.4%% lower)"
           raft.ramp.peak_rps dynatune.ramp.peak_rps
           (100. *. (1. -. (dynatune.ramp.peak_rps /. raft.ramp.peak_rps))))
  | _ -> ()
