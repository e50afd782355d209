module Cluster = Harness.Cluster
module Monitor = Harness.Monitor

type series = {
  mode : string;
  rtt : (float * float) list;
  majority_timeout : (float * float) list;
  ots : (Des.Time.t * Des.Time.t) list;
  ots_total_ms : float;
  false_timeouts : int;
  pre_vote_aborts : int;
  elections : int;
}

type pattern = Gradual | Radical

let rtt_schedule pattern =
  match pattern with
  | Gradual ->
      let up = List.init 16 (fun i -> 50. +. (10. *. float_of_int i)) in
      let down = List.rev (List.init 15 (fun i -> 50. +. (10. *. float_of_int i))) in
      up @ down
  | Radical -> [ 50.; 500.; 50. ]

let run ?(seed = 11L) ?(hold = Des.Time.sec 60) ~pattern ~config () =
  let warmup = Des.Time.sec 30 in
  let values = rtt_schedule pattern in
  let jitter = 0.02 in
  (* Warm-up segment at the first RTT, then the staircase. *)
  let segments =
    (Des.Time.zero, Netsim.Conditions.profile ~rtt_ms:(List.hd values) ~jitter ())
    :: List.mapi
         (fun i rtt_ms ->
           ( Des.Time.add warmup (i * hold),
             Netsim.Conditions.profile ~rtt_ms ~jitter () ))
         values
  in
  let conditions = Netsim.Conditions.piecewise segments in
  let cluster = Cluster.create ~seed ~n:5 ~config ~conditions () in
  (* WAN realism: transient sender-side congestion episodes (the paper's
     Section II-C1 cites queueing spikes above 200 ms).  These are what
     expose Raft-Low's fragility once the RTT approaches its election
     timeout, while Raft's and Dynatune's conservative fallbacks ride
     them out. *)
  Netsim.Fabric.set_all_egress_congestion (Cluster.fabric cluster)
    (Netsim.Congestion.spec ~mean_gap:(Des.Time.sec 12)
       ~extra_lo:(Des.Time.ms 80) ~extra_hi:(Des.Time.ms 170)
       ~duration:(Des.Time.ms 300) ());
  ignore (Cluster.boot cluster ~label:"fig6" : Raft.Node.t);
  Des.Engine.run_until (Cluster.engine cluster) warmup;
  let duration = List.length values * hold in
  let watched, window =
    Monitor.observe cluster (fun () ->
        Monitor.watch cluster ~every:(Des.Time.sec 1) ~duration
          ~probes:
            [
              {
                Monitor.name = "majority_timeout";
                read = (fun c -> Monitor.gap (Monitor.majority_randomized_ms c));
              };
            ])
  in
  let majority_timeout =
    match watched with
    | [ (_, ts) ] -> Stats.Timeseries.points ts
    | _ -> assert false
  in
  let rtt =
    List.map
      (fun (sec, _) ->
        let t = Des.Time.of_sec_f sec in
        (sec, (Netsim.Conditions.at conditions t).Netsim.Conditions.rtt_ms))
      majority_timeout
  in
  {
    mode = Raft.Config.mode_name config;
    rtt;
    majority_timeout;
    ots = window.Monitor.leaderless;
    ots_total_ms = Monitor.ots_ms window;
    false_timeouts = List.length window.Monitor.timeouts;
    pre_vote_aborts = window.Monitor.pre_vote_aborts;
    elections = List.length window.Monitor.elections;
  }

let compare_modes ?hold ?(jobs = 1) ~pattern () =
  Parallel.Campaign.all ~jobs
    [
      (fun () -> run ?hold ~pattern ~config:(Raft.Config.dynatune ()) ());
      (fun () -> run ?hold ~pattern ~config:(Raft.Config.static ()) ());
      (fun () -> run ?hold ~pattern ~config:(Raft.Config.raft_low ()) ());
    ]

let print ppf pattern results =
  let title =
    match pattern with
    | Gradual -> "Fig 6a: gradual RTT 50->200->50ms"
    | Radical -> "Fig 6b: radical RTT 50->500->50ms"
  in
  Report.banner ppf (title ^ " (3rd-smallest randomizedTimeout, OTS shading)");
  (match results with
  | first :: _ ->
      (* One table: time, stimulus RTT, one timeout column per mode.
         Downsample to every 10th second to keep the output readable. *)
      let every_nth n points =
        List.filteri (fun i _ -> i mod n = 0) points
      in
      let columns =
        ("link RTT", every_nth 10 first.rtt)
        :: List.map (fun r -> (r.mode, every_nth 10 r.majority_timeout)) results
      in
      Report.series_table ppf ~time_label:"t(s)" ~columns
  | [] -> ());
  List.iter
    (fun r ->
      Report.subhead ppf r.mode;
      Report.kv ppf "total OTS" (Printf.sprintf "%.0f ms" r.ots_total_ms);
      Report.kv ppf "timer expiries (false detections)"
        (string_of_int r.false_timeouts);
      Report.kv ppf "pre-vote aborts" (string_of_int r.pre_vote_aborts);
      Report.kv ppf "real elections" (string_of_int r.elections);
      Report.intervals ppf ~label:"OTS intervals" r.ots)
    results
