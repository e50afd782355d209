module Cluster = Harness.Cluster
module Monitor = Harness.Monitor

type variant = { label : string; config : Raft.Config.t }

let variants () =
  let base = Raft.Config.dynatune () in
  [
    { label = "dynatune"; config = base };
    {
      label = "+single-timer";
      config = Raft.Config.with_consolidated_timer base;
    };
  ]

type row = {
  label : string;
  peak_rps : float;
  leader_cpu_pct : float;
  msgs_per_sec : float;
  false_timeouts : int;
  detection_ms : float;
  ots_ms : float;
}

let cpu_probe ~seed ~config =
  (* N = 17 under 10% loss: the tuned h is small, so heartbeat cost is
     visible; measure the leader CPU over a steady-state window. *)
  let conditions =
    Netsim.Conditions.(
      constant (profile ~rtt_ms:200. ~jitter:0.02 ~loss:0.10 ()))
  in
  let cluster =
    Cluster.create ~seed ~costs:Raft.Cost_model.etcd_like ~cores:2. ~n:17
      ~config ~conditions ()
  in
  ignore
    (Cluster.boot ~timeout:(Des.Time.sec 60) cluster ~label:"extensions"
      : Raft.Node.t);
  Cluster.run_for cluster (Des.Time.sec 40);
  let leader =
    match Cluster.leader cluster with
    | Some l -> l
    | None -> failwith "extensions: leader lost"
  in
  let sent_before = (Netsim.Fabric.counters (Cluster.fabric cluster)).Netsim.Fabric.sent in
  let from = Des.Time.to_sec_f (Cluster.now cluster) in
  let (), window =
    Monitor.observe cluster (fun () ->
        Cluster.run_for cluster (Des.Time.sec 30))
  in
  let until = Des.Time.to_sec_f (Cluster.now cluster) in
  let sent_after = (Netsim.Fabric.counters (Cluster.fabric cluster)).Netsim.Fabric.sent in
  ( Netsim.Cpu.utilization_in (Raft.Node.cpu leader) ~lo_sec:from ~hi_sec:until,
    float_of_int (sent_after - sent_before) /. (until -. from),
    List.length window.Monitor.timeouts )

let failover_probe ~seed ~config =
  let r = Fig4.run ~seed ~failures:50 ~config () in
  (Stats.Summary.mean r.Fig4.detection, Stats.Summary.mean r.Fig4.ots)

let run ?(hold = Des.Time.sec 3) ?(jobs = 1) () =
  let seed = 29L in
  Parallel.Campaign.all ~jobs
  @@ List.map
       (fun v () ->
         let fig5 = Fig5.run ~seed ~hold ~config:v.config () in
         let leader_cpu_pct, msgs_per_sec, false_timeouts =
           cpu_probe ~seed ~config:v.config
         in
         let detection_ms, ots_ms = failover_probe ~seed ~config:v.config in
         {
           label = v.label;
           peak_rps = fig5.Fig5.ramp.peak_rps;
           leader_cpu_pct;
           msgs_per_sec;
           false_timeouts;
           detection_ms;
           ots_ms;
         })
       (variants ())

let print ppf rows =
  Report.banner ppf
    "Extensions (Section IV-E future work): single heartbeat timer";
  Format.fprintf ppf "  %-14s %10s %12s %10s %10s %12s %10s@." "variant"
    "peak rps" "leader cpu%" "msgs/s" "false TOs" "detect(ms)" "ots(ms)";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-14s %10.0f %12.1f %10.1f %10d %12.1f %10.1f@."
        r.label r.peak_rps r.leader_cpu_pct r.msgs_per_sec r.false_timeouts
        r.detection_ms r.ots_ms)
    rows;
  Format.fprintf ppf
    "@.  msgs/s and false TOs (election-timer expiries) cover the 30 s CPU \
     window (N = 17, 10%% loss).@.  The single timer heartbeats every \
     follower at the smallest tuned h: more messages and leader@.  CPU than \
     per-follower timers, fewer false timeouts, slower failure detection.@."
