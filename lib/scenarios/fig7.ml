module Cluster = Harness.Cluster
module Monitor = Harness.Monitor

type result = {
  mode : string;
  n : int;
  loss : (float * float) list;
  h : (float * float) list;
  leader_cpu : (float * float) list;
  follower_cpu : (float * float) list;
  elections : int;
  timer_expiries : int;
}

let loss_schedule =
  [ 0.; 5.; 10.; 15.; 20.; 25.; 30.; 25.; 20.; 15.; 10.; 5.; 0. ]

(* The sampling period, and the width of the CPU-utilization window. *)
let sample_every = Des.Time.sec 5

let run ?(seed = 19L) ?(hold = Des.Time.sec 180) ~n ~config () =
  let warmup = Des.Time.sec 30 in
  let rtt_ms = 200. and jitter = 0.02 in
  let segments =
    (Des.Time.zero, Netsim.Conditions.profile ~rtt_ms ~jitter ())
    :: List.mapi
         (fun i pct ->
           ( Des.Time.add warmup (i * hold),
             Netsim.Conditions.profile ~rtt_ms ~jitter ~loss:(pct /. 100.) ()
           ))
         loss_schedule
  in
  let conditions = Netsim.Conditions.piecewise segments in
  let cluster =
    Cluster.create ~seed ~costs:Raft.Cost_model.etcd_like ~cores:2. ~n ~config
      ~conditions ()
  in
  ignore
    (Cluster.boot ~timeout:(Des.Time.sec 60) cluster ~label:"fig7"
      : Raft.Node.t);
  Des.Engine.run_until (Cluster.engine cluster) warmup;
  (* Fix the observed leader/follower pair at measurement start (the paper
     plots one leader and one follower). *)
  let leader_node =
    match Cluster.leader cluster with
    | Some l -> l
    | None -> failwith "fig7: leader lost before measurement"
  in
  let follower_id =
    List.find
      (fun id -> not (Netsim.Node_id.equal id (Raft.Node.id leader_node)))
      (Cluster.node_ids cluster)
  in
  let follower_node = Cluster.node cluster follower_id in
  let window_sec = Des.Time.to_sec_f sample_every in
  let cpu_probe node _cluster =
    let now_sec = Des.Time.to_sec_f (Cluster.now cluster) in
    Netsim.Cpu.utilization_in (Raft.Node.cpu node)
      ~lo_sec:
        (let lo = now_sec -. window_sec in
         if 0. >= lo then 0. else lo)
      ~hi_sec:(if window_sec >= now_sec then window_sec else now_sec)
  in
  let duration = List.length loss_schedule * hold in
  let watched, window =
    Monitor.observe cluster (fun () ->
        Monitor.watch cluster ~every:sample_every ~duration
          ~probes:
            [
              {
                Monitor.name = "h";
                read =
                  (fun c ->
                    Monitor.gap (Monitor.leader_h_ms c ~follower:follower_id));
              };
              { Monitor.name = "leader_cpu"; read = cpu_probe leader_node };
              { Monitor.name = "follower_cpu"; read = cpu_probe follower_node };
            ])
  in
  let series name =
    match List.assoc_opt name watched with
    | Some ts -> Stats.Timeseries.points ts
    | None -> []
  in
  let h = series "h" in
  let loss =
    List.map
      (fun (sec, _) ->
        let t = Des.Time.of_sec_f sec in
        (sec, 100. *. (Netsim.Conditions.at conditions t).Netsim.Conditions.loss))
      h
  in
  {
    mode = Raft.Config.mode_name config;
    n;
    loss;
    h;
    leader_cpu = series "leader_cpu";
    follower_cpu = series "follower_cpu";
    elections = List.length window.Monitor.elections;
    timer_expiries = List.length window.Monitor.timeouts;
  }

let compare_modes ?hold ?(jobs = 1) ~ns () =
  Parallel.Campaign.all ~jobs
    (List.concat_map
       (fun n ->
         [
           (fun () -> run ?hold ~n ~config:(Raft.Config.dynatune ()) ());
           (fun () -> run ?hold ~n ~config:(Raft.Config.fix_k ~k:10 ()) ());
         ])
       ns)

let print ppf results =
  Report.banner ppf
    "Fig 7: heartbeat interval & CPU under loss 0->30->0% (RTT 200ms)";
  let nth_sample n points = List.filteri (fun i _ -> i mod n = 0) points in
  List.iter
    (fun r ->
      Report.subhead ppf (Printf.sprintf "%s N=%d" r.mode r.n);
      Report.series_table ppf ~time_label:"t(s)"
        ~columns:
          [
            ("loss %", nth_sample 6 r.loss);
            ("h (ms)", nth_sample 6 r.h);
            ("leader cpu%", nth_sample 6 r.leader_cpu);
            ("follower cpu%", nth_sample 6 r.follower_cpu);
          ];
      Report.kv ppf "unnecessary elections" (string_of_int r.elections);
      Report.kv ppf "timer expiries" (string_of_int r.timer_expiries);
      let cpu_peak =
        List.fold_left
          (fun (acc : float) (_, v) -> if acc >= v then acc else v)
          0. r.leader_cpu
      in
      Report.kv ppf "leader cpu peak" (Printf.sprintf "%.0f%%" cpu_peak))
    results
