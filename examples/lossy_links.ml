(* Lossy links: watch Dynatune trade heartbeat rate against delivery
   assurance as packet loss rises and falls (a miniature of Fig 7a).

     dune exec examples/lossy_links.exe *)

module Cluster = Harness.Cluster
module Monitor = Harness.Monitor

let printf = Format.printf

let () =
  let hold = Des.Time.sec 15 in
  let losses = [ 0.; 0.1; 0.2; 0.3; 0.2; 0.1; 0. ] in
  let conditions =
    Netsim.Conditions.loss_staircase
      ~base:(Netsim.Conditions.profile ~rtt_ms:200. ~jitter:0.02 ())
      ~hold ~losses
  in
  let cluster =
    Cluster.create ~seed:9L ~n:5 ~config:(Raft.Config.dynatune ()) ~conditions
      ()
  in
  let leader = Cluster.boot cluster ~label:"lossy_links" in
  let follower =
    List.find
      (fun id -> not (Netsim.Node_id.equal id (Raft.Node.id leader)))
      (Cluster.node_ids cluster)
  in
  printf
    "RTT fixed at 200ms; loss staircase %s; watching the leader's heartbeat \
     interval toward %a@."
    (String.concat " -> "
       (List.map (fun l -> Printf.sprintf "%.0f%%" (100. *. l)) losses))
    Netsim.Node_id.pp follower;
  printf "@.  %6s %8s %12s %8s %14s@." "t(s)" "loss" "h (ms)" "K"
    "heartbeats/s";
  let duration = List.length losses * hold in
  let samples =
    Monitor.watch cluster ~every:(Des.Time.sec 3) ~duration (fun c ->
        ( Monitor.gap (Monitor.leader_h_ms c ~follower),
          match
            Raft.Server.tuner (Raft.Node.server (Cluster.node c follower))
          with
          | Some tuner ->
              float_of_int (Dynatune.Tuner.required_heartbeats tuner)
          | None -> nan ))
  in
  List.iter
    (fun (t, (h_ms, k_now)) ->
      let loss =
        (Netsim.Conditions.at conditions (Des.Time.of_sec_f t))
          .Netsim.Conditions.loss
      in
      printf "  %6.0f %7.0f%% %12.1f %8.0f %14.1f@." t (100. *. loss) h_ms
        k_now
        (if h_ms > 0. then 1000. /. h_ms else nan))
    samples;
  printf
    "@.more loss -> more heartbeats needed for the same assurance (K = \
     ceil(log_p(1-x))) -> smaller h;@.as the network heals, Dynatune backs \
     off to save CPU and bandwidth.@."
