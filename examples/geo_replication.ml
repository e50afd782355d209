(* Geo-replication: a five-region WAN cluster (Tokyo, London, California,
   Sydney, São Paulo) where every leader-follower path gets its own tuned
   election parameters — the per-path asymmetry that motivates Dynatune's
   design (Section III-B).

     dune exec examples/geo_replication.exe *)

module Cluster = Harness.Cluster
module Fault = Harness.Fault

let printf = Format.printf

let region id = List.nth Scenarios.Geo.regions (Netsim.Node_id.to_int id)
let region_name id = Scenarios.Geo.name (region id)

let () =
  let cluster =
    Cluster.create ~seed:5L ~n:5 ~config:(Raft.Config.dynatune ()) ()
  in
  Scenarios.Geo.apply cluster ();
  let leader =
    Cluster.boot ~timeout:(Des.Time.sec 60) cluster ~label:"geo_replication"
  in
  printf "leader elected: %s@."
    (region_name (Raft.Node.id leader));

  (* Warm the tuners, then show the per-path parameters. *)
  Cluster.run_for cluster (Des.Time.sec 30);
  printf "@.per-path election parameters (leader-side h, follower-side Et):@.";
  printf "  %-12s %10s %12s %12s %10s@." "follower" "RTT(ms)" "tuned Et(ms)"
    "tuned h(ms)" "loss est";
  List.iter
    (fun id ->
      if not (Netsim.Node_id.equal id (Raft.Node.id leader)) then begin
        let server = Raft.Node.server (Cluster.node cluster id) in
        let leader_server = Raft.Node.server leader in
        let rtt =
          Scenarios.Geo.rtt_ms (region (Raft.Node.id leader)) (region id)
        in
        let h =
          match Raft.Server.heartbeat_interval_to leader_server id with
          | Some h -> Des.Time.to_ms_f h
          | None -> nan
        in
        match Raft.Server.tuner server with
        | Some tuner ->
            printf "  %-12s %10.0f %12.1f %12.1f %9.3f%%@."
              (region_name id)
              rtt
              (Des.Time.to_ms_f (Dynatune.Tuner.election_timeout tuner))
              h
              (100. *. Dynatune.Tuner.loss_rate tuner)
        | None -> ()
      end)
    (Cluster.node_ids cluster);
  printf
    "@.each follower watches the leader with a timeout matched to its own \
     path;@.static Raft would use 1000ms everywhere.@.";

  (* A failover on the WAN. *)
  printf "@.killing the leader in %s...@."
    (region_name (Raft.Node.id leader));
  match Fault.fail_and_measure cluster () with
  | Ok o ->
      printf "  detected in %.0f ms, new leader %s established in %.0f ms@."
        o.Fault.detection_ms
        (region_name o.Fault.new_leader)
        o.Fault.ots_ms
  | Error msg -> printf "  failover failed: %s@." msg
