(* Quickstart: build a five-server Dynatune cluster, write some keys,
   kill the leader, and watch the failure being detected and repaired.

     dune exec examples/quickstart.exe *)

module Cluster = Harness.Cluster
module Fault = Harness.Fault
module Monitor = Harness.Monitor

let printf = Format.printf

let () =
  (* A LAN-ish network: 100 ms RTT, mild jitter, no loss — the paper's
     Section IV-B setup. *)
  let conditions =
    Netsim.Conditions.(constant (profile ~rtt_ms:100. ~jitter:0.05 ()))
  in
  let cluster =
    Cluster.create ~seed:1L ~n:5 ~config:(Raft.Config.dynatune ()) ~conditions
      ()
  in

  (* 1. Start the servers and wait for the first leader. *)
  let leader = Cluster.boot cluster ~label:"quickstart" in
  printf "t=%a: %a became leader@." Des.Time.pp (Cluster.now cluster)
    Netsim.Node_id.pp (Raft.Node.id leader);

  (* 2. Write some keys through the replicated KV store. *)
  let committed = ref 0 in
  for i = 1 to 10 do
    let payload =
      Kvsm.Command.to_payload
        (Kvsm.Command.Put
           { key = Printf.sprintf "user:%d" i; value = Printf.sprintf "v%d" i })
    in
    match
      Cluster.submit_target cluster ~payload ~client_id:1 ~seq:i
        ~on_result:(fun ~committed:ok -> if ok then incr committed)
    with
    | `Accepted -> ()
    | `Not_leader _ -> printf "  (leader moved, request %d dropped)@." i
  done;
  Cluster.run_for cluster (Des.Time.sec 2);
  printf "t=%a: %d/10 writes committed; store has %d keys on every replica@."
    Des.Time.pp (Cluster.now cluster) !committed
    (Kvsm.Store.size (Cluster.store cluster (Raft.Node.id leader)));

  (* 3. Let Dynatune warm up and show what it tuned. *)
  Cluster.run_for cluster (Des.Time.sec 20);
  printf "@.After warm-up, election parameters per follower:@.";
  List.iter
    (fun id ->
      if not (Netsim.Node_id.equal id (Raft.Node.id leader)) then
        let server = Raft.Node.server (Cluster.node cluster id) in
        match Raft.Server.tuner server with
        | Some tuner ->
            printf "  %a: %a@." Netsim.Node_id.pp id Dynatune.Tuner.pp tuner
        | None -> ())
    (Cluster.node_ids cluster);
  printf "  (static Raft would use Et = 1000ms, h = 100ms)@.";

  (* 4. Kill the leader and measure recovery. *)
  printf "@.t=%a: killing the leader...@." Des.Time.pp (Cluster.now cluster);
  (match Fault.fail_and_measure cluster () with
  | Ok o ->
      printf
        "  failure detected after %.0f ms; new leader %a established after \
         %.0f ms (%d election round%s)@."
        o.Fault.detection_ms Netsim.Node_id.pp o.Fault.new_leader o.Fault.ots_ms
        o.Fault.election_rounds
        (if o.Fault.election_rounds = 1 then "" else "s")
  | Error msg -> printf "  failover failed: %s@." msg);

  (* 5. The service keeps accepting writes under the new leader. *)
  let committed2 = ref 0 in
  for i = 11 to 20 do
    let payload =
      Kvsm.Command.to_payload
        (Kvsm.Command.Put
           { key = Printf.sprintf "user:%d" i; value = "after-failover" })
    in
    ignore
      (Cluster.submit_target cluster ~payload ~client_id:1 ~seq:i
         ~on_result:(fun ~committed:ok -> if ok then incr committed2))
  done;
  Cluster.run_for cluster (Des.Time.sec 2);
  printf "t=%a: %d/10 post-failover writes committed@." Des.Time.pp
    (Cluster.now cluster) !committed2;
  let digests =
    List.filter_map
      (fun id ->
        let node = Cluster.node cluster id in
        if Raft.Node.is_paused node then None
        else Some (Kvsm.Store.state_digest (Cluster.store cluster id)))
      (Cluster.node_ids cluster)
  in
  match digests with
  | d :: rest when List.for_all (String.equal d) rest ->
      printf "all live replicas agree (digest %s...)@." (String.sub d 0 12)
  | _ -> printf "WARNING: replicas diverged!@."
