(* Operations tour: the library features an operator of a Dynatune
   cluster would actually use day to day — linearizable reads, planned
   leadership hand-off before maintenance, partition tolerance, and
   crash recovery with log compaction.

     dune exec examples/operations.exe *)

module Cluster = Harness.Cluster
module Fault = Harness.Fault
module Time = Des.Time
module Node_id = Netsim.Node_id

let printf = Format.printf

let put c ~seq key value =
  ignore
    (Cluster.submit_target c
       ~payload:(Kvsm.Command.to_payload (Kvsm.Command.Put { key; value }))
       ~client_id:1 ~seq
       ~on_result:(fun ~committed:_ -> ()))

let leader_name c =
  match Cluster.leader c with
  | Some l -> Format.asprintf "%a" Node_id.pp (Raft.Node.id l)
  | None -> "<none>"

let () =
  let config =
    Raft.Config.with_snapshots ~threshold:25 (Raft.Config.dynatune ())
  in
  let conditions =
    Netsim.Conditions.(constant (profile ~rtt_ms:40. ~jitter:0.05 ()))
  in
  let c = Cluster.create ~seed:77L ~n:5 ~config ~conditions () in
  ignore (Cluster.boot c ~label:"operations" : Raft.Node.t);
  printf "cluster up, leader %s@." (leader_name c);

  (* 1. Writes + a linearizable read. *)
  for i = 1 to 40 do
    put c ~seq:i (Printf.sprintf "cfg/%d" i) "enabled"
  done;
  Cluster.run_for c (Time.sec 2);
  printf "@.[reads] linearizable read of cfg/7 via ReadIndex...@.";
  Cluster.linearizable_read c ~key:"cfg/7" ~on_result:(fun r ->
      match r with
      | Some (Some v) ->
          printf "  served at t=%a: cfg/7 = %S (leadership confirmed by a \
                  quorum round)@."
            Time.pp (Cluster.now c) v
      | Some None -> printf "  key absent@."
      | None -> printf "  read failed (no stable leader)@.");
  Cluster.run_for c (Time.ms 500);

  (* 2. Log compaction has kicked in. *)
  (match Cluster.leader c with
  | Some l ->
      let log = Raft.Server.log (Raft.Node.server l) in
      printf
        "@.[compaction] leader log: %d live entries behind snapshot \
         boundary %d@."
        (Raft.Log.length log)
        (Raft.Log.snapshot_index log)
  | None -> ());

  (* 3. Planned maintenance: hand leadership off, no OTS. *)
  let old_leader = Option.get (Cluster.leader c) in
  let target =
    List.find
      (fun id -> not (Node_id.equal id (Raft.Node.id old_leader)))
      (Cluster.node_ids c)
  in
  printf "@.[transfer] moving leadership %s -> %a for maintenance...@."
    (leader_name c) Node_id.pp target;
  let t0 = Cluster.now c in
  ignore (Cluster.transfer_leadership c target);
  ignore
    (Des.Engine.await (Cluster.engine c) ~slice:(Time.ms 5)
       ~timeout:(Time.sec 10) (fun () ->
         match Cluster.leader c with
         | Some l -> Node_id.equal (Raft.Node.id l) target
         | None -> false)
      : bool);
  printf "  new leader %s after %.0f ms (no election timeout involved)@."
    (leader_name c)
    (Time.to_ms_f (Time.diff (Cluster.now c) t0));
  Cluster.run_for c (Time.sec 1);

  (* 4. Partition: the majority side keeps serving. *)
  let minority =
    [ Raft.Node.id old_leader ]
  in
  printf "@.[partition] isolating %a...@." Node_id.pp (List.hd minority);
  Cluster.partition c [ minority ];
  for i = 41 to 50 do
    put c ~seq:i (Printf.sprintf "during-partition/%d" i) "ok"
  done;
  Cluster.run_for c (Time.sec 3);
  printf "  leader %s still serving; healing...@." (leader_name c);
  Cluster.heal_partition c;
  Cluster.run_for c (Time.sec 5);

  (* 5. Crash a follower: it recovers from its snapshot + log. *)
  let victim =
    List.find
      (fun id ->
        match Cluster.leader c with
        | Some l -> not (Node_id.equal id (Raft.Node.id l))
        | None -> true)
      (Cluster.node_ids c)
  in
  printf "@.[crash] crash-restarting %a (loses volatile state)...@."
    Node_id.pp victim;
  Fault.crash_and_restart c victim ~downtime:(Time.sec 2);
  Cluster.run_for c (Time.sec 5);
  let digests =
    List.map (fun id -> Kvsm.Store.state_digest (Cluster.store c id))
      (Cluster.node_ids c)
  in
  (match digests with
  | d :: rest when List.for_all (String.equal d) rest ->
      printf "  recovered from snapshot + log replay; all 5 replicas agree@."
  | _ -> printf "  WARNING: replicas diverged@.");
  printf "@.done: reads, transfer, partition, crash recovery — all healthy.@."
