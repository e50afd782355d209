(* Tests for the two remaining fault models: network partitions and
   crash-recovery (volatile state lost, persistent state replayed). *)

module Cluster = Harness.Cluster
module Fault = Harness.Fault
module Monitor = Harness.Monitor
module Time = Des.Time
module Node_id = Netsim.Node_id

let lan () = Netsim.Conditions.(constant (profile ~rtt_ms:10. ~jitter:0.02 ()))

let make ?(seed = 23L) ?(n = 5) ?(config = Raft.Config.static ()) () =
  let c =
    Cluster.create ~seed ~n ~config ~conditions:(lan ()) ~check:Check.Always ()
  in
  Cluster.start c;
  c

let leader_id c =
  match Cluster.leader c with
  | Some l -> Raft.Node.id l
  | None -> Alcotest.fail "expected a leader"

let put c ~seq k v ~on_result =
  Cluster.submit_target c
    ~payload:(Kvsm.Command.to_payload (Kvsm.Command.Put { key = k; value = v }))
    ~client_id:1 ~seq ~on_result

(* {2 Partitions} *)

let test_partition_reachability () =
  let engine = Des.Engine.create () in
  let f : string Netsim.Fabric.t = Netsim.Fabric.create engine in
  let ids = Node_id.range 5 in
  List.iter (Netsim.Fabric.add_node f) ids;
  let n i = List.nth ids i in
  Netsim.Fabric.partition f [ [ n 0; n 1 ]; [ n 2; n 3 ] ];
  Alcotest.(check bool) "same group" true (Netsim.Fabric.reachable f (n 0) (n 1));
  Alcotest.(check bool) "cross group" false
    (Netsim.Fabric.reachable f (n 0) (n 2));
  (* n4 was not mentioned: it forms its own group. *)
  Alcotest.(check bool) "implicit group isolated" false
    (Netsim.Fabric.reachable f (n 4) (n 0));
  Alcotest.(check bool) "self always reachable" true
    (Netsim.Fabric.reachable f (n 4) (n 4));
  Netsim.Fabric.heal_partition f;
  Alcotest.(check bool) "healed" true (Netsim.Fabric.reachable f (n 0) (n 2))

let test_partition_rejects_duplicates () =
  let engine = Des.Engine.create () in
  let f : string Netsim.Fabric.t = Netsim.Fabric.create engine in
  let ids = Node_id.range 2 in
  List.iter (Netsim.Fabric.add_node f) ids;
  Alcotest.(check bool) "duplicate rejected" true
    (try
       Netsim.Fabric.partition f [ [ List.hd ids ]; [ List.hd ids ] ];
       false
     with Invalid_argument _ -> true)

let test_minority_partition_cannot_elect () =
  let c = make () in
  ignore (Cluster.await_leader c ~timeout:(Time.sec 20));
  let leader = leader_id c in
  let followers =
    List.filter (fun id -> not (Node_id.equal id leader)) (Cluster.node_ids c)
  in
  (* Leader + one follower on the minority side. *)
  let minority = [ leader; List.hd followers ] in
  let majority = List.tl followers in
  Cluster.partition c [ minority; majority ];
  Cluster.run_for c (Time.sec 15);
  (* The majority elected a replacement. *)
  let new_leader = leader_id c in
  Alcotest.(check bool) "replacement on the majority side" true
    (List.exists (Node_id.equal new_leader) majority);
  (* The minority leader abdicated via CheckQuorum rather than serving
     stale reads forever. *)
  Alcotest.(check bool) "old leader stepped down" false
    (Raft.Types.is_leader
       (Raft.Server.role (Raft.Node.server (Cluster.node c leader))));
  (* Nobody on the minority side claims leadership. *)
  List.iter
    (fun id ->
      Alcotest.(check bool) "minority has no leader" false
        (Raft.Types.is_leader
           (Raft.Server.role (Raft.Node.server (Cluster.node c id)))))
    minority

let test_partition_heals_consistently () =
  let c = make () in
  ignore (Cluster.await_leader c ~timeout:(Time.sec 20));
  let leader = leader_id c in
  let followers =
    List.filter (fun id -> not (Node_id.equal id leader)) (Cluster.node_ids c)
  in
  Cluster.partition c [ [ leader; List.hd followers ]; List.tl followers ];
  Cluster.run_for c (Time.sec 10);
  (* Write through the new (majority) leader during the partition. *)
  let committed = ref 0 in
  for i = 1 to 10 do
    (match
       put c ~seq:i
         (Printf.sprintf "part:%d" i)
         "v"
         ~on_result:(fun ~committed:ok -> if ok then incr committed)
     with
    | `Accepted -> ()
    | `Not_leader _ -> ());
    Cluster.run_for c (Time.ms 50)
  done;
  Cluster.run_for c (Time.sec 2);
  Alcotest.(check int) "majority committed during partition" 10 !committed;
  (* Heal: the minority catches up and every replica converges. *)
  Cluster.heal_partition c;
  Cluster.run_for c (Time.sec 10);
  Alcotest.(check (result unit string)) "converged" (Ok ())
    (Fault.verify c ~acked:[]);
  (* Exactly one leader after healing. *)
  let leaders =
    List.filter
      (fun id ->
        Raft.Types.is_leader
          (Raft.Server.role (Raft.Node.server (Cluster.node c id))))
      (Cluster.node_ids c)
  in
  Alcotest.(check int) "one leader" 1 (List.length leaders)

(* {2 Crash-recovery} *)

let test_crash_loses_volatile_keeps_log () =
  let c = make () in
  ignore (Cluster.await_leader c ~timeout:(Time.sec 20));
  let committed = ref 0 in
  for i = 1 to 20 do
    (match
       put c ~seq:i
         (Printf.sprintf "k%d" i)
         "v"
         ~on_result:(fun ~committed:ok -> if ok then incr committed)
     with
    | `Accepted -> ()
    | `Not_leader _ -> ());
    Cluster.run_for c (Time.ms 30)
  done;
  Cluster.run_for c (Time.sec 2);
  Alcotest.(check int) "writes committed" 20 !committed;
  let leader = leader_id c in
  let victim =
    List.find (fun id -> not (Node_id.equal id leader)) (Cluster.node_ids c)
  in
  let log_before =
    Raft.Log.last_index (Raft.Server.log (Raft.Node.server (Cluster.node c victim)))
  in
  Fault.crash_and_restart c victim ~downtime:(Time.sec 2);
  let server = Raft.Node.server (Cluster.node c victim) in
  (* Immediately after restart: log preserved, commit index reset. *)
  Alcotest.(check int) "log survived the crash" log_before
    (Raft.Log.last_index (Raft.Server.log server));
  Alcotest.(check int) "commit index is volatile" 0
    (Raft.Server.commit_index server);
  Alcotest.(check int) "store rebuilt from scratch" 0
    (Kvsm.Store.size (Cluster.store c victim));
  (* The leader re-teaches the commit point; replay rebuilds the store. *)
  Cluster.run_for c (Time.sec 3);
  Alcotest.(check bool) "commit recovered" true
    (Raft.Server.commit_index server >= log_before);
  Alcotest.(check string) "replica converged after replay"
    (Kvsm.Store.state_digest (Cluster.store c leader))
    (Kvsm.Store.state_digest (Cluster.store c victim))

let test_crashed_node_keeps_vote () =
  (* Election safety across crashes: a restarted node must remember its
     vote and refuse to vote twice in the same term. *)
  let ids = Node_id.range 5 in
  let engine = Des.Engine.create ~seed:3L () in
  let fabric = Netsim.Fabric.create engine in
  List.iter (Netsim.Fabric.add_node fabric) ids;
  let trace = Des.Mtrace.create engine in
  let config = Raft.Config.static () in
  let peers = List.tl ids in
  let node =
    Raft.Node.create ~fabric ~trace ~id:(List.hd ids) ~peers ~config ()
  in
  Raft.Node.start node;
  (* Grant a vote in term 7 to peer 1. *)
  let dispatch msg =
    Netsim.Fabric.send fabric Netsim.Transport.Reliable ~cause:0
      ~src:(List.nth ids 1)
      ~dst:(List.hd ids) msg;
    Des.Engine.run_for engine (Time.ms 1)
  in
  dispatch
    (Raft.Rpc.Vote_request
       { term = 7; last_log_index = 0; last_log_term = 0; pre_vote = false; force = false });
  Alcotest.(check int) "term adopted" 7
    (Raft.Server.term (Raft.Node.server node));
  Raft.Node.crash node;
  Des.Engine.run_for engine (Time.ms 100);
  Raft.Node.restart node;
  let p = Raft.Server.persisted (Raft.Node.server node) in
  Alcotest.(check int) "term persisted" 7 p.Raft.Server.term;
  Alcotest.(check (option int)) "vote persisted" (Some 1)
    (Option.map Node_id.to_int p.Raft.Server.voted_for)

let test_crash_rejects_pending_waiters () =
  let c = make () in
  ignore (Cluster.await_leader c ~timeout:(Time.sec 20));
  let leader = leader_id c in
  let result = ref None in
  (match
     put c ~seq:1 "doomed" "v" ~on_result:(fun ~committed ->
         result := Some committed)
   with
  | `Accepted -> ()
  | `Not_leader _ -> Alcotest.fail "leader refused");
  (* Crash the leader before the request can commit. *)
  Raft.Node.crash (Cluster.node c leader);
  Alcotest.(check (option bool)) "waiter rejected on crash" (Some false)
    !result;
  Raft.Node.restart (Cluster.node c leader)

let test_full_cluster_crash_recovery () =
  (* Every node crashes (rolling); all data committed before survives. *)
  let c = make ~config:(Raft.Config.dynatune ()) () in
  ignore (Cluster.await_leader c ~timeout:(Time.sec 20));
  let committed = ref 0 in
  for i = 1 to 10 do
    (match
       put c ~seq:i (Printf.sprintf "stable:%d" i) "v"
         ~on_result:(fun ~committed:ok -> if ok then incr committed)
     with
    | `Accepted -> ()
    | `Not_leader _ -> ());
    Cluster.run_for c (Time.ms 30)
  done;
  Cluster.run_for c (Time.sec 2);
  Alcotest.(check int) "baseline committed" 10 !committed;
  List.iter
    (fun id ->
      Fault.crash_and_restart c id ~downtime:(Time.ms 500);
      Cluster.run_for c (Time.sec 5);
      ignore (Cluster.await_leader c ~timeout:(Time.sec 30)))
    (Cluster.node_ids c);
  Cluster.run_for c (Time.sec 5);
  (* All stores converge and contain the ten keys. *)
  let reference = Cluster.store c (leader_id c) in
  for i = 1 to 10 do
    Alcotest.(check (option string))
      (Printf.sprintf "key %d survived" i)
      (Some "v")
      (Kvsm.Store.find reference (Printf.sprintf "stable:%d" i))
  done

(* {2 Pipelined replication under faults}

   Regression for the replication engine v2: a follower that sleeps
   through a burst of writes wakes behind a pipeline of in-flight
   appends whose nacks are mostly stale (they answer superseded sends),
   on a link that also loses and duplicates datagrams.  The old
   nack-resends-everything behaviour re-appended the same window per
   stale nack; the stale rule plus the stalled-window nudge must still
   converge every replica. *)

let test_pipelined_laggard_catchup () =
  let config =
    Raft.Config.with_replication ~max_inflight_appends:4 ~append_backpressure:8
      ~max_entries_per_append:4
      (Raft.Config.static ())
  in
  let conditions =
    Netsim.Conditions.(
      constant (profile ~rtt_ms:20. ~jitter:0.3 ~loss:0.1 ~duplicate:0.05 ()))
  in
  let c =
    Cluster.create ~seed:31L ~n:5 ~config ~conditions ~check:Check.Always ()
  in
  (* A wire model so the bulk lanes and the egress queues engage. *)
  Netsim.Fabric.set_uniform_serialization (Cluster.fabric c) (Time.us 50);
  Cluster.start c;
  ignore (Cluster.await_leader c ~timeout:(Time.sec 20));
  let leader = leader_id c in
  let laggard =
    List.find (fun id -> not (Node_id.equal id leader)) (Cluster.node_ids c)
  in
  Fault.pause c laggard;
  let committed = ref 0 in
  for i = 1 to 30 do
    (match
       put c ~seq:i
         (Printf.sprintf "lag:%d" i)
         "v"
         ~on_result:(fun ~committed:ok -> if ok then incr committed)
     with
    | `Accepted -> ()
    | `Not_leader _ -> ());
    Cluster.run_for c (Time.ms 20)
  done;
  Cluster.run_for c (Time.sec 2);
  Alcotest.(check int) "quorum committed while the laggard slept" 30 !committed;
  Fault.recover c laggard;
  Cluster.run_for c (Time.sec 15);
  Alcotest.(check (result unit string)) "laggard caught up" (Ok ())
    (Fault.verify c ~acked:[]);
  (* The catch-up must not have re-appended entries it already sent:
     the laggard's log is exactly the leader's. *)
  Alcotest.(check int) "log lengths equal"
    (Raft.Log.last_index (Raft.Server.log (Raft.Node.server (Cluster.node c leader))))
    (Raft.Log.last_index (Raft.Server.log (Raft.Node.server (Cluster.node c laggard))))

(* {2 Fault plans} *)

(* The printed plan is the OCaml literal that builds it. *)
let test_plan_literal () =
  let plan : Fault.plan =
    [ Run 1500000000; Pause 1; Crash 2; Restart 2; Resume 1;
      Partition [ [ 0; 3 ]; [ 4 ] ]; Heal; Add_server; Remove_server 5;
      Write { seq = 1; key = "k:1"; value = "x" } ]
  in
  Alcotest.(check string) "pp_plan"
    {|[ Run 1500000000;
  Pause 1;
  Crash 2;
  Restart 2;
  Resume 1;
  Partition [ [ 0; 3 ]; [ 4 ] ];
  Heal;
  Add_server;
  Remove_server 5;
  Write { seq = 1; key = "k:1"; value = "x" } ]|}
    (Format.asprintf "%a" Fault.pp_plan plan)

(* An action the cluster's state does not admit is skipped and left out
   of the executed plan; the rest run, writes through [write], and a
   crash-restart replays the log into an empty replica. *)
let test_plan_skips_what_does_not_apply () =
  let c = make () in
  ignore (Cluster.await_leader c ~timeout:(Time.sec 20));
  let f = (Node_id.to_int (leader_id c) + 1) mod 5 in
  let replica = Cluster.store c (Node_id.of_int f) in
  let acked = ref [] in
  let write =
    Fault.submit c ~client_id:1 ~acked:(fun k -> acked := k :: !acked)
  in
  let plan : Fault.plan =
    [ Resume f; Write { seq = 1; key = "a"; value = "1" }; Run (Time.sec 1);
      Crash f; Pause f; Crash f; Restart 9; Run (Time.sec 1);
      Restart f; Run (Time.sec 2) ]
  in
  let executed = Fault.run c ~write plan in
  Alcotest.(check bool) "skipped: resume, pause and crash of a paused node, \
     a non-member" true
    (executed
    = List.filteri (fun i _ -> not (List.mem i [ 0; 4; 5; 6 ])) plan);
  Alcotest.(check (list string)) "acked" [ "a" ] !acked;
  Alcotest.(check bool) "restarted" false
    (Raft.Node.is_paused (Cluster.node c (Node_id.of_int f)));
  Alcotest.(check bool) "fresh replica" false
    (replica == Cluster.store c (Node_id.of_int f));
  Alcotest.(check (result unit string)) "verified" (Ok ())
    (Fault.verify c ~acked:!acked)

let tests =
  [
    Alcotest.test_case "partition: reachability" `Quick
      test_partition_reachability;
    Alcotest.test_case "partition: duplicate groups rejected" `Quick
      test_partition_rejects_duplicates;
    Alcotest.test_case "partition: minority cannot elect" `Quick
      test_minority_partition_cannot_elect;
    Alcotest.test_case "partition: heal converges" `Quick
      test_partition_heals_consistently;
    Alcotest.test_case "crash: volatile lost, log kept" `Quick
      test_crash_loses_volatile_keeps_log;
    Alcotest.test_case "crash: vote persists" `Quick
      test_crashed_node_keeps_vote;
    Alcotest.test_case "crash: waiters rejected" `Quick
      test_crash_rejects_pending_waiters;
    Alcotest.test_case "crash: rolling full-cluster recovery" `Slow
      test_full_cluster_crash_recovery;
    Alcotest.test_case "pipelined laggard catches up under loss" `Quick
      test_pipelined_laggard_catchup;
    Alcotest.test_case "plan: printed as its own literal" `Quick
      test_plan_literal;
    Alcotest.test_case "plan: inadmissible actions skipped" `Quick
      test_plan_skips_what_does_not_apply;
  ]
