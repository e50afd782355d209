(* End-to-end cluster tests: election, failover, replication, tuning. *)

module Cluster = Harness.Cluster
module Fault = Harness.Fault
module Monitor = Harness.Monitor

let ms = Des.Time.ms

let lan_conditions ?(rtt_ms = 10.) ?(jitter = 0.05) ?(loss = 0.) () =
  Netsim.Conditions.(constant (profile ~rtt_ms ~jitter ~loss ()))

let make_cluster ?(seed = 7L) ?(n = 5) ?(config = Raft.Config.static ())
    ?(conditions = lan_conditions ()) () =
  let c = Cluster.create ~seed ~n ~config ~conditions ~check:Check.Always () in
  Cluster.start c;
  c

let leader_id c =
  match Cluster.leader c with
  | Some l -> Raft.Node.id l
  | None -> Alcotest.fail "expected a leader"

let test_elects_leader () =
  let c = make_cluster () in
  match Cluster.await_leader c ~timeout:(Des.Time.sec 10) with
  | None -> Alcotest.fail "no leader elected within 10s"
  | Some l ->
      Alcotest.(check bool)
        "leader role" true
        (Raft.Types.is_leader (Raft.Server.role (Raft.Node.server l)))

let test_single_leader_per_term () =
  let c = make_cluster () in
  (* Across the whole run, at most one Role_change-to-leader per term.
     Starting the nodes only arms timers, so nothing is missed. *)
  let leaders_by_term = Hashtbl.create 16 in
  Des.Mtrace.subscribe (Cluster.trace c) (fun _ probe ->
      match probe with
      | Raft.Probe.Role_change { id; role = Raft.Types.Leader; term } ->
          (match Hashtbl.find_opt leaders_by_term term with
          | Some other when not (Netsim.Node_id.equal other id) ->
              Alcotest.failf "two leaders in term %d" term
          | Some _ | None -> ());
          Hashtbl.replace leaders_by_term term id
      | _ -> ());
  ignore (Cluster.await_leader c ~timeout:(Des.Time.sec 10));
  Cluster.run_for c (Des.Time.sec 30);
  Alcotest.(check bool) "a leader was observed" true
    (Hashtbl.length leaders_by_term > 0)

let test_failover () =
  let c = make_cluster () in
  ignore (Cluster.await_leader c ~timeout:(Des.Time.sec 10));
  let old = leader_id c in
  match Fault.fail_and_measure c () with
  | Error msg -> Alcotest.fail msg
  | Ok outcome ->
      Alcotest.(check bool)
        "new leader differs" false
        (Netsim.Node_id.equal outcome.Fault.new_leader old);
      Alcotest.(check bool)
        "detection positive" true
        (outcome.Fault.detection_ms > 0.);
      Alcotest.(check bool)
        "ots >= detection" true
        (outcome.Fault.ots_ms >= outcome.Fault.detection_ms)

let submit_and_commit c ~n =
  let committed = ref 0 in
  let submit i =
    let payload =
      Kvsm.Command.to_payload
        (Kvsm.Command.Put
           { key = Printf.sprintf "k%d" i; value = Printf.sprintf "v%d" i })
    in
    match
      Cluster.submit_target c ~payload ~client_id:1 ~seq:i
        ~on_result:(fun ~committed:ok -> if ok then incr committed)
    with
    | `Accepted -> ()
    | `Not_leader _ -> Alcotest.fail "leader refused a proposal"
  in
  for i = 1 to n do
    submit i;
    Cluster.run_for c (ms 20)
  done;
  Cluster.run_for c (Des.Time.sec 2);
  !committed

let test_replication_converges () =
  let c = make_cluster () in
  ignore (Cluster.await_leader c ~timeout:(Des.Time.sec 10));
  let committed = submit_and_commit c ~n:50 in
  Alcotest.(check int) "all committed" 50 committed;
  Alcotest.(check (result unit string)) "replicas converged" (Ok ())
    (Fault.verify c ~acked:[])

let test_replication_survives_failover () =
  let c = make_cluster () in
  ignore (Cluster.await_leader c ~timeout:(Des.Time.sec 10));
  let first = submit_and_commit c ~n:20 in
  Alcotest.(check int) "first batch committed" 20 first;
  (match Fault.fail_and_measure c () with
  | Error msg -> Alcotest.fail msg
  | Ok _ -> ());
  ignore (Cluster.await_leader c ~timeout:(Des.Time.sec 10));
  let c2 = ref 0 in
  for i = 100 to 119 do
    (match
       Cluster.submit_target c
         ~payload:
           (Kvsm.Command.to_payload
              (Kvsm.Command.Put { key = "x" ^ string_of_int i; value = "y" }))
         ~client_id:2 ~seq:i
         ~on_result:(fun ~committed -> if committed then incr c2)
     with
    | `Accepted -> ()
    | `Not_leader _ -> ());
    Cluster.run_for c (ms 20)
  done;
  Cluster.run_for c (Des.Time.sec 3);
  Alcotest.(check bool)
    (Printf.sprintf "second batch mostly committed (%d)" !c2)
    true (!c2 >= 18);
  (* All live replicas converge. *)
  let digests =
    List.filter_map
      (fun id ->
        if Raft.Node.is_paused (Cluster.node c id) then None
        else Some (Kvsm.Store.state_digest (Cluster.store c id)))
      (Cluster.node_ids c)
  in
  match digests with
  | d :: rest ->
      List.iter (fun d' -> Alcotest.(check string) "converged" d d') rest
  | [] -> Alcotest.fail "no live stores"

let test_dynatune_tunes_down () =
  let config = Raft.Config.dynatune () in
  let c =
    make_cluster ~config
      ~conditions:(lan_conditions ~rtt_ms:100. ~jitter:0.05 ())
      ()
  in
  ignore (Cluster.await_leader c ~timeout:(Des.Time.sec 10));
  (* Give the tuner time to warm up (min_list_size heartbeats). *)
  Cluster.run_for c (Des.Time.sec 30);
  let followers =
    List.filter
      (fun id -> not (Netsim.Node_id.equal id (leader_id c)))
      (Cluster.node_ids c)
  in
  List.iter
    (fun id ->
      let et = Monitor.election_timeout_ms c id in
      Alcotest.(check bool)
        (Printf.sprintf "follower %d tuned Et=%.1f < 400ms"
           (Netsim.Node_id.to_int id) et)
        true (et < 400.);
      Alcotest.(check bool)
        (Printf.sprintf "follower %d Et=%.1f > RTT" (Netsim.Node_id.to_int id)
           et)
        true (et > 100.))
    followers

let test_dynatune_faster_detection () =
  let run config =
    let c =
      make_cluster ~config
        ~conditions:(lan_conditions ~rtt_ms:100. ~jitter:0.05 ())
        ()
    in
    ignore (Cluster.await_leader c ~timeout:(Des.Time.sec 10));
    Cluster.run_for c (Des.Time.sec 30);
    match Fault.fail_and_measure c () with
    | Error msg -> Alcotest.fail msg
    | Ok o -> o.Fault.detection_ms
  in
  let raft = run (Raft.Config.static ()) in
  let dynatune = run (Raft.Config.dynatune ()) in
  Alcotest.(check bool)
    (Printf.sprintf "dynatune (%.0fms) detects faster than raft (%.0fms)"
       dynatune raft)
    true
    (dynatune < raft /. 2.)

let test_no_false_elections_under_loss () =
  let config = Raft.Config.dynatune () in
  let c =
    make_cluster ~config
      ~conditions:(lan_conditions ~rtt_ms:200. ~jitter:0.05 ~loss:0.10 ())
      ()
  in
  ignore (Cluster.await_leader c ~timeout:(Des.Time.sec 10));
  let engine = Cluster.engine c in
  Des.Engine.run_until engine (Des.Time.sec 20);
  let (), w =
    Monitor.observe c (fun () -> Des.Engine.run_until engine (Des.Time.sec 60))
  in
  Alcotest.(check (float 0.001)) "no OTS under 10% loss" 0. (Monitor.ots_ms w)

let test_extension_modes_stay_healthy () =
  (* Both Section IV-E extensions, together, must preserve liveness:
     election, replication, failover. *)
  let config =
    Raft.Config.with_extensions ~suppress_heartbeats_under_load:true
      ~consolidated_timer:true (Raft.Config.dynatune ())
  in
  let c = make_cluster ~config () in
  ignore (Cluster.await_leader c ~timeout:(Des.Time.sec 10));
  let committed = submit_and_commit c ~n:30 in
  Alcotest.(check int) "all committed under suppression" 30 committed;
  match Fault.fail_and_measure c () with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
      Alcotest.(check bool) "failover still detected quickly" true
        (o.Fault.detection_ms < 2500.)

let test_fix_k_mode_tunes_et_only () =
  let c =
    make_cluster
      ~config:(Raft.Config.fix_k ~k:10 ())
      ~conditions:(lan_conditions ~rtt_ms:200. ~jitter:0.02 ())
      ()
  in
  ignore (Cluster.await_leader c ~timeout:(Des.Time.sec 10));
  Cluster.run_for c (Des.Time.sec 30);
  let leader = leader_id c in
  let follower =
    List.find
      (fun id -> not (Netsim.Node_id.equal id leader))
      (Cluster.node_ids c)
  in
  (* Et tuned to ~RTT, but h pinned to Et/10 regardless of zero loss. *)
  let et = Monitor.election_timeout_ms c follower in
  Alcotest.(check bool) (Printf.sprintf "Et tuned (%.0f)" et) true
    (et > 200. && et < 300.);
  let h =
    match Monitor.leader_h_ms c ~follower with
    | Some h -> h
    | None -> Alcotest.fail "no heartbeat interval toward follower"
  in
  Alcotest.(check bool)
    (Printf.sprintf "h = Et/10 (%.1f vs %.1f)" h (et /. 10.))
    true
    (abs_float (h -. (et /. 10.)) < 3.);
  (* The follower's tuner reports the K and h it runs with. *)
  match Raft.Server.tuner (Raft.Node.server (Cluster.node c follower)) with
  | None -> Alcotest.fail "fix-k follower without a tuner"
  | Some tuner ->
      Alcotest.(check int) "K = 10" 10
        (Dynatune.Tuner.required_heartbeats tuner);
      Alcotest.(check int) "h = max(min_h, Et/10)"
        (Des.Time.max_span Dynatune.Config.min_heartbeat_interval
           (Dynatune.Tuner.election_timeout tuner / 10))
        (Dynatune.Tuner.heartbeat_interval tuner)

let test_fig6b_mechanism_end_to_end () =
  (* The radical RTT spike: Dynatune false-detects but aborts at the
     pre-vote, so no term change and no leadership change. *)
  let conditions =
    Netsim.Conditions.piecewise
      [
        (Des.Time.zero, Netsim.Conditions.profile ~rtt_ms:50. ~jitter:0.02 ());
        (Des.Time.sec 60, Netsim.Conditions.profile ~rtt_ms:500. ~jitter:0.02 ());
        (Des.Time.sec 90, Netsim.Conditions.profile ~rtt_ms:50. ~jitter:0.02 ());
      ]
  in
  let c = make_cluster ~config:(Raft.Config.dynatune ()) ~conditions () in
  ignore (Cluster.await_leader c ~timeout:(Des.Time.sec 10));
  Cluster.run_for c (Des.Time.sec 50);
  let leader_before = leader_id c in
  let term_before = Raft.Server.term (Raft.Node.server (Cluster.node c leader_before)) in
  let (), w = Monitor.observe c (fun () -> Cluster.run_for c (Des.Time.sec 70)) in
  Alcotest.(check bool) "false detections aborted" true
    (w.Monitor.pre_vote_aborts > 0);
  Alcotest.(check int) "leadership undisturbed"
    (Netsim.Node_id.to_int leader_before)
    (Netsim.Node_id.to_int (leader_id c));
  Alcotest.(check int) "term undisturbed" term_before
    (Raft.Server.term (Raft.Node.server (Cluster.node c leader_before)))

let tests =
  [
    Alcotest.test_case "elects a leader" `Quick test_elects_leader;
    Alcotest.test_case "single leader per term" `Quick
      test_single_leader_per_term;
    Alcotest.test_case "failover elects a new leader" `Quick test_failover;
    Alcotest.test_case "replication converges" `Quick
      test_replication_converges;
    Alcotest.test_case "replication survives failover" `Quick
      test_replication_survives_failover;
    Alcotest.test_case "dynatune tunes Et down" `Quick test_dynatune_tunes_down;
    Alcotest.test_case "dynatune detects faster than raft" `Quick
      test_dynatune_faster_detection;
    Alcotest.test_case "no false elections under loss" `Quick
      test_no_false_elections_under_loss;
    Alcotest.test_case "extension modes stay healthy" `Quick
      test_extension_modes_stay_healthy;
    Alcotest.test_case "fix-k tunes Et only" `Quick test_fix_k_mode_tunes_et_only;
    Alcotest.test_case "fig6b mechanism end-to-end" `Slow
      test_fig6b_mechanism_end_to_end;
  ]
