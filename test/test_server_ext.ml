(* Unit tests for CheckQuorum and the Section IV-E extensions
   (heartbeat suppression, consolidated timer). *)

module Time = Des.Time
module Node_id = Netsim.Node_id
module Server = Raft.Server
module Rpc = Raft.Rpc
module Types = Raft.Types
module Config = Raft.Config

let nid = Node_id.of_int

let make ?(n = 5) ?(config = Config.static ()) ?(seed = 21L) ~self () =
  let ids = Node_id.range n in
  let peers = List.filter (fun p -> Node_id.to_int p <> self) ids in
  Server.create ~instrument:false ~congestion:(fun _ -> 0) ~id:(nid self)
    ~peers ~config
    ~rng:(Stats.Rng.create ~seed ())
    ()

let recv server ~from msg ~now =
  Server.handle server ~now (Server.Message { from = nid from; msg })

let elect server ~now =
  ignore (Server.handle server ~now Server.Election_timeout_fired);
  let t = Server.term server in
  ignore
    (recv server ~from:1
       (Rpc.Vote_response { term = t + 1; granted = true; pre_vote = true })
       ~now);
  ignore
    (recv server ~from:2
       (Rpc.Vote_response { term = t + 1; granted = true; pre_vote = true })
       ~now);
  let t = Server.term server in
  ignore
    (recv server ~from:1
       (Rpc.Vote_response { term = t; granted = true; pre_vote = false })
       ~now);
  recv server ~from:2
    (Rpc.Vote_response { term = t; granted = true; pre_vote = false })
    ~now

let sends actions =
  List.filter_map
    (function Server.Send { dst; msg; _ } -> Some (dst, msg) | _ -> None)
    actions

let heartbeats actions =
  sends actions
  |> List.filter (fun (_, m) ->
         match m with Rpc.Heartbeat _ -> true | _ -> false)

(* {2 CheckQuorum} *)

let test_checkquorum_armed_on_election () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  let acts = elect s ~now:Time.zero in
  Alcotest.(check bool) "quorum check timer armed" true
    (List.exists
       (function Server.Arm_quorum_check _ -> true | _ -> false)
       acts)

let test_checkquorum_steps_down_without_acks () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  ignore (elect s ~now:Time.zero);
  let acts = Server.handle s ~now:(Time.sec 1) Server.Quorum_check_due in
  Alcotest.(check bool) "stepped down" true
    (Server.role s = Types.Follower);
  Alcotest.(check bool) "election timer re-armed" true
    (List.exists
       (function Server.Arm_election _ -> true | _ -> false)
       acts)

let test_checkquorum_survives_with_acks () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  ignore (elect s ~now:Time.zero);
  (* Two followers answer a heartbeat (leader + 2 = quorum of 5). *)
  List.iter
    (fun from ->
      ignore
        (recv s ~from
           (Rpc.Heartbeat_response
              {
                term = Server.term s;
                hb_id = 0;
                echo_sent_at = Time.zero;
                tuned_h = None;
                hr_gen = 0;
              })
           ~now:(Time.ms 500)))
    [ 1; 2 ];
  let acts = Server.handle s ~now:(Time.sec 1) Server.Quorum_check_due in
  Alcotest.(check bool) "still leader" true (Server.role s = Types.Leader);
  Alcotest.(check bool) "check re-armed" true
    (List.exists
       (function Server.Arm_quorum_check _ -> true | _ -> false)
       acts)

let test_checkquorum_window_resets () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  ignore (elect s ~now:Time.zero);
  (* Acks before the first check do not carry over to the second. *)
  List.iter
    (fun from ->
      ignore
        (recv s ~from
           (Rpc.Heartbeat_response
              {
                term = Server.term s;
                hb_id = 0;
                echo_sent_at = Time.zero;
                tuned_h = None;
                hr_gen = 0;
              })
           ~now:(Time.ms 100)))
    [ 1; 2; 3; 4 ];
  ignore (Server.handle s ~now:(Time.sec 1) Server.Quorum_check_due);
  Alcotest.(check bool) "alive after first check" true
    (Server.role s = Types.Leader);
  ignore (Server.handle s ~now:(Time.sec 2) Server.Quorum_check_due);
  Alcotest.(check bool) "second silent window abdicates" true
    (Server.role s = Types.Follower)

let test_lease_expires_after_base_timeout () =
  (* A voter grants once its last leader contact is older than the base
     election timeout, even if its own randomized timer has not fired. *)
  let s = make ~self:0 () in
  ignore (Server.start s);
  ignore
    (recv s ~from:3
       (Rpc.Heartbeat
          {
            term = 1;
            commit = 0;
            hb_id = 0;
            sent_at = Time.zero;
            measured_rtt = None;
            hb_gen = 0;
          })
       ~now:Time.zero);
  (* 1.2s later (> Et = 1s), a pre-vote must be granted. *)
  let acts =
    recv s ~from:1
      (Rpc.Vote_request
         { term = 2; last_log_index = 0; last_log_term = 0; pre_vote = true; force = false })
      ~now:(Time.of_ms_f 1200.)
  in
  match sends acts with
  | [ (_, Rpc.Vote_response { granted; _ }) ] ->
      Alcotest.(check bool) "granted after lease expiry" true granted
  | _ -> Alcotest.fail "expected one response"

(* {2 Heartbeat suppression} *)

let suppress_config () =
  Config.with_extensions ~suppress_heartbeats_under_load:true
    ~consolidated_timer:false (Config.dynatune ())

let test_suppression_skips_heartbeat_after_append () =
  let s = make ~config:(suppress_config ()) ~self:0 () in
  ignore (Server.start s);
  ignore (elect s ~now:Time.zero);
  (* Propose + flush puts an append in flight toward every follower. *)
  ignore
    (Server.handle s ~now:(Time.ms 10)
       (Server.Propose { payload = "x"; client_id = 1; seq = 1 }));
  ignore (Server.handle s ~now:(Time.ms 11) Server.Flush_due);
  (* A heartbeat due right after must be suppressed (but re-armed). *)
  let acts = Server.handle s ~now:(Time.ms 20) (Server.Heartbeat_due (nid 1)) in
  Alcotest.(check int) "no heartbeat sent" 0 (List.length (heartbeats acts));
  Alcotest.(check bool) "timer re-armed" true
    (List.exists
       (function Server.Arm_heartbeat _ -> true | _ -> false)
       acts)

let test_suppression_expires () =
  let s = make ~config:(suppress_config ()) ~self:0 () in
  ignore (Server.start s);
  ignore (elect s ~now:Time.zero);
  ignore
    (Server.handle s ~now:(Time.ms 10)
       (Server.Propose { payload = "x"; client_id = 1; seq = 1 }));
  ignore (Server.handle s ~now:(Time.ms 11) Server.Flush_due);
  (* Far beyond the interval, the heartbeat flows again. *)
  let acts =
    Server.handle s ~now:(Time.sec 10) (Server.Heartbeat_due (nid 1))
  in
  Alcotest.(check int) "heartbeat sent after quiet period" 1
    (List.length (heartbeats acts))

let test_no_suppression_by_default () =
  let s = make ~config:(Config.dynatune ()) ~self:0 () in
  ignore (Server.start s);
  ignore (elect s ~now:Time.zero);
  ignore
    (Server.handle s ~now:(Time.ms 10)
       (Server.Propose { payload = "x"; client_id = 1; seq = 1 }));
  ignore (Server.handle s ~now:(Time.ms 11) Server.Flush_due);
  let acts = Server.handle s ~now:(Time.ms 20) (Server.Heartbeat_due (nid 1)) in
  Alcotest.(check int) "heartbeat still sent" 1
    (List.length (heartbeats acts))

(* {2 Consolidated timer} *)

let consolidated_config () =
  Config.with_extensions ~suppress_heartbeats_under_load:false
    ~consolidated_timer:true (Config.dynatune ())

let test_consolidated_uses_broadcast () =
  let s = make ~config:(consolidated_config ()) ~self:0 () in
  ignore (Server.start s);
  let acts = elect s ~now:Time.zero in
  Alcotest.(check bool) "broadcast timer armed" true
    (List.exists (function Server.Arm_broadcast _ -> true | _ -> false) acts);
  Alcotest.(check bool) "no per-peer timers" false
    (List.exists (function Server.Arm_heartbeat _ -> true | _ -> false) acts)

let test_consolidated_broadcast_sends_all () =
  let s = make ~config:(consolidated_config ()) ~self:0 () in
  ignore (Server.start s);
  ignore (elect s ~now:Time.zero);
  let acts = Server.handle s ~now:(Time.ms 100) Server.Broadcast_due in
  Alcotest.(check int) "heartbeats to every follower" 4
    (List.length (heartbeats acts))

let test_consolidated_interval_is_minimum () =
  let s = make ~config:(consolidated_config ()) ~self:0 () in
  ignore (Server.start s);
  ignore (elect s ~now:Time.zero);
  (* Followers piggyback different tuned h values. *)
  List.iter
    (fun (from, h) ->
      ignore
        (recv s ~from
           (Rpc.Heartbeat_response
              {
                term = Server.term s;
                hb_id = 0;
                echo_sent_at = Time.zero;
                tuned_h = Some h;
                hr_gen = 0;
              })
           ~now:(Time.ms 50)))
    [ (1, Time.ms 80); (2, Time.ms 30); (3, Time.ms 120) ];
  let acts = Server.handle s ~now:(Time.ms 100) Server.Broadcast_due in
  let rearm =
    List.filter_map
      (function Server.Arm_broadcast a -> Some a | _ -> None)
      acts
  in
  Alcotest.(check (list int)) "re-armed at the minimum tuned h"
    [ Time.ms 30 ] rearm

(* {2 Snapshot / read / transfer message edge cases} *)

let test_stale_install_snapshot_rejected () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  (* Establish term 5 first. *)
  ignore
    (recv s ~from:3
       (Rpc.Heartbeat
          {
            term = 5;
            commit = 0;
            hb_id = 0;
            sent_at = Time.zero;
            measured_rtt = None;
            hb_gen = 0;
          })
       ~now:Time.zero);
  let acts =
    recv s ~from:1
      (Rpc.Install_snapshot
         {
           term = 2;
           last_index = 50;
           last_term = 2;
           voters = Array.of_list (Node_id.range 5);
           learners = [||];
           data = "stale";
         })
      ~now:(Time.ms 1)
  in
  (match sends acts with
  | [ (_, Rpc.Install_snapshot_response { term; _ }) ] ->
      Alcotest.(check int) "carries our higher term" 5 term
  | _ -> Alcotest.fail "expected one response");
  Alcotest.(check int) "log untouched" 0
    (Raft.Log.snapshot_index (Server.log s))

let test_install_snapshot_applies () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  let acts =
    recv s ~from:3
      (Rpc.Install_snapshot
         {
           term = 4;
           last_index = 30;
           last_term = 4;
           voters = Array.of_list (Node_id.range 5);
           learners = [||];
           data = "payload";
         })
      ~now:Time.zero
  in
  Alcotest.(check int) "boundary adopted" 30
    (Raft.Log.snapshot_index (Server.log s));
  Alcotest.(check int) "commit jumps to the snapshot" 30
    (Server.commit_index s);
  Alcotest.(check bool) "SM install action emitted" true
    (List.exists
       (function
         | Server.Install_sm { data = "payload"; last_index = 30 } -> true
         | _ -> false)
       acts);
  match
    List.filter_map
      (fun a ->
        match a with
        | Server.Send { msg = Rpc.Install_snapshot_response r; _ } -> Some r
        | _ -> None)
      acts
  with
  | [ r ] -> Alcotest.(check int) "acks the snapshot point" 30 r.Rpc.match_index
  | _ -> Alcotest.fail "expected one snapshot response"

let test_read_rejected_on_follower () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  let acts =
    Server.handle s ~now:Time.zero (Server.Read { client_id = 1; seq = 9 })
  in
  Alcotest.(check bool) "rejected" true
    (List.exists
       (function
         | Server.Reject_proposal { client_id = 1; seq = 9 } -> true
         | _ -> false)
       acts)

let test_read_confirmation_requires_fresh_echo () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  ignore (elect s ~now:Time.zero);
  ignore
    (Server.handle s ~now:(Time.ms 100) (Server.Read { client_id = 1; seq = 1 }));
  (* Echoes of heartbeats sent BEFORE the read must not confirm it. *)
  let stale_echo from =
    recv s ~from
      (Rpc.Heartbeat_response
         {
           term = Server.term s;
           hb_id = 0;
           echo_sent_at = Time.ms 50;
           tuned_h = None;
           hr_gen = 0;
         })
      ~now:(Time.ms 150)
  in
  let served acts =
    List.exists
      (function Server.Serve_read _ -> true | _ -> false)
      acts
  in
  Alcotest.(check bool) "stale echo 1 not enough" false (served (stale_echo 1));
  Alcotest.(check bool) "stale echo 2 not enough" false (served (stale_echo 2));
  (* Fresh echoes (sent at/after registration) confirm. *)
  let fresh_echo from =
    recv s ~from
      (Rpc.Heartbeat_response
         {
           term = Server.term s;
           hb_id = 1;
           echo_sent_at = Time.ms 100;
           tuned_h = None;
           hr_gen = 0;
         })
      ~now:(Time.ms 200)
  in
  Alcotest.(check bool) "one fresh echo not quorum" false
    (served (fresh_echo 1));
  Alcotest.(check bool) "second fresh echo serves" true (served (fresh_echo 2))

let test_timeout_now_triggers_forced_election () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  ignore
    (recv s ~from:3
       (Rpc.Heartbeat
          {
            term = 2;
            commit = 0;
            hb_id = 0;
            sent_at = Time.zero;
            measured_rtt = None;
            hb_gen = 0;
          })
       ~now:Time.zero);
  let acts = recv s ~from:3 (Rpc.Timeout_now { term = 2 }) ~now:(Time.ms 1) in
  Alcotest.(check bool) "became candidate immediately" true
    (Server.role s = Types.Candidate);
  Alcotest.(check int) "term bumped" 3 (Server.term s);
  let forced =
    List.exists
      (fun (_, m) ->
        match m with
        | Rpc.Vote_request { force = true; pre_vote = false; _ } -> true
        | _ -> false)
      (sends acts)
  in
  Alcotest.(check bool) "votes carry the force flag" true forced

let test_forced_vote_bypasses_lease () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  ignore
    (recv s ~from:3
       (Rpc.Heartbeat
          {
            term = 1;
            commit = 0;
            hb_id = 0;
            sent_at = Time.zero;
            measured_rtt = None;
            hb_gen = 0;
          })
       ~now:Time.zero);
  (* Within the lease, a normal campaign is ignored but a forced one is
     granted. *)
  let acts =
    recv s ~from:1
      (Rpc.Vote_request
         {
           term = 2;
           last_log_index = 0;
           last_log_term = 0;
           pre_vote = false;
           force = true;
         })
      ~now:(Time.ms 5)
  in
  match sends acts with
  | [ (_, Rpc.Vote_response { granted; _ }) ] ->
      Alcotest.(check bool) "forced vote granted under lease" true granted
  | _ -> Alcotest.fail "expected one response"

let test_leader_ignores_timeout_now () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  ignore (elect s ~now:Time.zero);
  let term = Server.term s in
  ignore (recv s ~from:1 (Rpc.Timeout_now { term }) ~now:(Time.ms 1));
  Alcotest.(check bool) "leader unmoved" true (Server.role s = Types.Leader);
  Alcotest.(check int) "term unchanged" term (Server.term s)

let tests =
  [
    Alcotest.test_case "checkquorum: armed on election" `Quick
      test_checkquorum_armed_on_election;
    Alcotest.test_case "checkquorum: abdicates without acks" `Quick
      test_checkquorum_steps_down_without_acks;
    Alcotest.test_case "checkquorum: survives with acks" `Quick
      test_checkquorum_survives_with_acks;
    Alcotest.test_case "checkquorum: window resets" `Quick
      test_checkquorum_window_resets;
    Alcotest.test_case "lease: expires after base timeout" `Quick
      test_lease_expires_after_base_timeout;
    Alcotest.test_case "suppression: skips after append" `Quick
      test_suppression_skips_heartbeat_after_append;
    Alcotest.test_case "suppression: expires" `Quick test_suppression_expires;
    Alcotest.test_case "suppression: off by default" `Quick
      test_no_suppression_by_default;
    Alcotest.test_case "consolidated: broadcast timer" `Quick
      test_consolidated_uses_broadcast;
    Alcotest.test_case "consolidated: sends to all" `Quick
      test_consolidated_broadcast_sends_all;
    Alcotest.test_case "consolidated: minimum interval" `Quick
      test_consolidated_interval_is_minimum;
    Alcotest.test_case "snapshot: stale rejected" `Quick
      test_stale_install_snapshot_rejected;
    Alcotest.test_case "snapshot: applies" `Quick test_install_snapshot_applies;
    Alcotest.test_case "read: rejected on follower" `Quick
      test_read_rejected_on_follower;
    Alcotest.test_case "read: needs fresh quorum echoes" `Quick
      test_read_confirmation_requires_fresh_echo;
    Alcotest.test_case "transfer: TimeoutNow forces election" `Quick
      test_timeout_now_triggers_forced_election;
    Alcotest.test_case "transfer: forced vote bypasses lease" `Quick
      test_forced_vote_bypasses_lease;
    Alcotest.test_case "transfer: leader ignores TimeoutNow" `Quick
      test_leader_ignores_timeout_now;
  ]
