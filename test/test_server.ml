(* Unit tests for the Raft protocol state machine, driven without any
   network: events in, actions out. *)

module Time = Des.Time
module Node_id = Netsim.Node_id
module Server = Raft.Server
module Rpc = Raft.Rpc
module Types = Raft.Types
module Probe = Raft.Probe
module Config = Raft.Config

let nid = Node_id.of_int

let make ?(n = 5) ?(config = Config.static ()) ?(seed = 11L)
    ?(instrument = false) ?(congestion = fun _ -> 0) ~self () =
  let ids = Node_id.range n in
  let peers = List.filter (fun p -> Node_id.to_int p <> self) ids in
  Server.create ~instrument ~congestion ~id:(nid self) ~peers ~config
    ~rng:(Stats.Rng.create ~seed ())
    ()

let sends actions =
  List.filter_map
    (function Server.Send { dst; msg; _ } -> Some (dst, msg) | _ -> None)
    actions

let armed_election actions =
  List.filter_map
    (function Server.Arm_election s -> Some s | _ -> None)
    actions

let commits actions =
  List.concat_map
    (function Server.Commit es -> Array.to_list es | _ -> [])
    actions

let heartbeat ?(id = 0) ?(sent_at = Time.zero) ?rtt ~term ~commit () =
  Rpc.Heartbeat
    { term; commit; hb_id = id; sent_at; measured_rtt = rtt; hb_gen = 0 }

let recv server ~from msg ~now =
  Server.handle server ~now (Server.Message { from = nid from; msg })

(* Drive a server to leadership: timeout -> pre-votes granted -> votes
   granted. Returns the actions of the final step. *)
let elect server ~now =
  let acts = Server.handle server ~now Server.Election_timeout_fired in
  let t = Server.term server in
  ignore acts;
  let acts =
    recv server ~from:1
      (Rpc.Vote_response { term = t + 1; granted = true; pre_vote = true })
      ~now
  in
  ignore acts;
  let acts =
    recv server ~from:2
      (Rpc.Vote_response { term = t + 1; granted = true; pre_vote = true })
      ~now
  in
  ignore acts;
  let t = Server.term server in
  let acts =
    recv server ~from:1
      (Rpc.Vote_response { term = t; granted = true; pre_vote = false })
      ~now
  in
  ignore acts;
  recv server ~from:2
    (Rpc.Vote_response { term = t; granted = true; pre_vote = false })
    ~now

let test_start_arms_election () =
  let s = make ~self:0 () in
  let acts = Server.start s in
  match armed_election acts with
  | [ span ] ->
      let et = Time.ms 1000 in
      Alcotest.(check bool) "randomized in [Et, 2Et)" true
        (span >= et && span < 2 * et)
  | _ -> Alcotest.fail "start must arm the election timer once"

let test_randomization_spread () =
  (* Across many draws the randomizedTimeout must cover the [Et, 2Et)
     range, not collapse to a point. *)
  let s = make ~self:0 () in
  let lo = ref max_int and hi = ref 0 in
  for _ = 1 to 200 do
    let acts = Server.handle s ~now:Time.zero Server.Election_timeout_fired in
    List.iter
      (fun span ->
        lo := Stdlib.min !lo span;
        hi := Stdlib.max !hi span)
      (armed_election acts)
  done;
  Alcotest.(check bool) "spread covers most of the range" true
    (!hi - !lo > Time.ms 700)

let test_timeout_starts_prevote () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  let acts = Server.handle s ~now:Time.zero Server.Election_timeout_fired in
  Alcotest.(check bool) "becomes pre-candidate" true
    (Server.role s = Types.Pre_candidate);
  Alcotest.(check int) "term not bumped by pre-vote" 0 (Server.term s);
  let prevotes =
    sends acts
    |> List.filter (fun (_, m) ->
           match m with
           | Rpc.Vote_request { pre_vote = true; term = 1; _ } -> true
           | _ -> false)
  in
  Alcotest.(check int) "pre-vote broadcast to all peers" 4
    (List.length prevotes)

let test_no_prevote_when_disabled () =
  let config = { (Config.static ()) with Config.pre_vote = false } in
  let s = make ~config ~self:0 () in
  ignore (Server.start s);
  ignore (Server.handle s ~now:Time.zero Server.Election_timeout_fired);
  Alcotest.(check bool) "directly candidate" true
    (Server.role s = Types.Candidate);
  Alcotest.(check int) "term bumped" 1 (Server.term s)

let test_prevote_quorum_starts_election () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  ignore (Server.handle s ~now:Time.zero Server.Election_timeout_fired);
  ignore
    (recv s ~from:1
       (Rpc.Vote_response { term = 1; granted = true; pre_vote = true })
       ~now:Time.zero);
  Alcotest.(check bool) "still pre-candidate at 2/5" true
    (Server.role s = Types.Pre_candidate);
  ignore
    (recv s ~from:2
       (Rpc.Vote_response { term = 1; granted = true; pre_vote = true })
       ~now:Time.zero);
  Alcotest.(check bool) "candidate at quorum" true
    (Server.role s = Types.Candidate);
  Alcotest.(check int) "term bumped exactly once" 1 (Server.term s)

let test_election_win () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  let acts = elect s ~now:Time.zero in
  Alcotest.(check bool) "leader" true (Server.role s = Types.Leader);
  Alcotest.(check (option int)) "knows itself as leader" (Some 0)
    (Option.map Node_id.to_int (Server.leader s));
  (* The no-op barrier entry is appended. *)
  Alcotest.(check int) "no-op appended" 1 (Raft.Log.last_index (Server.log s));
  (* Appends broadcast on taking office. *)
  let appends =
    sends acts
    |> List.filter (fun (_, m) ->
           match m with Rpc.Append_request _ -> true | _ -> false)
  in
  Alcotest.(check int) "append broadcast" 4 (List.length appends)

let test_duplicate_votes_dont_count () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  ignore (Server.handle s ~now:Time.zero Server.Election_timeout_fired);
  (* The same voter granting twice must not reach pre-vote quorum. *)
  for _ = 1 to 5 do
    ignore
      (recv s ~from:1
         (Rpc.Vote_response { term = 1; granted = true; pre_vote = true })
         ~now:Time.zero)
  done;
  Alcotest.(check bool) "still pre-candidate" true
    (Server.role s = Types.Pre_candidate)

let test_vote_granted_once_per_term () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  (* Server 1 asks first and gets the vote... *)
  let acts =
    recv s ~from:1
      (Rpc.Vote_request
         { term = 1; last_log_index = 0; last_log_term = 0; pre_vote = false; force = false })
      ~now:Time.zero
  in
  (match sends acts with
  | [ (_, Rpc.Vote_response { granted; _ }) ] ->
      Alcotest.(check bool) "first request granted" true granted
  | _ -> Alcotest.fail "expected one response");
  (* ...server 2 in the same term is refused. *)
  let acts =
    recv s ~from:2
      (Rpc.Vote_request
         { term = 1; last_log_index = 0; last_log_term = 0; pre_vote = false; force = false })
      ~now:Time.zero
  in
  match sends acts with
  | [ (_, Rpc.Vote_response { granted; _ }) ] ->
      Alcotest.(check bool) "second request refused" false granted
  | _ -> Alcotest.fail "expected one response"

let test_vote_rejected_for_stale_log () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  (* Give the server a log entry at term 2 via an append. *)
  ignore
    (recv s ~from:3
       (Rpc.Append_request
          {
            term = 2;
            prev_index = 0;
            prev_term = 0;
            entries = [| { Raft.Log.term = 2; index = 1; command = Raft.Log.Noop } |];
            commit = 0;
            ar_gen = 0;
          })
       ~now:Time.zero);
  (* Candidate with an older log must be refused even in a newer term.
     (Clear the lease first by timing out.) *)
  ignore (Server.handle s ~now:Time.zero Server.Election_timeout_fired);
  let acts =
    recv s ~from:1
      (Rpc.Vote_request
         { term = 5; last_log_index = 0; last_log_term = 0; pre_vote = false; force = false })
      ~now:Time.zero
  in
  match
    List.filter_map
      (fun (_, m) ->
        match m with
        | Rpc.Vote_response { granted; pre_vote = false; _ } -> Some granted
        | _ -> None)
      (sends acts)
  with
  | [ granted ] -> Alcotest.(check bool) "stale log refused" false granted
  | _ -> Alcotest.fail "expected one vote response"

let test_leader_stickiness_rejects_votes () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  (* Heartbeat installs a leader (and the lease). *)
  ignore
    (recv s ~from:3
       (heartbeat ~term:1 ~commit:0 ())
       ~now:Time.zero);
  let acts =
    recv s ~from:1
      (Rpc.Vote_request
         { term = 2; last_log_index = 5; last_log_term = 1; pre_vote = true; force = false })
      ~now:(Time.ms 1)
  in
  (match sends acts with
  | [ (_, Rpc.Vote_response { granted; _ }) ] ->
      Alcotest.(check bool) "pre-vote refused under lease" false granted
  | _ -> Alcotest.fail "expected one response");
  Alcotest.(check int) "term not disturbed" 1 (Server.term s);
  (* Real vote request is also ignored under the lease. *)
  let acts =
    recv s ~from:1
      (Rpc.Vote_request
         { term = 2; last_log_index = 5; last_log_term = 1; pre_vote = false; force = false })
      ~now:(Time.ms 2)
  in
  (match sends acts with
  | [ (_, Rpc.Vote_response { granted; _ }) ] ->
      Alcotest.(check bool) "vote refused under lease" false granted
  | _ -> Alcotest.fail "expected one response");
  Alcotest.(check int) "term still not adopted" 1 (Server.term s)

let test_heartbeat_rearms_election_timer () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  let acts =
    recv s ~from:3
      (heartbeat ~term:1 ~commit:0 ())
      ~now:Time.zero
  in
  Alcotest.(check bool) "timer re-armed" true (armed_election acts <> []);
  Alcotest.(check (option int)) "leader learned" (Some 3)
    (Option.map Node_id.to_int (Server.leader s))

let test_heartbeat_response_echoes_timestamp () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  let acts =
    recv s ~from:3
      (heartbeat ~id:7 ~sent_at:(Time.ms 123) ~term:1 ~commit:0 ())
      ~now:(Time.ms 150)
  in
  match
    List.filter_map
      (fun (_, m) ->
        match m with
        | Rpc.Heartbeat_response { hb_id; echo_sent_at; _ } ->
            Some (hb_id, echo_sent_at)
        | _ -> None)
      (sends acts)
  with
  | [ (hb_id, echo_sent_at) ] ->
      Alcotest.(check int) "id echoed" 7 hb_id;
      Alcotest.(check int) "timestamp echoed verbatim" (Time.ms 123)
        echo_sent_at
  | _ -> Alcotest.fail "expected one heartbeat response"

let test_pre_candidate_aborts_on_heartbeat () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  ignore (Server.handle s ~now:Time.zero Server.Election_timeout_fired);
  Alcotest.(check bool) "pre-candidate" true
    (Server.role s = Types.Pre_candidate);
  let acts =
    recv s ~from:3
      (heartbeat ~term:0 ~commit:0 ())
      ~now:(Time.ms 1)
  in
  Alcotest.(check bool) "reverted to follower" true
    (Server.role s = Types.Follower);
  let aborted =
    List.exists
      (function
        | Server.Probe (Probe.Pre_vote_aborted _) -> true | _ -> false)
      acts
  in
  Alcotest.(check bool) "abort probe emitted" true aborted

let test_step_down_on_higher_term_response () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  ignore (elect s ~now:Time.zero);
  Alcotest.(check bool) "leader first" true (Server.role s = Types.Leader);
  ignore
    (recv s ~from:1
       (Rpc.Heartbeat_response
          {
            term = 99;
            hb_id = 0;
            echo_sent_at = Time.zero;
            tuned_h = None;
            hr_gen = 0;
          })
       ~now:(Time.ms 1));
  Alcotest.(check bool) "stepped down" true (Server.role s = Types.Follower);
  Alcotest.(check int) "adopted term" 99 (Server.term s)

let test_leader_replicates_and_commits () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  ignore (elect s ~now:Time.zero);
  (* Followers ack the no-op. *)
  let ack from =
    recv s ~from
      (Rpc.Append_response
         {
                term = Server.term s;
                success = true;
                match_index = 1;
                conflict_hint = 0;
                req_prev = 0;
                ap_gen = 0;
              })
      ~now:(Time.ms 1)
  in
  let acts1 = ack 1 in
  Alcotest.(check int) "no commit on first ack (leader+1 < quorum)" 0
    (List.length (commits acts1));
  let acts2 = ack 2 in
  (match commits acts2 with
  | [ e ] -> Alcotest.(check int) "no-op committed at quorum" 1 e.Raft.Log.index
  | _ -> Alcotest.fail "expected the no-op to commit");
  Alcotest.(check int) "commit index" 1 (Server.commit_index s)

let test_leader_propose_and_flush () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  ignore (elect s ~now:Time.zero);
  (* Catch followers up on the no-op first. *)
  List.iter
    (fun from ->
      ignore
        (recv s ~from
           (Rpc.Append_response
              {
                term = Server.term s;
                success = true;
                match_index = 1;
                conflict_hint = 0;
                req_prev = 0;
                ap_gen = 0;
              })
           ~now:(Time.ms 1)))
    [ 1; 2; 3; 4 ];
  let acts =
    Server.handle s ~now:(Time.ms 2)
      (Server.Propose { payload = "p"; client_id = 9; seq = 1 })
  in
  Alcotest.(check bool) "flush requested" true
    (List.exists (function Server.Request_flush -> true | _ -> false) acts);
  let acts = Server.handle s ~now:(Time.ms 3) Server.Flush_due in
  let appends =
    sends acts
    |> List.filter_map (fun (_, m) ->
           match m with
           | Rpc.Append_request { entries; _ } -> Some (Array.length entries)
           | _ -> None)
  in
  Alcotest.(check (list int)) "entry shipped to all followers" [ 1; 1; 1; 1 ]
    appends

let test_follower_rejects_stale_append () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  ignore
    (recv s ~from:3
       (heartbeat ~term:5 ~commit:0 ())
       ~now:Time.zero);
  let acts =
    recv s ~from:1
      (Rpc.Append_request
         {
           term = 2;
           prev_index = 0;
           prev_term = 0;
           entries = [||];
           commit = 0;
           ar_gen = 0;
         })
      ~now:(Time.ms 1)
  in
  match sends acts with
  | [ (_, Rpc.Append_response { success; term; _ }) ] ->
      Alcotest.(check bool) "refused" false success;
      Alcotest.(check int) "carries current term" 5 term
  | _ -> Alcotest.fail "expected one append response"

let test_follower_commit_via_heartbeat () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  ignore
    (recv s ~from:3
       (Rpc.Append_request
          {
            term = 1;
            prev_index = 0;
            prev_term = 0;
            entries = [| { Raft.Log.term = 1; index = 1; command = Raft.Log.Noop } |];
            commit = 0;
            ar_gen = 0;
          })
       ~now:Time.zero);
  Alcotest.(check int) "not committed yet" 0 (Server.commit_index s);
  let acts =
    recv s ~from:3
      (heartbeat ~id:1 ~term:1 ~commit:1 ())
      ~now:(Time.ms 10)
  in
  Alcotest.(check int) "committed via heartbeat" 1 (Server.commit_index s);
  Alcotest.(check int) "commit action carries the entry" 1
    (List.length (commits acts))

let test_conflict_backoff () =
  let s = make ~self:0 () in
  ignore (Server.start s);
  ignore (elect s ~now:Time.zero);
  let term = Server.term s in
  (* Follower 1 reports a conflict; leader must retry from the hint. *)
  let acts =
    recv s ~from:1
      (Rpc.Append_response
         {
           term;
           success = false;
           match_index = 0;
           conflict_hint = 1;
           req_prev = 0;
           ap_gen = 0;
         })
      ~now:(Time.ms 1)
  in
  let retries =
    sends acts
    |> List.filter_map (fun (dst, m) ->
           match m with
           | Rpc.Append_request { prev_index; _ } when Node_id.to_int dst = 1 ->
               Some prev_index
           | _ -> None)
  in
  Alcotest.(check (list int)) "retries from hint - 1" [ 0 ] retries

let dynatune_config () = Config.dynatune ()

let test_dynatune_follower_piggybacks_h () =
  let cfg =
    Config.dynatune
      ~cfg:{ Dynatune.Config.default with Dynatune.Config.min_list_size = 2 }
      ()
  in
  let s = make ~config:cfg ~self:0 () in
  ignore (Server.start s);
  let hb i rtt now =
    recv s ~from:3 (heartbeat ~id:i ~sent_at:now ?rtt ~term:1 ~commit:0 ()) ~now
  in
  (* While warming, no h is piggybacked. *)
  let acts = hb 0 None Time.zero in
  (match
     List.filter_map
       (fun (_, m) ->
         match m with
         | Rpc.Heartbeat_response { tuned_h; _ } -> Some tuned_h
         | _ -> None)
       (sends acts)
   with
  | [ None ] -> ()
  | _ -> Alcotest.fail "no h expected while warming");
  (* Two RTT samples warm the tuner (min_list_size = 2). *)
  ignore (hb 1 (Some (Time.ms 50)) (Time.ms 100));
  let acts = hb 2 (Some (Time.ms 50)) (Time.ms 200) in
  match
    List.filter_map
      (fun (_, m) ->
        match m with
        | Rpc.Heartbeat_response { tuned_h; _ } -> Some tuned_h
        | _ -> None)
      (sends acts)
  with
  | [ Some h ] ->
      Alcotest.(check int) "tuned h = Et (K=1, zero variance, no loss)"
        (Time.ms 50) h
  | _ -> Alcotest.fail "expected a piggybacked h"

(* An instrumented dynatune follower warmed by two 50 ms heartbeat RTTs
   (min_list_size = 2), so its tuned Et is 50 ms; also returns the
   (Et, h, K) of its tuner decisions, newest first. *)
let tuned_follower () =
  let cfg =
    Config.dynatune
      ~cfg:{ Dynatune.Config.default with Dynatune.Config.min_list_size = 2 }
      ()
  in
  let s = make ~config:cfg ~instrument:true ~self:0 () in
  ignore (Server.start s);
  let hb i rtt now =
    recv s ~from:3 (heartbeat ~id:i ~sent_at:now ?rtt ~term:1 ~commit:0 ()) ~now
  in
  let acts =
    hb 0 None Time.zero
    @ hb 1 (Some (Time.ms 50)) (Time.ms 100)
    @ hb 2 (Some (Time.ms 50)) (Time.ms 200)
  in
  ( s,
    List.rev
      (List.filter_map
         (function
           | Server.Probe (Probe.Tuner_decision { et; h; k; _ }) -> Some (et, h, k)
           | _ -> None)
         acts) )

let test_dynatune_timeout_resets_tuner () =
  let s, _ = tuned_follower () in
  Alcotest.(check int) "tuned Et" (Time.ms 50) (Server.election_timeout_now s);
  let acts = Server.handle s ~now:(Time.ms 400) Server.Election_timeout_fired in
  Alcotest.(check bool) "tuner reset probe" true
    (List.exists
       (function Server.Probe (Probe.Tuner_reset _) -> true | _ -> false)
       acts);
  Alcotest.(check int) "fallback to default Et" (Time.ms 1000)
    (Server.election_timeout_now s);
  (* The re-armed timer must use the default range again. *)
  match armed_election acts with
  | [ span ] ->
      Alcotest.(check bool) "randomized from defaults" true
        (span >= Time.ms 1000 && span < Time.ms 2000)
  | _ -> Alcotest.fail "expected a re-arm"

(* The expiry probe reports the parameters the expired timer ran under:
   sampled before the fallback, so a tuned follower shows its tuned Et,
   not the default it is about to reset to. *)
let test_dynatune_timeout_probe_reports_tuned_params () =
  let s, decisions = tuned_follower () in
  let acts = Server.handle s ~now:(Time.ms 400) Server.Election_timeout_fired in
  match
    ( decisions,
      List.filter_map
        (function
          | Server.Probe (Probe.Timeout_expired { et; h; k; _ }) -> Some (et, h, k)
          | _ -> None)
        acts )
  with
  | last :: _, [ ((et, _, _) as fired) ] ->
      Alcotest.(check (triple int int int)) "= last tuner decision" last fired;
      Alcotest.(check bool) "not the default Et" true (et <> Time.ms 1000)
  | _ -> Alcotest.fail "expected a tuner decision and one Timeout_expired"

let test_leader_applies_piggybacked_h () =
  let s = make ~config:(dynatune_config ()) ~self:0 () in
  ignore (Server.start s);
  ignore (elect s ~now:Time.zero);
  ignore
    (recv s ~from:1
       (Rpc.Heartbeat_response
          {
            term = Server.term s;
            hb_id = 0;
            echo_sent_at = Time.zero;
            tuned_h = Some (Time.ms 33);
            hr_gen = 0;
          })
       ~now:(Time.ms 10));
  Alcotest.(check (option int)) "interval applied toward that follower"
    (Some (Time.ms 33))
    (Server.heartbeat_interval_to s (nid 1));
  Alcotest.(check (option int)) "other followers unchanged"
    (Some (Time.ms 100))
    (Server.heartbeat_interval_to s (nid 2))

let test_static_leader_uses_broadcast_timer () =
  let s = make ~config:(Config.static ()) ~self:0 () in
  ignore (Server.start s);
  let acts = elect s ~now:Time.zero in
  Alcotest.(check bool) "broadcast timer armed" true
    (List.exists
       (function Server.Arm_broadcast _ -> true | _ -> false)
       acts);
  let acts = Server.handle s ~now:(Time.ms 100) Server.Broadcast_due in
  let hbs =
    sends acts
    |> List.filter (fun (_, m) ->
           match m with Rpc.Heartbeat _ -> true | _ -> false)
  in
  Alcotest.(check int) "heartbeats to all followers" 4 (List.length hbs)

let test_dynatune_leader_uses_per_peer_timers () =
  let s = make ~config:(dynatune_config ()) ~self:0 () in
  ignore (Server.start s);
  let acts = elect s ~now:Time.zero in
  let armed =
    List.filter_map
      (function
        | Server.Arm_heartbeat { peer; _ } -> Some (Node_id.to_int peer)
        | _ -> None)
      acts
  in
  Alcotest.(check (list int)) "one timer per follower" [ 1; 2; 3; 4 ]
    (List.sort compare armed)

(* {2 Replication engine v2: pipelining window and stale nacks} *)

let test_progress_window () =
  let module P = Raft.Progress in
  let pr =
    P.create ~last_index:0
      ~path:
        (Dynatune.Leader_path.create ~heartbeat_interval:(Time.ms 100))
  in
  (* Probing: strictly one append at a time, whatever the window. *)
  Alcotest.(check bool) "probe allowed" true (P.may_send pr ~window:4);
  P.record_sent pr ~upto:2;
  Alcotest.(check int) "next advanced optimistically" 3 (P.next_index pr);
  Alcotest.(check bool) "probing serializes" false (P.may_send pr ~window:4);
  (* The first success opens the pipeline. *)
  P.record_success pr ~upto:2;
  Alcotest.(check int) "ack retires the send" 0 (P.inflight pr);
  P.record_sent pr ~upto:4;
  P.record_sent pr ~upto:6;
  P.record_sent pr ~upto:8;
  Alcotest.(check int) "three in flight" 3 (P.inflight pr);
  Alcotest.(check bool) "window open" true (P.may_send pr ~window:4);
  P.record_sent pr ~upto:10;
  Alcotest.(check bool) "window full" false (P.may_send pr ~window:4);
  (* A current conflict rewinds and forgets the whole window. *)
  (match P.record_conflict_response pr ~req_prev:2 ~hint:3 with
  | `Rewound -> ()
  | `Stale -> Alcotest.fail "current nack must rewind");
  Alcotest.(check int) "next rewound to hint" 3 (P.next_index pr);
  Alcotest.(check int) "window forgotten" 0 (P.inflight pr);
  (* A nack answering a send from before the rewind is stale: its
     position lies beyond the rewound [next]. *)
  P.record_sent pr ~upto:4;
  (match P.record_conflict_response pr ~req_prev:6 ~hint:1 with
  | `Stale -> ()
  | `Rewound -> Alcotest.fail "superseded nack must be dropped");
  Alcotest.(check int) "stale nack leaves next alone" 5 (P.next_index pr)

let appends_to actions ~dst =
  List.filter_map
    (function
      | Server.Send { dst = d; msg = Rpc.Append_request r; _ }
        when Node_id.equal d (nid dst) ->
          Some r
      | _ -> None)
    actions

let test_stale_nack_no_duplicate_resend () =
  (* One-entry batches keep every send's position distinct, so the
     rewound probe's [next] sits below the stale nack's position. *)
  let config =
    Config.with_replication ~max_entries_per_append:1 (Config.static ())
  in
  let s = make ~self:0 ~config () in
  ignore (Server.start s);
  let now = Time.ms 100 in
  let acts = elect s ~now in
  (match appends_to acts ~dst:1 with
  | [ probe ] -> Alcotest.(check int) "initial probe at 0" 0 probe.Rpc.prev_index
  | _ -> Alcotest.fail "leader must probe each follower once");
  (* Peer 1 acks the noop: replicating, caught up. *)
  let ack =
    Rpc.Append_response
      {
        term = 1;
        success = true;
        match_index = 1;
        conflict_hint = 0;
        req_prev = 0;
        ap_gen = 0;
      }
  in
  ignore (recv s ~from:1 ack ~now);
  (* Two proposals stream out as two pipelined one-entry appends. *)
  ignore
    (Server.handle s ~now (Server.Propose { payload = "a"; client_id = 9; seq = 1 }));
  ignore
    (Server.handle s ~now (Server.Propose { payload = "b"; client_id = 9; seq = 2 }));
  let acts = Server.handle s ~now Server.Flush_due in
  Alcotest.(check int) "two appends in flight" 2
    (List.length (appends_to acts ~dst:1));
  (* The first nack is current: exactly one resend (the rewound probe),
     not one per outstanding send. *)
  let nack ~req_prev =
    Rpc.Append_response
      {
        term = 1;
        success = false;
        match_index = 0;
        conflict_hint = 1;
        req_prev;
        ap_gen = 0;
      }
  in
  let acts = recv s ~from:1 (nack ~req_prev:1) ~now in
  (match appends_to acts ~dst:1 with
  | [ probe ] -> Alcotest.(check int) "rewound probe at 0" 0 probe.Rpc.prev_index
  | l ->
      Alcotest.failf "conflict must resend exactly one probe, got %d"
        (List.length l));
  (* The second outstanding send's nack is now stale: no resend at all
     (or the leader would re-append the same entries forever). *)
  let acts = recv s ~from:1 (nack ~req_prev:2) ~now in
  Alcotest.(check int) "stale nack resends nothing" 0
    (List.length (appends_to acts ~dst:1));
  (* The surviving probe's ack reopens the stream where it left off. *)
  let acts = recv s ~from:1 ack ~now in
  Alcotest.(check int) "pipeline resumes after ack" 2
    (List.length (appends_to acts ~dst:1))

let test_backpressure_throttles_stream () =
  (* With a congested egress the leader sends nothing in bulk; when the
     queue drains below the limit the stream resumes. *)
  let config =
    Config.with_replication ~max_entries_per_append:1 ~append_backpressure:2
      (Config.static ())
  in
  let depth = ref 0 in
  let s = make ~self:0 ~config ~congestion:(fun _ -> !depth) () in
  ignore (Server.start s);
  let now = Time.ms 100 in
  ignore (elect s ~now);
  depth := 10;
  let ack =
    Rpc.Append_response
      {
        term = 1;
        success = true;
        match_index = 1;
        conflict_hint = 0;
        req_prev = 0;
        ap_gen = 0;
      }
  in
  ignore (recv s ~from:1 ack ~now);
  ignore
    (Server.handle s ~now (Server.Propose { payload = "a"; client_id = 9; seq = 1 }));
  let acts = Server.handle s ~now Server.Flush_due in
  Alcotest.(check int) "congested egress sends nothing" 0
    (List.length (appends_to acts ~dst:1));
  depth := 0;
  let acts = Server.handle s ~now Server.Flush_due in
  Alcotest.(check int) "drained egress resumes" 1
    (List.length (appends_to acts ~dst:1))

(* {2 CheckQuorum against the ack-set rule}

   A leader passes a quorum check when it (if a voter) plus the voters
   of the live configuration that acknowledged it since the last passed
   check — acks counted only from a sender that was a voter when the
   ack arrived — reach a majority of the voters.  [run_quorum_script]
   replays a script against a server and against that rule kept as a
   set; each [Check] names the outcome derived by hand, and both the
   model and the server must agree with it. *)

type quorum_step =
  | Ack of int  (** a current-term heartbeat response *)
  | Commit of int list
      (** current-term append successes at the leader's last index *)
  | Change of Raft.Log.change
  | Restart
  | Check of bool  (** [Quorum_check_due]; [true] = stays leader *)

let run_quorum_script name script =
  let s = make ~self:0 () in
  ignore (Server.start s);
  ignore (elect s ~now:Time.zero);
  let acks = ref [] in
  let now = ref Time.zero in
  let tick () =
    now := !now + Time.ms 1;
    !now
  in
  let respond from msg =
    if Server.is_voter s (nid from) && not (List.mem from !acks) then
      acks := from :: !acks;
    ignore (recv s ~from msg ~now:(tick ()))
  in
  List.iteri
    (fun i step ->
      let what = Printf.sprintf "%s, step %d" name i in
      match step with
      | Ack from ->
          respond from
            (Rpc.Heartbeat_response
               {
                 term = Server.term s;
                 hb_id = 0;
                 echo_sent_at = !now;
                 tuned_h = None;
                 hr_gen = 0;
               })
      | Commit froms ->
          let last = Raft.Log.last_index (Server.log s) in
          List.iter
            (fun from ->
              respond from
                (Rpc.Append_response
                   {
                     term = Server.term s;
                     success = true;
                     match_index = last;
                     conflict_hint = 0;
                     req_prev = 0;
                     ap_gen = 0;
                   }))
            froms
      | Change c -> (
          match snd (Server.reconfigure s ~now:(tick ()) c) with
          | `Ok _ -> ()
          | `Not_leader | `Pending | `Invalid _ ->
              Alcotest.failf "%s: change refused" what)
      | Restart ->
          acks := [];
          ignore (Server.handle s ~now:(tick ()) Server.Restarted)
      | Check expected ->
          let voters = List.map Node_id.to_int (Server.voters s) in
          let self = if List.mem 0 voters then 1 else 0 in
          let heard = List.filter (fun p -> List.mem p voters) !acks in
          let model =
            self + List.length heard >= (List.length voters / 2) + 1
          in
          Alcotest.(check bool) (what ^ ": set rule") expected model;
          ignore (Server.handle s ~now:(tick ()) Server.Quorum_check_due);
          Alcotest.(check bool) (what ^ ": leader after the check") expected
            (Types.is_leader (Server.role s));
          if expected then acks := [])
    script

let test_checkquorum_matches_set_rule () =
  let open Raft.Log in
  let warm = [ Commit [ 1; 2; 3; 4 ]; Check true ] in
  (* A voter that acks, then is removed in the same round. *)
  run_quorum_script "removed after acking"
    (warm @ [ Ack 1; Ack 2; Change (Remove (nid 1)); Check false ]);
  run_quorum_script "removed after acking, quorum without it"
    (warm
    @ [ Ack 1; Ack 2; Ack 3; Change (Remove (nid 1)); Check true ]
    @ [ Ack 1; Ack 2; Check false ]);
  (* A learner's ack never counts, not even once it is promoted. *)
  run_quorum_script "learner ack"
    (warm @ [ Change (Add_learner (nid 5)); Ack 5; Ack 1; Check false ]);
  run_quorum_script "learner ack, then promoted"
    [
      Change (Add_learner (nid 5));
      Commit [ 1; 2 ];
      Check true;
      (* Caught up and its change committed: this ack promotes it. *)
      Ack 5;
      Ack 1;
      Ack 2;
      Check false;
    ];
  (* A removed voter re-added: its acks from outside the voter set do
     not count, its acks as a voter again do. *)
  let readd =
    warm
    @ [
        Change (Remove (nid 1));
        Commit [ 2; 3 ];
        Check true;
        Change (Add_learner (nid 1));
        Ack 1;
        Commit [ 2; 3 ];
        Check true;
        (* A learner again, caught up: this ack promotes it. *)
        Ack 1;
      ]
  in
  run_quorum_script "re-added voter, acked only before promotion"
    (readd @ [ Ack 2; Check false ]);
  run_quorum_script "re-added voter, acked as a voter"
    (readd @ [ Ack 1; Ack 2; Check true ]);
  run_quorum_script "acked, removed and re-added in one round"
    (warm
    @ [
        Ack 1;
        Change (Remove (nid 1));
        Commit [ 2; 3 ];
        Change (Add_learner (nid 1));
        Commit [ 2; 3 ];
        Check true;
      ]);
  (* A restart forgets the round's acks. *)
  run_quorum_script "restart" (warm @ [ Ack 1; Ack 2; Restart; Check false ]);
  run_quorum_script "restart, then a fresh quorum"
    (warm @ [ Ack 1; Ack 2; Restart; Ack 3; Ack 4; Check true ])

(* {2 Heartbeat-timer schedule} *)

(* The spans a leader's [Broadcast_due] re-arms its broadcast timer with. *)
let broadcast_rearm config =
  let s = make ~config ~self:0 () in
  ignore (Server.start s);
  ignore (elect s ~now:Time.zero);
  List.filter_map
    (function Server.Arm_broadcast span -> Some span | _ -> None)
    (Server.handle s ~now:(Time.ms 10) Server.Broadcast_due)

let test_static_broadcast_rearms_at_h () =
  Alcotest.(check (list int)) "raft: one re-arm at 100 ms" [ Time.ms 100 ]
    (broadcast_rearm (Config.static ()));
  Alcotest.(check (list int)) "raft-low: one re-arm at 10 ms" [ Time.ms 10 ]
    (broadcast_rearm (Config.raft_low ()))

(* The peers an [Add_learner] of node 5 arms a per-peer heartbeat timer
   for, on a freshly elected leader. *)
let learner_heartbeat_arms config =
  let s = make ~config ~self:0 () in
  ignore (Server.start s);
  ignore (elect s ~now:Time.zero);
  let acts, result =
    Server.reconfigure s ~now:(Time.ms 10) (Raft.Log.Add_learner (nid 5))
  in
  (match result with
  | `Ok _ -> ()
  | `Not_leader | `Pending | `Invalid _ -> Alcotest.fail "change refused");
  List.filter_map
    (function
      | Server.Arm_heartbeat { peer; _ } -> Some (Node_id.to_int peer)
      | _ -> None)
    acts

let test_add_learner_heartbeat_timer () =
  Alcotest.(check (list int)) "static: broadcast covers the learner" []
    (learner_heartbeat_arms (Config.static ()));
  Alcotest.(check (list int)) "consolidated dynatune: broadcast covers it" []
    (learner_heartbeat_arms
       (Config.with_extensions ~consolidated_timer:true (Config.dynatune ())));
  Alcotest.(check (list int)) "per-peer dynatune: a timer for the learner"
    [ 5 ]
    (learner_heartbeat_arms (Config.dynatune ()))

(* A tuned mode's base parameters are [Raft.Config]'s fields: the tuner
   warms up at them, falls back to them, and the expiry probe reports the
   base h while warming. *)
let test_tuned_base_from_config () =
  let config =
    {
      (Config.dynatune
         ~cfg:{ Dynatune.Config.default with Dynatune.Config.min_list_size = 2 }
         ())
      with
      Config.election_timeout = Time.ms 500;
      heartbeat_interval = Time.ms 50;
    }
  in
  let s = make ~config ~self:0 () in
  let tuner =
    match Server.tuner s with
    | Some tuner -> tuner
    | None -> Alcotest.fail "a tuned mode has a tuner"
  in
  let base label =
    Alcotest.(check bool) (label ^ ": warming") true
      (Dynatune.Tuner.phase tuner = Dynatune.Tuner.Warming);
    Alcotest.(check int) (label ^ ": Et") (Time.ms 500)
      (Server.election_timeout_now s);
    Alcotest.(check int) (label ^ ": h") (Time.ms 50)
      (Dynatune.Tuner.heartbeat_interval tuner)
  in
  List.iter
    (fun (et, h) ->
      Alcotest.(check bool) "non-positive base rejected" true
        (try
           ignore
             (Dynatune.Tuner.create Dynatune.Config.default ~election_timeout:et
                ~heartbeat_interval:h
               : Dynatune.Tuner.t);
           false
         with Invalid_argument _ -> true))
    [ (0, Time.ms 50); (Time.ms 500, 0) ];
  ignore (Server.start s);
  base "start";
  let hb i now =
    ignore
      (recv s ~from:3
         (heartbeat ~id:i ~sent_at:now ~rtt:(Time.ms 20) ~term:1 ~commit:0 ())
         ~now)
  in
  hb 0 Time.zero;
  hb 1 (Time.ms 100);
  hb 2 (Time.ms 200);
  Alcotest.(check bool) "tuned" true
    (Dynatune.Tuner.phase tuner = Dynatune.Tuner.Tuned);
  Dynatune.Tuner.reset tuner;
  base "after reset";
  match
    List.filter_map
      (function
        | Server.Probe (Probe.Timeout_expired { et; h; _ }) -> Some (et, h)
        | _ -> None)
      (Server.handle s ~now:(Time.sec 2) Server.Election_timeout_fired)
  with
  | [ (et, h) ] ->
      Alcotest.(check (pair int int)) "probe while warming" (Time.ms 500, Time.ms 50)
        (et, h)
  | _ -> Alcotest.fail "expected one Timeout_expired"

let tests =
  [
    Alcotest.test_case "checkquorum: matches the ack-set rule" `Quick
      test_checkquorum_matches_set_rule;
    Alcotest.test_case "start arms election" `Quick test_start_arms_election;
    Alcotest.test_case "randomization spreads over [Et,2Et)" `Quick
      test_randomization_spread;
    Alcotest.test_case "timeout starts pre-vote" `Quick
      test_timeout_starts_prevote;
    Alcotest.test_case "pre-vote can be disabled" `Quick
      test_no_prevote_when_disabled;
    Alcotest.test_case "pre-vote quorum starts election" `Quick
      test_prevote_quorum_starts_election;
    Alcotest.test_case "election win" `Quick test_election_win;
    Alcotest.test_case "duplicate votes don't count" `Quick
      test_duplicate_votes_dont_count;
    Alcotest.test_case "one vote per term" `Quick test_vote_granted_once_per_term;
    Alcotest.test_case "stale log refused" `Quick test_vote_rejected_for_stale_log;
    Alcotest.test_case "leader stickiness" `Quick
      test_leader_stickiness_rejects_votes;
    Alcotest.test_case "heartbeat re-arms timer" `Quick
      test_heartbeat_rearms_election_timer;
    Alcotest.test_case "heartbeat echo" `Quick
      test_heartbeat_response_echoes_timestamp;
    Alcotest.test_case "pre-candidate aborts on leader contact" `Quick
      test_pre_candidate_aborts_on_heartbeat;
    Alcotest.test_case "step down on higher term" `Quick
      test_step_down_on_higher_term_response;
    Alcotest.test_case "replicate and commit at quorum" `Quick
      test_leader_replicates_and_commits;
    Alcotest.test_case "propose batches via flush" `Quick
      test_leader_propose_and_flush;
    Alcotest.test_case "stale append refused" `Quick
      test_follower_rejects_stale_append;
    Alcotest.test_case "commit via heartbeat" `Quick
      test_follower_commit_via_heartbeat;
    Alcotest.test_case "conflict backoff" `Quick test_conflict_backoff;
    Alcotest.test_case "dynatune: follower piggybacks h" `Quick
      test_dynatune_follower_piggybacks_h;
    Alcotest.test_case "dynatune: timeout resets tuner" `Quick
      test_dynatune_timeout_resets_tuner;
    Alcotest.test_case "dynatune: timeout probe reports tuned Et/h/K" `Quick
      test_dynatune_timeout_probe_reports_tuned_params;
    Alcotest.test_case "dynatune: leader applies h" `Quick
      test_leader_applies_piggybacked_h;
    Alcotest.test_case "static leader broadcast timer" `Quick
      test_static_leader_uses_broadcast_timer;
    Alcotest.test_case "dynatune per-peer timers" `Quick
      test_dynatune_leader_uses_per_peer_timers;
    Alcotest.test_case "progress window semantics" `Quick test_progress_window;
    Alcotest.test_case "stale nack is not resent" `Quick
      test_stale_nack_no_duplicate_resend;
    Alcotest.test_case "backpressure throttles the stream" `Quick
      test_backpressure_throttles_stream;
    Alcotest.test_case "static broadcast re-arms at h" `Quick
      test_static_broadcast_rearms_at_h;
    Alcotest.test_case "add learner: heartbeat timer follows the schedule"
      `Quick test_add_learner_heartbeat_timer;
    Alcotest.test_case "tuned mode: base Et/h from the config" `Quick
      test_tuned_base_from_config;
  ]
