(* The correctness-analysis subsystem: trace digests, the invariant
   checker against deliberately broken toy nodes (each invariant must
   fire), legitimate crash-recovery (must NOT fire), a 200-seed sweep of
   Always-checked leader failovers, and the determinism sanitizer over
   sharded campaigns. *)

module Cluster = Harness.Cluster
module Node_id = Netsim.Node_id

(* {1 Digest} *)

let test_digest_known_values () =
  Alcotest.(check int64)
    "FNV-1a offset basis" 0xCBF29CE484222325L (Check.Digest.of_string "");
  Alcotest.(check int64)
    "FNV-1a of \"a\"" 0xAF63DC4C8601EC8CL (Check.Digest.of_string "a");
  let a = Check.Digest.create () and b = Check.Digest.create () in
  Check.Digest.feed_int a 1;
  Check.Digest.feed_int64 b 1L;
  Alcotest.(check int64)
    "feed_int = feed_int64 on the same value" (Check.Digest.value a)
    (Check.Digest.value b)

let test_digest_order_sensitive () =
  let x = Check.Digest.of_string "x" and y = Check.Digest.of_string "y" in
  Alcotest.(check bool)
    "combine is order-sensitive" false
    (Int64.equal (Check.Digest.combine [ x; y ]) (Check.Digest.combine [ y; x ]));
  Alcotest.(check bool)
    "of_string separates ab from ba" false
    (Int64.equal (Check.Digest.of_string "ab") (Check.Digest.of_string "ba"))

let test_digest_buffer_feed () =
  let s = String.init 1000 (fun i -> Char.chr (i land 0xff)) in
  let a = Check.Digest.create () and b = Check.Digest.create () in
  let buf = Buffer.create 1000 in
  Buffer.add_string buf s;
  Check.Digest.feed_string a s;
  Check.Digest.feed_buffer b buf;
  Alcotest.(check int64)
    "feed_buffer = feed_string" (Check.Digest.value a) (Check.Digest.value b);
  (* One boxed store per call, not one per byte. *)
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    Check.Digest.feed_string a s;
    Check.Digest.feed_buffer b buf;
    Check.Digest.feed_int a 42
  done;
  let per_call = (Gc.minor_words () -. w0) /. 300. in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per feed" per_call)
    true (per_call <= 3.)

(* The probe text is hashed into every trace digest, so it must not
   drift: [add_to_buffer] prints exactly these bytes. *)
let test_probe_rendering () =
  let id = Node_id.of_int 3 in
  let probes =
    [
      ( Raft.Probe.Timeout_expired
          {
            id;
            term = 2;
            randomized = Des.Time.of_ms_f 153.4;
            et = Des.Time.ms 120;
            h = Des.Time.ms 40;
            k = 3;
          },
        "n3 timeout (153.4ms) in term 2" );
      ( Raft.Probe.Tuner_decision
          {
            id;
            rtt_ms = 100.5;
            rtt_std_ms = 2.25;
            loss = 0.125;
            k = 4;
            et = Des.Time.ms 600;
            h = Des.Time.ms 150;
            reason = Raft.Probe.Retuned;
          },
        "n3 tuner retuned: rtt 100.500±2.250ms loss 0.1250 -> Et 600.0ms H \
         150.0ms k 4" );
      ( Raft.Probe.Config_change
          {
            id;
            term = 7;
            index = 42;
            change = Raft.Log.Promote (Node_id.of_int 5);
            committed = true;
          },
        Format.asprintf "n3 config committed %a at index 42 (term 7)"
          Raft.Log.pp_change
          (Raft.Log.Promote (Node_id.of_int 5)) );
      ( Raft.Probe.Role_change { id; role = Raft.Types.Pre_candidate; term = 12 },
        "n3 -> pre-candidate (term 12)" );
      (Raft.Probe.Pre_vote_aborted { id; term = 0 }, "n3 pre-vote aborted (term 0)");
      (Raft.Probe.Tuner_reset { id }, "n3 tuner reset");
      ( Raft.Probe.Election_started { id = Node_id.of_int 10; term = 109 },
        "n10 election started (term 109)" );
      (Raft.Probe.Node_paused { id }, "n3 paused");
      (Raft.Probe.Node_resumed { id }, "n3 resumed");
      ( Raft.Probe.Transfer_started { id; term = 5; target = Node_id.of_int 64 },
        "n3 transfer to n64 (term 5)" );
      (Raft.Probe.Transfer_aborted { id; term = 5 }, "n3 transfer aborted (term 5)");
    ]
  in
  List.iter
    (fun (p, want) ->
      let b = Buffer.create 16 in
      Raft.Probe.add_to_buffer b p;
      Alcotest.(check string) "add_to_buffer" want (Buffer.contents b))
    probes

(* {1 Broken toy nodes} *)

(* A hand-driven server state: tests mutate it between checker passes to
   stage each violation. *)
type fake = {
  fid : Node_id.t;
  mutable up : bool;
  mutable inc : int;
  mutable role : Raft.Types.role;
  mutable term : int;
  mutable commit : int;
  mutable vote : Node_id.t option;
  mutable entries : Raft.Log.entry list;  (* ascending, index-contiguous *)
}

let fake id =
  {
    fid = id;
    up = true;
    inc = 0;
    role = Raft.Types.Follower;
    term = 1;
    commit = 0;
    vote = None;
    entries = [];
  }

let entry ?(command = Raft.Log.Noop) ~term ~index () =
  { Raft.Log.term; index; command }

let view f : Check.node_view =
  let entry_at i =
    List.find_opt (fun (e : Raft.Log.entry) -> e.Raft.Log.index = i) f.entries
  in
  {
    Check.id = f.fid;
    alive = (fun () -> f.up);
    incarnation = (fun () -> f.inc);
    role = (fun () -> f.role);
    term = (fun () -> f.term);
    commit_index = (fun () -> f.commit);
    voted_for = (fun () -> f.vote);
    last_index =
      (fun () ->
        List.fold_left
          (fun acc (e : Raft.Log.entry) -> max acc e.Raft.Log.index)
          0 f.entries);
    snapshot_index = (fun () -> 0);
    term_at =
      (fun i ->
        if i = 0 then Some 0
        else Option.map (fun (e : Raft.Log.entry) -> e.Raft.Log.term) (entry_at i));
    entry_at;
    (* Toy fixtures carry no configuration: the membership invariants
       no-op on empty views. *)
    voters = (fun () -> []);
    learners = (fun () -> []);
    votes = (fun () -> []);
  }

let checker_for fakes =
  Check.create ~nodes:(List.map view fakes) ()

(* [stage] puts the fakes in a healthy state (already done by the
   caller), a first pass records baselines, [break] stages the
   violation, and the second pass must raise it. *)
let expect_violation ~invariant ~break fakes =
  let t = checker_for fakes in
  Check.check_now t;
  break ();
  match Check.check_now t with
  | () -> Alcotest.failf "checker missed %s" invariant
  | exception Check.Violation v ->
      Alcotest.(check string) "invariant name" invariant v.Check.invariant

let two_ids = Node_id.range 2

let test_catches_election_safety () =
  let a = fake (List.nth two_ids 0) and b = fake (List.nth two_ids 1) in
  expect_violation ~invariant:"election-safety"
    ~break:(fun () ->
      a.role <- Raft.Types.Leader;
      a.term <- 3;
      b.role <- Raft.Types.Leader;
      b.term <- 3)
    [ a; b ]

(* A checked cluster records into its own forensics ring, and a
   violation's report is that ring's last 50 records, oldest first, with
   their causes.  The violation is planted: a fake leader of the live
   leader's term joins the checker. *)
let test_violation_reports_ring_tail () =
  let c =
    Cluster.create ~seed:5L ~n:5 ~config:(Raft.Config.static ())
      ~conditions:
        Netsim.Conditions.(constant (profile ~rtt_ms:10. ~jitter:0.05 ()))
      ~check:Check.Always ()
  in
  Cluster.start c;
  (* Failovers give the ring more history than one report holds. *)
  for _ = 1 to 4 do
    match Harness.Fault.fail_and_measure c () with
    | Ok _ -> ()
    | Error why -> Alcotest.fail why
  done;
  let leader =
    match Cluster.leader c with
    | Some l -> l
    | None -> Alcotest.fail "no leader"
  in
  let impostor = fake (Node_id.of_int 99) in
  impostor.role <- Raft.Types.Leader;
  impostor.term <- Raft.Server.term (Raft.Node.server leader);
  (match Cluster.checker c with
  | Some ck -> Check.add_view ck (view impostor)
  | None -> Alcotest.fail "no checker despite Check.Always");
  match Cluster.run_for c (Des.Time.sec 1) with
  | () -> Alcotest.fail "checker missed the planted second leader"
  | exception Check.Violation v ->
      let ring = Cluster.forensics c in
      Alcotest.(check string) "invariant" "election-safety" v.Check.invariant;
      Alcotest.(check bool) "ring holds more than the report" true
        (Raft.Forensics.length ring > 50);
      Alcotest.(check (list string))
        "report is the ring's last 50 records"
        (Raft.Forensics.tail ring 50) v.Check.flight;
      let records = Raft.Forensics.records ring in
      let tail =
        List.filteri (fun i _ -> i >= List.length records - 50) records
      in
      Alcotest.(check bool) "every reported record carries a cause" true
        (List.for_all
           (fun (r : Raft.Forensics.record) ->
             not (Telemetry.Cause.is_none r.Raft.Forensics.cause))
           tail)

let test_catches_term_monotonic () =
  let a = fake (List.hd two_ids) in
  a.term <- 5;
  expect_violation ~invariant:"term-monotonic"
    ~break:(fun () -> a.term <- 4)
    [ a ]

let test_catches_commit_monotonic () =
  let a = fake (List.hd two_ids) in
  a.entries <- [ entry ~term:1 ~index:1 () ];
  a.commit <- 1;
  expect_violation ~invariant:"commit-monotonic"
    ~break:(fun () -> a.commit <- 0)
    [ a ]

let test_catches_single_vote () =
  let a = fake (List.nth two_ids 0) in
  a.vote <- Some (List.nth two_ids 0);
  expect_violation ~invariant:"single-vote"
    ~break:(fun () -> a.vote <- Some (List.nth two_ids 1))
    [ a ]

let test_catches_pre_vote_disruption () =
  let a = fake (List.hd two_ids) in
  expect_violation ~invariant:"pre-vote-disruption"
    ~break:(fun () ->
      a.role <- Raft.Types.Pre_candidate;
      a.term <- a.term + 1)
    [ a ]

let test_catches_leader_append_only () =
  let a = fake (List.hd two_ids) in
  a.role <- Raft.Types.Leader;
  a.entries <- [ entry ~term:1 ~index:1 (); entry ~term:1 ~index:2 () ];
  expect_violation ~invariant:"leader-append-only"
    ~break:(fun () -> a.entries <- [ entry ~term:1 ~index:1 () ])
    [ a ]

let test_catches_log_matching () =
  let a = fake (List.nth two_ids 0) and b = fake (List.nth two_ids 1) in
  let data payload = Raft.Log.Data { payload; client_id = 1; seq = 1 } in
  expect_violation ~invariant:"log-matching"
    ~break:(fun () ->
      (* Same term at index 2, different entries at index 1. *)
      a.entries <-
        [
          entry ~command:(data "a") ~term:1 ~index:1 ();
          entry ~term:2 ~index:2 ();
        ];
      b.entries <-
        [
          entry ~command:(data "b") ~term:1 ~index:1 ();
          entry ~term:2 ~index:2 ();
        ])
    [ a; b ]

let test_catches_state_machine_safety () =
  let a = fake (List.nth two_ids 0) and b = fake (List.nth two_ids 1) in
  let data payload = Raft.Log.Data { payload; client_id = 1; seq = 1 } in
  expect_violation ~invariant:"state-machine-safety"
    ~break:(fun () ->
      a.entries <- [ entry ~command:(data "a") ~term:1 ~index:1 () ];
      a.commit <- 1;
      b.entries <- [ entry ~command:(data "b") ~term:1 ~index:1 () ];
      b.commit <- 1)
    [ a; b ]

let test_catches_leader_completeness () =
  let a = fake (List.nth two_ids 0) and b = fake (List.nth two_ids 1) in
  (* a has committed index 1; b is elected leader of a higher term with
     an empty log. *)
  a.entries <- [ entry ~term:1 ~index:1 () ];
  a.commit <- 1;
  expect_violation ~invariant:"leader-completeness"
    ~break:(fun () ->
      b.role <- Raft.Types.Leader;
      b.term <- 2)
    [ a; b ]

let test_crash_recovery_not_flagged () =
  let a = fake (List.hd two_ids) in
  a.term <- 4;
  a.role <- Raft.Types.Leader;
  a.entries <- [ entry ~term:4 ~index:1 () ];
  a.commit <- 1;
  let t = checker_for [ a ] in
  Check.check_now t;
  (* Crash-recovery: same term and log, but volatile state reset and the
     incarnation bumped — legitimate, must not raise. *)
  a.inc <- a.inc + 1;
  a.role <- Raft.Types.Follower;
  a.commit <- 0;
  Check.check_now t;
  (* Losing the persisted term across the restart is NOT legitimate. *)
  a.inc <- a.inc + 1;
  a.term <- 3;
  match Check.check_now t with
  | () -> Alcotest.fail "checker missed a term lost across restart"
  | exception Check.Violation v ->
      Alcotest.(check string) "invariant name" "term-monotonic"
        v.Check.invariant

let test_off_mode_is_inert () =
  let c =
    Cluster.create ~check:Check.Off ~n:3 ~config:(Raft.Config.static ()) ()
  in
  Alcotest.(check bool) "no checker built" true (Option.is_none (Cluster.checker c))

(* {1 Live clusters} *)

(* 200 seeds of Always-checked failover on a small fast cluster: the
   checker must stay silent through every election. *)
let test_seed_sweep () =
  for seed = 1 to 200 do
    let conditions =
      Netsim.Conditions.(constant (profile ~rtt_ms:10. ~jitter:0.05 ()))
    in
    let c =
      Cluster.create ~seed:(Int64.of_int seed) ~n:3
        ~config:(Raft.Config.static ()) ~conditions ~check:Check.Always ()
    in
    Cluster.start c;
    (match Cluster.await_leader c ~timeout:(Des.Time.sec 20) with
    | Some l ->
        Raft.Node.pause l;
        Cluster.run_for c (Des.Time.sec 3);
        Raft.Node.resume l;
        Cluster.run_for c (Des.Time.sec 1)
    | None -> Alcotest.failf "seed %d: no initial leader" seed);
    Cluster.check_now c
  done

let test_checker_runs_in_always_mode () =
  let c =
    Cluster.create ~seed:9L ~n:3 ~config:(Raft.Config.static ())
      ~check:Check.Always ()
  in
  Cluster.start c;
  ignore (Cluster.await_leader c ~timeout:(Des.Time.sec 20) : Raft.Node.t option);
  match Cluster.checker c with
  | None -> Alcotest.fail "no checker despite Check.Always"
  | Some ck ->
      Alcotest.(check bool) "events observed" true (Check.events_seen ck > 0);
      Alcotest.(check int) "Always checks every event"
        (Check.events_seen ck) (Check.checks_run ck)

(* {1 Determinism sanitizer} *)

let test_digest_same_seed_same_run () =
  let run () =
    let c =
      Cluster.create ~seed:77L ~n:3 ~config:(Raft.Config.static ()) ()
    in
    Cluster.start c;
    Cluster.run_for c (Des.Time.sec 10);
    Cluster.trace_digest c
  in
  Alcotest.(check int64) "same seed, same digest" (run ()) (run ());
  let other =
    let c =
      Cluster.create ~seed:78L ~n:3 ~config:(Raft.Config.static ()) ()
    in
    Cluster.start c;
    Cluster.run_for c (Des.Time.sec 10);
    Cluster.trace_digest c
  in
  Alcotest.(check bool) "different seed, different digest" false
    (Int64.equal (run ()) other)

let test_fig4_digest_worker_invariant () =
  let run jobs =
    Scenarios.Fig4.run ~failures:4 ~jobs ~config:(Raft.Config.static ())
      ()
  in
  Alcotest.(check int64)
    "fig4: jobs=1 and jobs=2 digests identical"
    (run 1).Scenarios.Fig4.digest (run 2).Scenarios.Fig4.digest

let test_fig8_digest_worker_invariant () =
  let run jobs =
    Scenarios.Fig8.run ~failures:4 ~jobs ~config:(Raft.Config.static ())
      ()
  in
  Alcotest.(check int64)
    "fig8: jobs=1 and jobs=2 digests identical"
    (run 1).Scenarios.Fig4.digest (run 2).Scenarios.Fig4.digest

let tests =
  [
    Alcotest.test_case "digest: FNV-1a known values" `Quick
      test_digest_known_values;
    Alcotest.test_case "digest: buffer feed, one store per call" `Quick
      test_digest_buffer_feed;
    Alcotest.test_case "digest: probe rendering is stable" `Quick
      test_probe_rendering;
    Alcotest.test_case "digest: order sensitivity" `Quick
      test_digest_order_sensitive;
    Alcotest.test_case "catches: election safety" `Quick
      test_catches_election_safety;
    Alcotest.test_case "catches: term monotonicity" `Quick
      test_catches_term_monotonic;
    Alcotest.test_case "violation: report is the ring's last 50 records"
      `Quick test_violation_reports_ring_tail;
    Alcotest.test_case "catches: commit monotonicity" `Quick
      test_catches_commit_monotonic;
    Alcotest.test_case "catches: single vote per term" `Quick
      test_catches_single_vote;
    Alcotest.test_case "catches: pre-vote disruption" `Quick
      test_catches_pre_vote_disruption;
    Alcotest.test_case "catches: leader append-only" `Quick
      test_catches_leader_append_only;
    Alcotest.test_case "catches: log matching" `Quick test_catches_log_matching;
    Alcotest.test_case "catches: state machine safety" `Quick
      test_catches_state_machine_safety;
    Alcotest.test_case "catches: leader completeness" `Quick
      test_catches_leader_completeness;
    Alcotest.test_case "crash-recovery resets are legitimate" `Quick
      test_crash_recovery_not_flagged;
    Alcotest.test_case "mode Off is inert" `Quick test_off_mode_is_inert;
    Alcotest.test_case "checker active on a live cluster" `Quick
      test_checker_runs_in_always_mode;
    Alcotest.test_case "200-seed failover sweep, zero violations" `Slow
      test_seed_sweep;
    Alcotest.test_case "digest: seed-determined on a live cluster" `Quick
      test_digest_same_seed_same_run;
    Alcotest.test_case "fig4 digest invariant to worker count" `Slow
      test_fig4_digest_worker_invariant;
    Alcotest.test_case "fig8 digest invariant to worker count" `Slow
      test_fig8_digest_worker_invariant;
  ]
