(* The causal forensics layer: cause-ID packing, the bounded ring (its
   eviction order, its rendering, and its agreement with the probe
   trace it mirrors), the time-series recorder (cadence, exports, shard
   merge, digest neutrality), the explain analysis over synthetic and
   live rings (with a golden file pinning the rendered output), and the
   flight recorder attached to invariant violations. *)

module Cause = Telemetry.Cause
module Forensics = Raft.Forensics
module Probe = Raft.Probe
module Node_id = Netsim.Node_id
module Recorder = Telemetry.Recorder
module Metrics = Telemetry.Metrics
module Q = QCheck

let to_alcotest = QCheck_alcotest.to_alcotest

(* {1 Cause packing} *)

let kinds =
  [
    (Cause.Election_timer, "et");
    (Cause.Heartbeat_timer, "hb");
    (Cause.Client, "cl");
    (Cause.Fault, "ft");
    (Cause.Internal, "in");
  ]

let test_cause_roundtrip () =
  List.iter
    (fun (k, tag) ->
      let c = Cause.make ~kind:k ~node:7 ~term:42 ~seq:12345 in
      Alcotest.(check bool) "not none" false (Cause.is_none c);
      Alcotest.(check string) "kind tag" tag (Cause.kind_name (Cause.kind c));
      Alcotest.(check int) "node" 7 (Cause.node c);
      Alcotest.(check int) "term" 42 (Cause.term c);
      Alcotest.(check int) "seq" 12345 (Cause.seq c))
    kinds;
  (* Field extremes survive, one past the field wraps. *)
  let c = Cause.make ~kind:Cause.Client ~node:4095 ~term:32767 ~seq:0xFFFF_FFFF in
  Alcotest.(check int) "node max" 4095 (Cause.node c);
  Alcotest.(check int) "term max" 32767 (Cause.term c);
  Alcotest.(check int) "seq max" 0xFFFF_FFFF (Cause.seq c);
  let w = Cause.make ~kind:Cause.Client ~node:4096 ~term:32768 ~seq:0 in
  Alcotest.(check int) "node wraps" 0 (Cause.node w);
  Alcotest.(check int) "term wraps" 0 (Cause.term w)

let test_cause_to_string () =
  Alcotest.(check string) "none renders -" "-" (Cause.to_string Cause.none);
  Alcotest.(check bool) "none is none" true (Cause.is_none Cause.none);
  let c = Cause.make ~kind:Cause.Election_timer ~node:2 ~term:7 ~seq:1234 in
  Alcotest.(check string) "packed render" "et:n2/t7#1234" (Cause.to_string c)

let prop_cause_roundtrip =
  Q.Test.make ~count:200 ~name:"cause pack/unpack round-trips in-field values"
    Q.(quad (int_bound 4) (int_bound 4095) (int_bound 32767) (int_bound 0xFFFFFF))
    (fun (ki, node, term, seq) ->
      let kind = fst (List.nth kinds ki) in
      let c = Cause.make ~kind ~node ~term ~seq in
      (not (Cause.is_none c))
      && Cause.kind c = kind && Cause.node c = node && Cause.term c = term
      && Cause.seq c = seq)

(* {1 The ring} *)

let n0 = Node_id.of_int 0

let record_n ring n =
  for i = 1 to n do
    let cause =
      Forensics.new_cause ring ~kind:Cause.Internal ~node:0 ~term:1
    in
    Forensics.record ring ~at:(Des.Time.ms i) ~node:n0 ~term:1
      ~cause ~parent:Cause.none
      (Forensics.Probe (Probe.Tuner_reset { id = n0 }))
  done

let test_ring_eviction_order () =
  let ring = Forensics.create () in
  let cap = Forensics.capacity in
  record_n ring (cap + 3);
  Alcotest.(check int) "length capped" cap (Forensics.length ring);
  Alcotest.(check int) "dropped counts evictions" 3 (Forensics.dropped ring);
  (* Oldest-first: the survivors are records 4..cap+3 in insertion
     order. *)
  let seqs =
    List.map (fun (r : Forensics.record) -> Cause.seq r.cause)
      (Forensics.records ring)
  in
  Alcotest.(check (list int)) "oldest evicted first"
    (List.init cap (fun i -> i + 4))
    seqs;
  let tail = Forensics.tail ring 2 in
  Alcotest.(check int) "tail length" 2 (List.length tail);
  Alcotest.(check (list string)) "tail = last renders" tail
    (match List.rev (Forensics.records ring) with
    | b :: a :: _ -> List.map Forensics.render_record [ a; b ]
    | _ -> [])

let test_forensics_disabled_inert () =
  let ring = Forensics.create ~enabled:false () in
  Alcotest.(check bool) "disabled" false (Forensics.enabled ring);
  let c = Forensics.new_cause ring ~kind:Cause.Fault ~node:3 ~term:9 in
  Alcotest.(check bool) "new_cause is none" true (Cause.is_none c);
  Forensics.record ring ~at:Des.Time.zero ~node:n0 ~term:0 ~cause:c
    ~parent:Cause.none
    (Forensics.Probe (Probe.Node_paused { id = n0 }));
  Alcotest.(check int) "nothing retained" 0 (Forensics.length ring);
  Alcotest.(check int) "nothing dropped" 0 (Forensics.dropped ring);
  Alcotest.(check (list string)) "empty tail" [] (Forensics.tail ring 4)

(* Every line of explain, --raw and the flight recorder goes through
   [render_record]; these are the shapes the explain golden lacks. *)
let test_ring_render_other_events () =
  let n1 = Node_id.of_int 1 and n2 = Node_id.of_int 2 in
  let promote = Raft.Log.Promote n2 in
  List.iter
    (fun (p, text) ->
      Alcotest.(check string) text ("1.500s n1 t5 -<-- " ^ text)
        (Forensics.render_record
           {
             Forensics.at = Des.Time.ms 1500;
             node = n1;
             term = 5;
             cause = Cause.none;
             parent = Cause.none;
             ev = Forensics.Probe p;
           }))
    [
      (Probe.Pre_vote_aborted { id = n1; term = 5 }, "pre-vote aborted");
      (Probe.Tuner_reset { id = n1 }, "tuner reset");
      (Probe.Node_paused { id = n1 }, "paused");
      (Probe.Node_resumed { id = n1 }, "resumed");
      (Probe.Transfer_started { id = n1; term = 5; target = n2 }, "transfer to n2");
      (Probe.Transfer_aborted { id = n1; term = 5 }, "transfer aborted");
      ( Probe.Config_change
          { id = n1; term = 5; index = 7; change = promote; committed = true },
        "config committed " ^ Raft.Log.show_change promote );
    ]

(* The ring is a sink of the probe stream: on a forensics-on cluster
   through a leader kill and recovery, its probe records are exactly
   the trace's emissions, in order and at the same instants, and every
   pause/resume roots a fault cause. *)
let test_ring_mirrors_trace () =
  let forensics = Forensics.create () in
  let c =
    Harness.Cluster.create ~seed:7L ~n:3
      ~config:(Raft.Config.dynatune ())
      ~telemetry:(Metrics.create ~enabled:true ())
      ~forensics ()
  in
  let emitted = ref [] in
  Des.Mtrace.subscribe (Harness.Cluster.trace c) (fun at p ->
      emitted := (at, p) :: !emitted);
  Harness.Cluster.start c;
  let await () =
    if Harness.Cluster.await_leader c ~timeout:(Des.Time.sec 60) = None then
      Alcotest.fail "no leader"
  in
  await ();
  Harness.Cluster.run_for c (Des.Time.sec 10);
  (match Harness.Fault.kill_leader c with
  | Some (failed, _) ->
      await ();
      Harness.Fault.recover c failed;
      Harness.Cluster.run_for c (Des.Time.sec 5)
  | None -> Alcotest.fail "no leader to kill");
  let records = Forensics.records forensics in
  let mirrored =
    List.filter_map
      (fun (r : Forensics.record) ->
        match r.ev with
        | Forensics.Probe p -> Some (r.at, p)
        | Forensics.Vote _ -> None)
      records
  in
  Alcotest.(check int) "nothing evicted" 0 (Forensics.dropped forensics);
  Alcotest.(check int) "one record per emitted probe" (List.length !emitted)
    (List.length mirrored);
  Alcotest.(check bool) "same probes, same order, same instants" true
    (List.for_all2
       (fun (a, p) (b, q) -> a = b && p == q)
       (List.rev !emitted) mirrored);
  let fault_causes =
    List.filter_map
      (fun (r : Forensics.record) ->
        match r.ev with
        | Forensics.Probe (Probe.Node_paused _ | Probe.Node_resumed _) ->
            Some r.cause
        | Forensics.Probe _ | Forensics.Vote _ -> None)
      records
  in
  Alcotest.(check bool) "kill and recovery recorded" true
    (List.length fault_causes >= 2);
  Alcotest.(check bool) "pause/resume carry a fault cause" true
    (List.for_all
       (fun c -> (not (Cause.is_none c)) && Cause.kind c = Cause.Fault)
       fault_causes)

(* {1 Recorder} *)

let test_recorder_cadence () =
  let engine = Des.Engine.create ~seed:1L () in
  let m = Metrics.create ~enabled:true () in
  let c = Metrics.counter m ~scope:"test" ~name:"ticks" () in
  let g = Metrics.gauge m ~scope:"test" ~name:"level" () in
  let r = Recorder.create ~every:(Des.Time.ms 10) () in
  Recorder.attach r engine (fun () -> Metrics.snapshot m);
  Metrics.Counter.add c 3;
  Metrics.Gauge.set g 2.5;
  Des.Engine.run_for engine (Des.Time.ms 100);
  Alcotest.(check int) "one sample per period" 10 (Recorder.samples r);
  let dump = Recorder.dump r in
  Alcotest.(check int) "one series per key" 2 (List.length dump);
  List.iter
    (fun (_, samples) ->
      Alcotest.(check int) "series length" 10 (Array.length samples))
    dump;
  (* Exports are well-formed. *)
  let csv = Recorder.to_csv dump in
  Alcotest.(check bool) "csv header" true
    (String.length csv > 4 && String.sub csv 0 4 = "t_ms");
  (* header + 10 sampled instants *)
  Alcotest.(check int) "csv rows" 11
    (List.length
       (String.split_on_char '\n' (String.trim csv)));
  let om = Recorder.to_openmetrics dump in
  let om = String.trim om in
  let eof = "# EOF" in
  Alcotest.(check string) "openmetrics terminator" eof
    (String.sub om (String.length om - String.length eof) (String.length eof));
  let window = Recorder.window r 3 in
  Alcotest.(check int) "window lines" 3 (List.length window)

let test_recorder_disabled_inert () =
  let engine = Des.Engine.create ~seed:1L () in
  let r = Recorder.noop in
  Recorder.attach r engine (fun () -> Metrics.snapshot Metrics.noop);
  Des.Engine.run_for engine (Des.Time.ms 50);
  Alcotest.(check int) "no samples" 0 (Recorder.samples r);
  Alcotest.(check int) "empty dump" 0 (List.length (Recorder.dump r));
  Alcotest.(check (list string)) "empty window" [] (Recorder.window r 4)

let test_recorder_merge_prefixes () =
  let part i = [ (Printf.sprintf "k%d" i, [| (1., float_of_int i) |]) ] in
  let merged = Recorder.merge [ part 0; part 1 ] in
  Alcotest.(check (list string))
    "keys prefixed by shard"
    [ "s0/k0"; "s1/k1" ]
    (List.map fst merged)

(* {1 Campaign determinism with the recorder on} *)

(* Acceptance: the merged time series — and the probe-trace digest —
   are functions of the seed alone, equal at
   [--jobs 1] and [--jobs 4]; and turning the recorder on does not
   perturb the digest (its sampling events draw no randomness). *)
let fig4_recorded ~seed ~jobs =
  Scenarios.Fig4.run ~seed ~failures:6 ~jobs ~instrument:true
    ~record:(Des.Time.ms 500)
    ~config:(Raft.Config.dynatune ())
    ()

let test_fig4_recorder_jobs_invariant () =
  let r1 = fig4_recorded ~seed:11L ~jobs:1 in
  let r4 = fig4_recorded ~seed:11L ~jobs:4 in
  let csv1 = Recorder.to_csv r1.Scenarios.Fig4.recorder in
  Alcotest.(check bool) "series non-trivial" true (String.length csv1 > 100);
  Alcotest.(check string) "recorder jobs 1 = jobs 4" csv1
    (Recorder.to_csv r4.Scenarios.Fig4.recorder);
  Alcotest.(check int64) "digest jobs 1 = jobs 4" r1.Scenarios.Fig4.digest
    r4.Scenarios.Fig4.digest;
  (* Digest neutrality: the same plan without the recorder agrees. *)
  let bare =
    Scenarios.Fig4.run ~seed:11L ~failures:6 ~jobs:1
      ~instrument:true
      ~config:(Raft.Config.dynatune ())
      ()
  in
  Alcotest.(check int64) "recorder does not perturb the digest"
    bare.Scenarios.Fig4.digest r1.Scenarios.Fig4.digest

(* The forensics ring is digest neutral too: the same seeds through five
   leader kills give the same trace digest, checker passes and stores
   with the cluster's default ring, an explicit disabled ring and an
   enabled one, checked or not. *)
let test_ring_digest_neutral () =
  let fingerprint ~seed ~check forensics =
    let c =
      Harness.Cluster.create ~seed ~n:5 ~config:(Raft.Config.dynatune ())
        ~conditions:
          Netsim.Conditions.(
            constant (profile ~rtt_ms:20. ~jitter:0.1 ~loss:0.01 ()))
        ~check ?forensics ()
    in
    Harness.Cluster.start c;
    for _ = 1 to 5 do
      match Harness.Fault.fail_and_measure c () with
      | Ok _ -> ()
      | Error why -> Alcotest.failf "seed %Ld: %s" seed why
    done;
    Harness.Fault.fingerprint [ c ]
  in
  List.iter
    (fun (seed, check) ->
      let default = fingerprint ~seed ~check None in
      List.iter
        (fun (label, enabled) ->
          Alcotest.(check string)
            (Printf.sprintf "seed %Ld, ring %s" seed label)
            default
            (fingerprint ~seed ~check (Some (Forensics.create ~enabled ()))))
        [ ("off", false); ("on", true) ])
    [
      (1L, Check.Off);
      (2L, Check.Off);
      (3L, Check.Off);
      (1L, Check.Always);
      (2L, Check.Always);
      (3L, Check.Always);
    ]

(* Same contract on the geo WAN: fig8 digests and recorder series are
   functions of (seed, shard plan) with the recorder on. *)
let test_fig8_recorder_jobs_invariant () =
  let run jobs =
    Scenarios.Fig8.run ~seed:11L ~failures:4 ~jobs ~instrument:true
      ~record:(Des.Time.ms 500)
      ~config:(Raft.Config.dynatune ())
      ()
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check int64) "fig8 digest jobs 1 = jobs 4"
    r1.Scenarios.Fig4.digest r4.Scenarios.Fig4.digest;
  Alcotest.(check string) "fig8 recorder jobs 1 = jobs 4"
    (Recorder.to_csv r1.Scenarios.Fig4.recorder)
    (Recorder.to_csv r4.Scenarios.Fig4.recorder)

let prop_recorder_jobs_invariant =
  Q.Test.make ~count:3
    ~name:"fig4 recorder series: jobs 1 = jobs 2 on a pinned plan"
    Q.(int_bound 1000)
    (fun seed ->
      let seed = Int64.of_int (seed + 1) in
      let run jobs =
        let r =
          Scenarios.Fig4.run ~seed ~failures:4 ~jobs
            ~instrument:true
            ~record:(Des.Time.ms 500)
            ~config:(Raft.Config.dynatune ())
            ()
        in
        Recorder.to_csv r.Scenarios.Fig4.recorder
      in
      String.equal (run 1) (run 2))

(* {1 Explain: synthetic ring} *)

(* A hand-built ring staging three elections: a first (no prior leader),
   a justified failover (n0 paused first), and a spurious deposition
   (n0 back up, yet n2 campaigns anyway). *)
let synthetic_ring () =
  let c ~kind ~node ~term ~seq = Cause.make ~kind ~node ~term ~seq in
  let ms = Des.Time.ms in
  (* [ev] builds the event for the recording node and term. *)
  let r ~at ~node ~term ~cause ?(parent = Cause.none) ev =
    let id = Node_id.of_int node in
    { Forensics.at = ms at; node = id; term; cause; parent; ev = ev id term }
  in
  let p probe = Forensics.Probe probe in
  let timeout randomized id term =
    let et, h, randomized = (ms 1000, ms 100, ms randomized) in
    p (Probe.Timeout_expired { id; term; randomized; et; h; k = 1 })
  in
  let campaign id term = p (Probe.Election_started { id; term }) in
  let role role id term = p (Probe.Role_change { id; role; term }) in
  let candidate = role Raft.Types.Candidate
  and leader = role Raft.Types.Leader in
  let vote from _ _ =
    Forensics.Vote { from = Node_id.of_int from; granted = true; pre = false }
  in
  let paused id _ = p (Probe.Node_paused { id })
  and resumed id _ = p (Probe.Node_resumed { id }) in
  let tuned id _ =
    let et = ms 120 in
    p
      (Probe.Tuner_decision
         { id; rtt_ms = 100.; rtt_std_ms = 0.; loss = 0.; k = 1; et; h = et;
           reason = Probe.Retuned })
  in
  let boot = c ~kind:Cause.Internal ~node:0 ~term:0 ~seq:1 in
  let e1 = c ~kind:Cause.Election_timer ~node:0 ~term:0 ~seq:2 in
  let f1 = c ~kind:Cause.Fault ~node:0 ~term:1 ~seq:3 in
  let e2 = c ~kind:Cause.Election_timer ~node:1 ~term:1 ~seq:4 in
  let f2 = c ~kind:Cause.Fault ~node:0 ~term:2 ~seq:5 in
  let e3 = c ~kind:Cause.Election_timer ~node:2 ~term:2 ~seq:6 in
  [
    (* Election 1: cold start, n0 wins term 1. *)
    r ~at:150 ~node:0 ~term:0 ~cause:e1 ~parent:boot (timeout 150);
    r ~at:150 ~node:0 ~term:1 ~cause:e1 campaign;
    r ~at:150 ~node:0 ~term:1 ~cause:e1 candidate;
    r ~at:200 ~node:0 ~term:1 ~cause:e1 (vote 1);
    r ~at:200 ~node:0 ~term:1 ~cause:e1 leader;
    (* n1 tunes from measurements. *)
    r ~at:5000 ~node:1 ~term:1
      ~cause:(c ~kind:Cause.Internal ~node:1 ~term:1 ~seq:7)
      tuned;
    (* Election 2: n0 pauses, n1 takes over — justified. *)
    r ~at:9000 ~node:0 ~term:1 ~cause:f1 paused;
    r ~at:9150 ~node:1 ~term:1 ~cause:e2 (timeout 140);
    r ~at:9150 ~node:1 ~term:2 ~cause:e2 campaign;
    r ~at:9200 ~node:1 ~term:2 ~cause:e2 (vote 2);
    r ~at:9200 ~node:1 ~term:2 ~cause:e2 leader;
    r ~at:9500 ~node:0 ~term:2 ~cause:f2 resumed;
    (* Election 3: n1 is live, yet n2 deposes it — spurious. *)
    r ~at:12000 ~node:2 ~term:2 ~cause:e3 (timeout 130);
    r ~at:12000 ~node:2 ~term:3 ~cause:e3 campaign;
    r ~at:12050 ~node:2 ~term:3 ~cause:e3 leader;
  ]

let test_explain_analyze_synthetic () =
  let elections = Scenarios.Explain.analyze (synthetic_ring ()) in
  Alcotest.(check int) "three elections" 3 (List.length elections);
  let e1 = List.nth elections 0
  and e2 = List.nth elections 1
  and e3 = List.nth elections 2 in
  Alcotest.(check int) "first winner" 0 e1.Scenarios.Explain.winner;
  Alcotest.(check bool) "cold start justified" true e1.Scenarios.Explain.justified;
  Alcotest.(check (option int)) "no prior leader" None
    e1.Scenarios.Explain.prior_leader;
  (* The chain reassembles every record stamped with the election cause. *)
  Alcotest.(check int) "chain length" 5
    (List.length e1.Scenarios.Explain.chain);
  Alcotest.(check bool) "chain starts at the timeout" true
    (match (List.hd e1.Scenarios.Explain.chain).Forensics.ev with
    | Forensics.Probe (Probe.Timeout_expired _) -> true
    | _ -> false);
  Alcotest.(check int) "failover winner" 1 e2.Scenarios.Explain.winner;
  Alcotest.(check bool) "failover justified" true e2.Scenarios.Explain.justified;
  Alcotest.(check (option int)) "deposed the paused leader" (Some 0)
    e2.Scenarios.Explain.prior_leader;
  Alcotest.(check bool) "provenance = last tuner decision" true
    (match e2.Scenarios.Explain.provenance with
    | Some { Forensics.ev = Forensics.Probe (Probe.Tuner_decision _); node; _ }
      ->
        Node_id.to_int node = 1
    | _ -> false);
  Alcotest.(check bool) "live leader deposed is spurious" false
    e3.Scenarios.Explain.justified;
  Alcotest.(check (option int)) "spurious names the live leader" (Some 1)
    e3.Scenarios.Explain.prior_leader

let read_golden name =
  let path = Test_data.path (Filename.concat "golden" name) in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_explain_print_golden () =
  let rendered =
    Format.asprintf "%a" Scenarios.Explain.print
      (Scenarios.Explain.analyze (synthetic_ring ()))
  in
  (* Regenerate with DYNATUNE_GOLDEN_REGEN=1, run from the source test/
     directory: the source golden is written relative to the working
     directory, since the build's copy beside the executable is dune's. *)
  if Sys.getenv_opt "DYNATUNE_GOLDEN_REGEN" <> None then begin
    let oc = open_out_bin "golden/explain.golden.txt" in
    output_string oc rendered;
    close_out oc
  end
  else
    Alcotest.(check string) "explain output pinned"
      (read_golden "explain.golden.txt") rendered

(* {1 Explain: live ring} *)

(* Acceptance: the analysis reconstructs complete chains from a real
   run — every leadership change has a cause, its chain contains the
   timeout and campaign that produced it and ends in the winning role
   change, and every post-kill election is classified justified. *)
let test_explain_live_chains_complete () =
  let records = Scenarios.Explain.run ~failures:1 () in
  let elections = Scenarios.Explain.analyze records in
  Alcotest.(check bool) "at least initial + failover elections" true
    (List.length elections >= 2);
  List.iter
    (fun (e : Scenarios.Explain.election) ->
      Alcotest.(check bool) "winning role change has a cause" false
        (Cause.is_none e.cause);
      Alcotest.(check bool) "cause is an election timer" true
        (Cause.kind e.cause = Cause.Election_timer);
      let has p = List.exists p e.chain in
      Alcotest.(check bool) "chain has the timeout" true
        (has (fun r ->
             match r.Forensics.ev with
             | Forensics.Probe (Probe.Timeout_expired _) -> true
             | _ -> false));
      Alcotest.(check bool) "chain has the campaign" true
        (has (fun r ->
             match r.Forensics.ev with
             | Forensics.Probe (Probe.Election_started _) -> true
             | _ -> false));
      Alcotest.(check bool) "chain has granted votes" true
        (has (fun r ->
             match r.Forensics.ev with
             | Forensics.Vote { granted = true; _ } -> true
             | _ -> false));
      (* The chain crosses the network: the voters' records carry the
         winner's cause. *)
      Alcotest.(check bool) "chain spans several nodes" true
        (List.length
           (List.sort_uniq compare
              (List.map (fun r -> r.Forensics.node) e.chain))
        >= 2);
      (* Straggler vote responses and follower-side records stamped with
         the same cause can land after the win, so "contains", not
         "ends at". *)
      Alcotest.(check bool) "chain contains the winning role change" true
        (has (fun r ->
             match r.Forensics.ev with
             | Forensics.Probe
                 (Probe.Role_change { role = Raft.Types.Leader; _ }) ->
                 Node_id.to_int r.Forensics.node = e.winner
             | _ -> false));
      Alcotest.(check bool) "kill-driven elections are justified" true
        e.justified)
    elections

(* {1 Flight recorder} *)

(* Mirrors test_check's broken-toy pattern: a staged violation must
   carry whatever the registered flight-recorder hook returns. *)
let test_violation_carries_flight_dump () =
  let ids = Netsim.Node_id.range 2 in
  let a = Test_check.fake (List.nth ids 0)
  and b = Test_check.fake (List.nth ids 1) in
  let t = Check.create ~nodes:(List.map Test_check.view [ a; b ]) () in
  let ring = Forensics.create () in
  record_n ring 2;
  Check.set_flight_recorder t (fun () -> Forensics.tail ring 4);
  Check.check_now t;
  a.Test_check.role <- Raft.Types.Leader;
  a.Test_check.term <- 3;
  b.Test_check.role <- Raft.Types.Leader;
  b.Test_check.term <- 3;
  match Check.check_now t with
  | () -> Alcotest.fail "staged violation not raised"
  | exception Check.Violation v ->
      Alcotest.(check (list string)) "violation carries the ring tail"
        (Forensics.tail ring 4) v.Check.flight;
      (* The dump is part of the rendered report. *)
      let contains haystack needle =
        let n = String.length needle and h = String.length haystack in
        let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
        n = 0 || go 0
      in
      let rendered = Format.asprintf "%a" Check.pp_violation v in
      Alcotest.(check bool) "pp includes the flight recorder" true
        (List.for_all (contains rendered) (Forensics.tail ring 4))

let test_violation_default_flight_empty () =
  let ids = Netsim.Node_id.range 2 in
  let a = Test_check.fake (List.nth ids 0)
  and b = Test_check.fake (List.nth ids 1) in
  let t = Check.create ~nodes:(List.map Test_check.view [ a; b ]) () in
  Check.check_now t;
  a.Test_check.role <- Raft.Types.Leader;
  a.Test_check.term <- 3;
  b.Test_check.role <- Raft.Types.Leader;
  b.Test_check.term <- 3;
  match Check.check_now t with
  | () -> Alcotest.fail "staged violation not raised"
  | exception Check.Violation v ->
      Alcotest.(check (list string)) "no hook, no dump" [] v.Check.flight

let tests =
  [
    Alcotest.test_case "cause: pack/unpack round-trips" `Quick
      test_cause_roundtrip;
    Alcotest.test_case "cause: to_string" `Quick test_cause_to_string;
    to_alcotest prop_cause_roundtrip;
    Alcotest.test_case "ring: eviction order and dropped count" `Quick
      test_ring_eviction_order;
    Alcotest.test_case "ring: disabled is inert" `Quick
      test_forensics_disabled_inert;
    Alcotest.test_case "ring: renders fault, transfer and config lines" `Quick
      test_ring_render_other_events;
    Alcotest.test_case "ring: mirrors the probe trace" `Quick
      test_ring_mirrors_trace;
    Alcotest.test_case "recorder: cadence, dump, exports" `Quick
      test_recorder_cadence;
    Alcotest.test_case "recorder: disabled is inert" `Quick
      test_recorder_disabled_inert;
    Alcotest.test_case "recorder: merge shard prefixes" `Quick
      test_recorder_merge_prefixes;
    Alcotest.test_case "fig4: recorder series jobs-invariant, digest neutral"
      `Quick test_fig4_recorder_jobs_invariant;
    Alcotest.test_case "fig8: recorder series jobs-invariant" `Quick
      test_fig8_recorder_jobs_invariant;
    to_alcotest prop_recorder_jobs_invariant;
    Alcotest.test_case "explain: synthetic ring analysis" `Quick
      test_explain_analyze_synthetic;
    Alcotest.test_case "explain: rendered output (golden)" `Quick
      test_explain_print_golden;
    Alcotest.test_case "explain: live chains complete" `Quick
      test_explain_live_chains_complete;
    Alcotest.test_case "check: violation carries flight dump" `Quick
      test_violation_carries_flight_dump;
    Alcotest.test_case "check: default flight dump empty" `Quick
      test_violation_default_flight_empty;
    Alcotest.test_case "ring: digest neutral, checked or not" `Quick
      test_ring_digest_neutral;
  ]
