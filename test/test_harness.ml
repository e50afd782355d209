(* Tests for the experiment harness: cluster, fault injection, monitors,
   congestion, geo matrix and scenario smoke runs. *)

module Cluster = Harness.Cluster
module Fault = Harness.Fault
module Monitor = Harness.Monitor
module Time = Des.Time

let lan ?(rtt_ms = 10.) () =
  Netsim.Conditions.(constant (profile ~rtt_ms ~jitter:0.02 ()))

let make ?(seed = 17L) ?(n = 5) ?(config = Raft.Config.static ()) () =
  let c = Cluster.create ~seed ~n ~config ~conditions:(lan ()) () in
  Cluster.start c;
  c

(* {2 Cluster} *)

let test_cluster_shape () =
  let c = make ~n:7 () in
  Alcotest.(check int) "size" 7 (Cluster.size c);
  Alcotest.(check int) "quorum" 4 (Cluster.quorum c);
  Alcotest.(check int) "nodes listed" 7 (List.length (Cluster.nodes c));
  Alcotest.(check bool) "unknown id raises" true
    (try
       ignore (Cluster.node c (Netsim.Node_id.of_int 99));
       false
     with Invalid_argument _ -> true)

let test_cluster_rejects_empty () =
  Alcotest.(check bool) "n=0 rejected" true
    (try
       ignore (Cluster.create ~n:0 ~config:(Raft.Config.static ()) ());
       false
     with Invalid_argument _ -> true)

let test_await_leader_times_out_without_quorum () =
  let c = make ~n:3 () in
  List.iter (fun id -> Fault.pause c id) (Cluster.node_ids c);
  Alcotest.(check bool) "no leader from a fully paused cluster" true
    (Cluster.await_leader c ~timeout:(Time.sec 5) = None);
  (* Singletons never reach a quorum, so [boot] gives up and names the
     caller's label. *)
  let c = Cluster.create ~n:3 ~config:(Raft.Config.static ()) () in
  Cluster.partition c (List.map (fun id -> [ id ]) (Cluster.node_ids c));
  match Cluster.boot ~timeout:(Time.sec 5) c ~label:"singletons" with
  | _ -> Alcotest.fail "boot elected a leader across a full partition"
  | exception Failure msg ->
      Alcotest.(check string)
        "failure names the label" "singletons: no leader elected within 5.000s"
        msg

let test_submit_without_leader () =
  let c = make () in
  (* Before any election completes there is no leader. *)
  match
    Cluster.submit_target c ~payload:"x" ~client_id:1 ~seq:1
      ~on_result:(fun ~committed:_ -> ())
  with
  | `Not_leader None -> ()
  | `Not_leader (Some _) -> Alcotest.fail "no leader should be known yet"
  | `Accepted -> Alcotest.fail "nothing should accept yet"

(* {2 Fault} *)

let test_kill_leader_returns_id () =
  let c = make () in
  ignore (Cluster.await_leader c ~timeout:(Time.sec 20));
  let before = Option.get (Cluster.leader c) in
  match Fault.kill_leader c with
  | Some (id, _) ->
      Alcotest.(check int) "killed the current leader"
        (Netsim.Node_id.to_int (Raft.Node.id before))
        (Netsim.Node_id.to_int id);
      Alcotest.(check bool) "paused" true (Raft.Node.is_paused before)
  | None -> Alcotest.fail "expected a leader to kill"

let test_kill_leader_none_when_leaderless () =
  let c = make () in
  Alcotest.(check bool) "nothing to kill at t=0" true
    (Fault.kill_leader c = None)

let test_fail_and_measure_outcome_sanity () =
  let c = make () in
  ignore (Cluster.await_leader c ~timeout:(Time.sec 20));
  match Fault.fail_and_measure c () with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
      Alcotest.(check bool) "majority detection >= first detection" true
        (o.Fault.majority_detection_ms >= o.Fault.detection_ms);
      Alcotest.(check bool) "ots covers detection" true
        (o.Fault.ots_ms >= o.Fault.detection_ms);
      Alcotest.(check bool) "at least one election round" true
        (o.Fault.election_rounds >= 1);
      Alcotest.(check bool) "old leader recovered" false
        (Raft.Node.is_paused (Cluster.node c o.Fault.failed))

let test_repeated_failovers_stay_healthy () =
  let c = make ~config:(Raft.Config.dynatune ()) () in
  ignore (Cluster.await_leader c ~timeout:(Time.sec 20));
  for i = 1 to 5 do
    match Fault.fail_and_measure c () with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "iteration %d failed: %s" i msg
  done

(* Every field of three seeded failovers, pinned.  Raft-Low without
   pre-vote on links losing 10% of messages splits the vote each time
   (3, 10 and 6 rounds), twice with the majority detection lagging the
   first.  In the second, the new leader is lost again before the poll
   sees it, so campaigns after its election must not count. *)
let test_fail_and_measure_pinned () =
  let c =
    Cluster.create ~seed:270L ~n:5
      ~config:{ (Raft.Config.raft_low ()) with pre_vote = false }
      ~conditions:
        Netsim.Conditions.(
          constant (profile ~rtt_ms:10. ~jitter:0.02 ~loss:0.1 ()))
      ()
  in
  Cluster.start c;
  ignore (Cluster.await_leader c ~timeout:(Time.sec 20));
  let render (o : Fault.failure_outcome) =
    Printf.sprintf
      "n%d at %d: detect %.6f majority %.6f randTO %.6f ots %.6f -> n%d in %d"
      (Netsim.Node_id.to_int o.failed)
      o.failed_at o.detection_ms o.majority_detection_ms
      o.randomized_at_detection_ms o.ots_ms
      (Netsim.Node_id.to_int o.new_leader)
      o.election_rounds
  in
  let outcomes =
    List.init 3 (fun _ ->
        match Fault.fail_and_measure c () with
        | Ok o -> render o
        | Error msg -> Alcotest.fail msg)
  in
  Alcotest.(check (list string))
    "outcomes"
    [
      "n0 at 326541951: detect 125.658359 majority 125.658359 randTO \
       146.534615 ots 271.444557 -> n4 in 3";
      "n2 at 1480222641: detect 126.574244 majority 386.190985 randTO \
       182.214259 ots 638.214902 -> n3 in 10";
      "n0 at 3186361377: detect 105.467249 majority 356.150466 randTO \
       100.468480 ots 509.184092 -> n1 in 6";
    ]
    outcomes

(* {2 Monitor} *)

let test_monitor_randomized_sampling () =
  let c = make () in
  ignore (Cluster.await_leader c ~timeout:(Time.sec 20));
  let values = Monitor.randomized_timeouts_ms c in
  Alcotest.(check int) "one sample per follower" 4 (List.length values);
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "%.0f in [Et, 2Et)" v)
        true
        (v >= 1000. && v < 2000.))
    values;
  let majority =
    match Monitor.majority_randomized_ms c with
    | Some v -> v
    | None -> Alcotest.fail "majority randomized timeout unavailable"
  in
  let sorted = List.sort compare values in
  Alcotest.(check (float 1e-9)) "majority = (f+1)-th smallest"
    (List.nth sorted 2) majority

let test_monitor_watch_sample_count () =
  let c = make () in
  let points =
    Monitor.watch c ~every:(Time.sec 1) ~duration:(Time.sec 10) (fun _ -> 42.)
  in
  Alcotest.(check int) "ten samples" 10 (List.length points);
  List.iter (fun (_, v) -> Alcotest.(check (float 1e-9)) "value" 42. v) points

(* A window that is not a multiple of the period leaves no sampler
   armed: running on afterwards must not call the reader again. *)
let test_monitor_watch_leaves_nothing_armed () =
  let c = make () in
  let reads = ref 0 in
  let points =
    Monitor.watch c ~every:(Time.sec 2) ~duration:(Time.sec 5) (fun _ ->
        incr reads;
        1.)
  in
  Cluster.run_for c (Time.sec 10);
  Alcotest.(check int) "two samples" 2 (List.length points);
  Alcotest.(check int) "no read after the window" 2 !reads

(* Samples carry the instant they were taken, in seconds, oldest
   first, counted from wherever the simulation stood when [watch]
   was called. *)
let test_monitor_watch_times_oldest_first () =
  let c = make () in
  Cluster.run_for c (Time.sec 3);
  let start = Time.to_sec_f (Cluster.now c) in
  let points =
    Monitor.watch c ~every:(Time.ms 500) ~duration:(Time.sec 2) (fun c ->
        Time.to_sec_f (Cluster.now c))
  in
  let expected = List.map (fun k -> start +. k) [ 0.5; 1.0; 1.5; 2.0 ] in
  Alcotest.(check (list (float 1e-9)))
    "sample times" expected (List.map fst points);
  List.iter
    (fun (at, v) -> Alcotest.(check (float 1e-9)) "read at its time" at v)
    points

(* A missing sample stays a NaN at its place in the list, so a plotted
   series shows a gap there rather than losing the point. *)
let test_monitor_watch_keeps_nan_samples () =
  let c = make () in
  let reads = ref 0 in
  let points =
    Monitor.watch c ~every:(Time.sec 1) ~duration:(Time.sec 4) (fun _ ->
        incr reads;
        Monitor.gap (if !reads mod 2 = 0 then None else Some 7.))
  in
  Alcotest.(check (list bool))
    "NaN at every second sample" [ false; true; false; true ]
    (List.map (fun (_, v) -> Float.is_nan v) points)

let test_monitor_watch_rejects_nonpositive_period () =
  let c = make () in
  Alcotest.check_raises "zero period"
    (Invalid_argument "Monitor.watch: period must be positive") (fun () ->
      ignore
        (Monitor.watch c ~every:Time.zero ~duration:(Time.sec 1) (fun _ -> 0.)))

let test_monitor_leaderless_intervals () =
  let c = make () in
  ignore (Cluster.await_leader c ~timeout:(Time.sec 20));
  Cluster.run_for c (Time.sec 5);
  (* Kill the leader inside the window; measure the gap. *)
  let (killed_at, healed_at), w =
    Monitor.observe c (fun () ->
        let killed_at =
          match Fault.kill_leader c with
          | Some (_, at) -> at
          | None -> Alcotest.fail "no leader"
        in
        (match Cluster.await_leader c ~timeout:(Time.sec 30) with
        | Some _ -> ()
        | None -> Alcotest.fail "no recovery");
        let healed_at = Cluster.now c in
        Cluster.run_for c (Time.sec 2);
        (killed_at, healed_at))
  in
  (match w.Monitor.leaderless with
  | [ (s, e) ] ->
      Alcotest.(check int) "gap opens at the kill" killed_at s;
      Alcotest.(check bool) "gap closes by the poll" true
        (e > s && e <= healed_at)
  | l -> Alcotest.failf "expected one gap, got %d" (List.length l));
  let ots = Monitor.ots_ms w in
  Alcotest.(check bool)
    (Printf.sprintf "gap %.0fms plausible" ots)
    true
    (ots > 100. && ots < 10_000.)

(* Probes emitted by hand on an unstarted cluster, two of them at the
   instant the window opens: the lists hold exactly the expiries and
   campaigns stamped after it, oldest first, as many as a counter of
   those probes sees. *)
let test_monitor_window_lists () =
  let c = Cluster.create ~n:3 ~config:(Raft.Config.static ()) () in
  let trace = Cluster.trace c in
  let node = Netsim.Node_id.of_int in
  let expire i ms =
    Des.Mtrace.emit trace
      (Raft.Probe.Timeout_expired
         {
           id = node i;
           term = 1;
           randomized = Time.ms ms;
           et = Time.ms 1000;
           h = Time.ms 100;
           k = 0;
         })
  in
  let campaign i =
    Des.Mtrace.emit trace
      (Raft.Probe.Election_started { id = node i; term = 2 })
  in
  Cluster.run_for c (Time.sec 1);
  expire 0 1100;
  let (opened, (expiries, campaigns)), w =
    Monitor.observe c (fun () ->
        let opened = Cluster.now c in
        let expiries = ref 0 and campaigns = ref 0 in
        Des.Mtrace.during trace
          (fun time probe ->
            if time > opened then
              match probe with
              | Raft.Probe.Timeout_expired _ -> incr expiries
              | Raft.Probe.Election_started _ -> incr campaigns
              | _ -> ())
          (fun () ->
            expire 1 1200;
            campaign 1;
            Cluster.run_for c (Time.ms 5);
            expire 2 1300;
            campaign 2;
            Cluster.run_for c (Time.ms 5);
            expire 0 1400;
            campaign 0;
            campaign 2);
        (opened, (!expiries, !campaigns)))
  in
  let at ms = Time.add opened (Time.ms ms) in
  Alcotest.(check (list (triple int int int)))
    "expiries after the opening, in order"
    [ (at 5, 2, Time.ms 1300); (at 10, 0, Time.ms 1400) ]
    (List.map
       (fun (e : Monitor.expiry) ->
         (e.at, Netsim.Node_id.to_int e.node, e.randomized))
       w.Monitor.timeouts);
  Alcotest.(check (list int))
    "campaigns after the opening, in order" [ at 5; at 10; at 10 ]
    w.Monitor.elections;
  Alcotest.(check int) "as many expiries as counted" expiries
    (List.length w.Monitor.timeouts);
  Alcotest.(check int) "as many campaigns as counted" campaigns
    (List.length w.Monitor.elections)

(* The first Role_change to leader stamped while [body] runs. *)
let first_election c body =
  let elected = ref None in
  let result =
    Des.Mtrace.during (Cluster.trace c)
      (fun time -> function
        | Raft.Probe.Role_change { role = Raft.Types.Leader; _ }
          when !elected = None ->
            elected := Some time
        | _ -> ())
      body
  in
  match !elected with
  | Some at -> (result, at)
  | None -> Alcotest.fail "no leader elected"

let test_monitor_restarted_leader () =
  (* A crashed leader restarts as a follower long before anyone's
     timer expires: the cluster stays out of service until a new leader
     is elected, not just until the restart. *)
  let c = make () in
  ignore (Cluster.await_leader c ~timeout:(Time.sec 20));
  Cluster.run_for c (Time.sec 5);
  let leader =
    match Cluster.leader c with
    | Some l -> Raft.Node.id l
    | None -> Alcotest.fail "no leader"
  in
  let ((crashed_at, restarted_at), elected_at), w =
    Monitor.observe c (fun () ->
        let crashed_at = Cluster.now c in
        Fault.crash_and_restart c leader ~downtime:(Time.ms 10);
        let restarted_at = Cluster.now c in
        first_election c (fun () ->
            match Cluster.await_leader c ~timeout:(Time.sec 30) with
            | Some _ -> (crashed_at, restarted_at)
            | None -> Alcotest.fail "no recovery"))
  in
  Alcotest.(check bool) "elected after the restart" true
    (elected_at > restarted_at);
  Alcotest.(check (list (pair int int)))
    "one gap, from the crash to the new leader" [ (crashed_at, elected_at) ]
    w.Monitor.leaderless

let test_monitor_transfer_is_out_of_service () =
  (* A leader handing off refuses proposals: the window is out of
     service from Transfer_started to the target's election. *)
  let c = make () in
  ignore (Cluster.await_leader c ~timeout:(Time.sec 20));
  Cluster.run_for c (Time.sec 5);
  let leader =
    match Cluster.leader c with
    | Some l -> Raft.Node.id l
    | None -> Alcotest.fail "no leader"
  in
  let target =
    List.find
      (fun id -> not (Netsim.Node_id.equal id leader))
      (Cluster.node_ids c)
  in
  let (started_at, elected_at), w =
    Monitor.observe c (fun () ->
        Cluster.run_for c (Time.ms 50);
        let started_at = Cluster.now c in
        (match Cluster.transfer_leadership c target with
        | `Ok -> ()
        | `Not_leader -> Alcotest.fail "leader refused the transfer");
        let (), elected_at =
          first_election c (fun () -> Cluster.run_for c (Time.sec 2))
        in
        (started_at, elected_at))
  in
  (match Cluster.leader c with
  | Some l ->
      Alcotest.(check int) "target took over" (Netsim.Node_id.to_int target)
        (Netsim.Node_id.to_int (Raft.Node.id l))
  | None -> Alcotest.fail "no leader after the transfer");
  Alcotest.(check (list (pair int int)))
    "one gap, from the transfer start to the target's election"
    [ (started_at, elected_at) ]
    w.Monitor.leaderless

let test_monitor_no_ots_in_steady_state () =
  let c = make () in
  ignore (Cluster.await_leader c ~timeout:(Time.sec 20));
  let (), w = Monitor.observe c (fun () -> Cluster.run_for c (Time.sec 30)) in
  Alcotest.(check (float 1e-6)) "zero OTS" 0. (Monitor.ots_ms w)

(* {2 Congestion} *)

let test_congestion_episodes () =
  let rng = Stats.Rng.create ~seed:3L () in
  let spec =
    Netsim.Congestion.spec ~mean_gap:(Time.ms 500) ~extra_lo:(Time.ms 100)
      ~extra_hi:(Time.ms 200) ~duration:(Time.ms 100) ()
  in
  let c = Netsim.Congestion.create ~rng spec in
  let in_episode = ref 0 and out_of_episode = ref 0 in
  for i = 0 to 100_000 do
    let extra = Netsim.Congestion.extra_delay c ~now:(Time.ms i) in
    if extra > 0 then begin
      incr in_episode;
      if extra < Time.ms 100 || extra > Time.ms 200 then
        Alcotest.failf "extra %d outside bounds" extra
    end
    else incr out_of_episode
  done;
  let frac = float_of_int !in_episode /. 100_000. in
  (* Episodes of 100ms every ~600ms (gap + duration): expect ~1/6 of
     time congested. *)
  Alcotest.(check bool)
    (Printf.sprintf "congested fraction %.3f near 1/6" frac)
    true
    (frac > 0.10 && frac < 0.25)

let test_congestion_spec_validation () =
  List.iter
    (fun f ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore (f ());
           false
         with Invalid_argument _ -> true))
    [
      (fun () -> Netsim.Congestion.spec ~mean_gap:0 ());
      (fun () ->
        Netsim.Congestion.spec ~mean_gap:(Time.sec 1) ~extra_lo:(Time.ms 10)
          ~extra_hi:(Time.ms 5) ());
      (fun () -> Netsim.Congestion.spec ~mean_gap:(Time.sec 1) ~duration:0 ());
    ]

let test_congestion_delays_delivery () =
  let engine = Des.Engine.create ~seed:2L () in
  let fabric : string Netsim.Fabric.t = Netsim.Fabric.create engine in
  let a = Netsim.Node_id.of_int 0 and b = Netsim.Node_id.of_int 1 in
  Netsim.Fabric.add_node fabric a;
  Netsim.Fabric.add_node fabric b;
  Netsim.Fabric.set_uniform_conditions fabric
    Netsim.Conditions.(constant (profile ~rtt_ms:10. ()));
  (* An always-on congestion process: first episode starts immediately
     in expectation terms; force it by a tiny mean gap and long duration. *)
  Netsim.Fabric.set_egress_congestion fabric a
    (Netsim.Congestion.spec ~mean_gap:(Time.ms 1) ~extra_lo:(Time.ms 300)
       ~extra_hi:(Time.ms 300) ~duration:(Time.sec 3600) ());
  Des.Engine.run_until engine (Time.sec 1);
  let arrival = ref Time.zero in
  Netsim.Fabric.set_handler fabric b (fun ~src:_ ~cause:_ _ ->
      arrival := Des.Engine.now engine);
  Netsim.Fabric.send fabric Netsim.Transport.Datagram ~cause:0 ~src:a ~dst:b
    "x";
  Des.Engine.run engine;
  Alcotest.(check int) "delayed by the episode extra"
    (Time.sec 1 + Time.ms 305) !arrival

(* {2 Geo} *)

let test_geo_matrix_symmetric () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check (float 1e-9)) "symmetric"
            (Scenarios.Geo.rtt_ms a b) (Scenarios.Geo.rtt_ms b a))
        Scenarios.Geo.regions)
    Scenarios.Geo.regions

let test_geo_requires_five_nodes () =
  let c = make ~n:3 () in
  Alcotest.(check bool) "rejects n=3" true
    (try
       Scenarios.Geo.apply c;
       false
     with Invalid_argument _ -> true)

let test_geo_longest_path_sydney_saopaulo () =
  let worst =
    List.concat_map
      (fun a -> List.map (fun b -> ((a, b), Scenarios.Geo.rtt_ms a b)) Scenarios.Geo.regions)
      Scenarios.Geo.regions
    |> List.fold_left (fun (p, m) (q, v) -> if v > m then (q, v) else (p, m))
         ((Scenarios.Geo.Tokyo, Scenarios.Geo.Tokyo), 0.)
  in
  match worst with
  | ((a, b), _) ->
      let names = List.sort compare [ Scenarios.Geo.name a; Scenarios.Geo.name b ] in
      Alcotest.(check (list string)) "worst path" [ "sao-paulo"; "sydney" ] names

(* {2 Scenario smoke runs (tiny parameters)} *)

let test_fig4_smoke () =
  let r =
    Scenarios.Fig4.run ~seed:1L ~failures:3 ~warmup:(Time.sec 10)
      ~config:(Raft.Config.static ()) ()
  in
  Alcotest.(check int) "three failovers measured" 3 r.Scenarios.Fig4.failures;
  Alcotest.(check bool) "detection in a plausible band" true
    (Stats.Summary.mean r.Scenarios.Fig4.detection > 500.
    && Stats.Summary.mean r.Scenarios.Fig4.detection < 2500.)

let test_fig4_instrument_keeps_digest () =
  (* Instrumented servers add Tuner_decision probes; the digest must not
     see them. *)
  let digest instrument =
    (Scenarios.Fig4.run ~seed:42L ~failures:20 ~instrument
       ~config:(Raft.Config.dynatune ()) ())
      .Scenarios.Fig4.digest
  in
  Alcotest.(check int64) "same digest instrumented" (digest false)
    (digest true)

(* The report's banner describes the run it prints, not the paper's
   default setup. *)
let test_fig4_banner_names_setup () =
  let r =
    Scenarios.Fig4.run ~seed:1L ~n:3 ~rtt_ms:40. ~failures:1
      ~warmup:(Time.sec 10) ~config:(Raft.Config.static ()) ()
  in
  let lines =
    String.split_on_char '\n'
      (Format.asprintf "%a" Scenarios.Fig4.print [ r ])
  in
  Alcotest.(check bool) "banner names 3 servers and RTT 40ms" true
    (List.mem "= Fig 4: detection & OTS time CDFs (3 servers, RTT 40ms, p=0) ="
       lines)

(* At the paper's setup the banner is the text the figures golden pins. *)
let test_fig4_banner_default_setup () =
  let r =
    Scenarios.Fig4.run ~seed:1L ~failures:1 ~warmup:(Time.sec 10)
      ~config:(Raft.Config.static ()) ()
  in
  let lines =
    String.split_on_char '\n'
      (Format.asprintf "%a" Scenarios.Fig4.print [ r ])
  in
  Alcotest.(check bool) "banner names 5 servers and RTT 100ms" true
    (List.mem
       "= Fig 4: detection & OTS time CDFs (5 servers, RTT 100ms, p=0) ="
       lines)

let test_fig6_radical_smoke () =
  let r =
    Scenarios.Fig6.run ~seed:1L ~hold:(Time.sec 5)
      ~pattern:Scenarios.Fig6.Radical ~config:(Raft.Config.dynatune ()) ()
  in
  Alcotest.(check bool) "sampled" true (List.length r.Scenarios.Fig6.majority_timeout > 5);
  Alcotest.(check string) "mode" "dynatune" r.Scenarios.Fig6.mode

let test_fig7_smoke () =
  let run config =
    Scenarios.Fig7.run ~seed:1L ~hold:(Time.sec 2) ~n:3 ~config ()
  in
  let r = run (Raft.Config.fix_k ~k:10 ()) in
  Alcotest.(check string) "mode" "fix-k" r.Scenarios.Fig7.mode;
  Alcotest.(check int) "n recorded" 3 r.Scenarios.Fig7.n;
  Alcotest.(check int) "no unnecessary elections" 0 r.Scenarios.Fig7.elections;
  Alcotest.(check int) "no timer expiries" 0 r.Scenarios.Fig7.timer_expiries;
  (* Dynatune's window counts are pinned exactly: its tuned Et trips a
     few times under the loss ramp, and no trip becomes an election. *)
  let d = run (Raft.Config.dynatune ()) in
  Alcotest.(check int) "dynatune timer expiries" 3
    d.Scenarios.Fig7.timer_expiries;
  Alcotest.(check int) "dynatune elections" 0 d.Scenarios.Fig7.elections

(* The CPU-model figure's series, pinned exactly: the heartbeat
   interval toward one follower and the leader's and that follower's
   5 s CPU windows, 5 nodes on 2 cores under the etcd-like cost model. *)
let test_fig7_series_pinned () =
  let series = Alcotest.(list (pair (float 0.) (float 0.))) in
  let check config ~h ~leader_cpu ~follower_cpu =
    let r = Scenarios.Fig7.run ~seed:1L ~hold:(Time.sec 2) ~n:5 ~config () in
    let mode = r.Scenarios.Fig7.mode in
    Alcotest.check series (mode ^ " h") h r.Scenarios.Fig7.h;
    Alcotest.check series (mode ^ " leader cpu") leader_cpu
      r.Scenarios.Fig7.leader_cpu;
    Alcotest.check series (mode ^ " follower cpu") follower_cpu
      r.Scenarios.Fig7.follower_cpu
  in
  check (Raft.Config.dynatune ())
    ~h:
      [
        (35., 204.87978100000001);
        (40., 204.84821199999999);
        (45., 204.84821199999999);
        (50., 41.176521999999999);
        (55., 68.499723000000003);
      ]
    ~leader_cpu:
      [
        (35., 0.66020000000000001);
        (40., 0.59630000000000005);
        (45., 1.4390999999999998);
        (50., 2.6894999999999998);
        (55., 2.3640000000000003);
      ]
    ~follower_cpu:
      [
        (35., 0.092999999999999999);
        (40., 0.076300000000000007);
        (45., 0.057599999999999998);
        (50., 0.2412);
        (55., 0.3276);
      ];
  check
    (Raft.Config.fix_k ~k:10 ())
    ~h:
      [
        (35., 20.455871999999999);
        (40., 20.399184000000002);
        (45., 20.492215000000002);
        (50., 20.524986999999999);
        (55., 20.625831999999999);
      ]
    ~leader_cpu:
      [
        (35., 6.5184000000000006);
        (40., 5.9166000000000007);
        (45., 5.4066000000000001);
        (50., 5.7294);
        (55., 6.3995999999999995);
      ]
    ~follower_cpu:
      [
        (35., 0.84239999999999993);
        (40., 0.71999999999999997);
        (45., 0.6552);
        (50., 0.73080000000000001);
        (55., 0.81359999999999988);
      ]

let test_extensions_variants () =
  let vs = Scenarios.Extensions.variants () in
  Alcotest.(check int) "four variants" 4 (List.length vs);
  List.iter
    (fun v ->
      match Raft.Config.validate v.Scenarios.Extensions.config with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s invalid: %s" v.Scenarios.Extensions.label m)
    vs

let tests =
  [
    Alcotest.test_case "cluster: shape" `Quick test_cluster_shape;
    Alcotest.test_case "cluster: rejects n=0" `Quick test_cluster_rejects_empty;
    Alcotest.test_case "cluster: await without quorum" `Quick
      test_await_leader_times_out_without_quorum;
    Alcotest.test_case "cluster: submit without leader" `Quick
      test_submit_without_leader;
    Alcotest.test_case "fault: kill leader" `Quick test_kill_leader_returns_id;
    Alcotest.test_case "fault: kill without leader" `Quick
      test_kill_leader_none_when_leaderless;
    Alcotest.test_case "fault: outcome sanity" `Quick
      test_fail_and_measure_outcome_sanity;
    Alcotest.test_case "fault: three failovers pinned" `Quick
      test_fail_and_measure_pinned;
    Alcotest.test_case "fault: repeated failovers" `Quick
      test_repeated_failovers_stay_healthy;
    Alcotest.test_case "monitor: randomized sampling" `Quick
      test_monitor_randomized_sampling;
    Alcotest.test_case "monitor: watch sample count" `Quick
      test_monitor_watch_sample_count;
    Alcotest.test_case "monitor: watch leaves nothing armed" `Quick
      test_monitor_watch_leaves_nothing_armed;
    Alcotest.test_case "monitor: leaderless intervals" `Quick
      test_monitor_leaderless_intervals;
    Alcotest.test_case "monitor: window lists expiries and campaigns" `Quick
      test_monitor_window_lists;
    Alcotest.test_case "monitor: steady state has no OTS" `Quick
      test_monitor_no_ots_in_steady_state;
    Alcotest.test_case "monitor: a restarted leader is not serving" `Quick
      test_monitor_restarted_leader;
    Alcotest.test_case "monitor: a transferring leader is not serving" `Quick
      test_monitor_transfer_is_out_of_service;
    Alcotest.test_case "congestion: episode process" `Quick
      test_congestion_episodes;
    Alcotest.test_case "congestion: spec validation" `Quick
      test_congestion_spec_validation;
    Alcotest.test_case "congestion: delays delivery" `Quick
      test_congestion_delays_delivery;
    Alcotest.test_case "geo: symmetric matrix" `Quick test_geo_matrix_symmetric;
    Alcotest.test_case "geo: requires 5 nodes" `Quick test_geo_requires_five_nodes;
    Alcotest.test_case "geo: worst path" `Quick
      test_geo_longest_path_sydney_saopaulo;
    Alcotest.test_case "scenario smoke: fig4" `Slow test_fig4_smoke;
    Alcotest.test_case "fig4: instrumentation keeps the digest" `Quick
      test_fig4_instrument_keeps_digest;
    Alcotest.test_case "scenario smoke: fig6b" `Slow test_fig6_radical_smoke;
    Alcotest.test_case "scenario smoke: fig7" `Slow test_fig7_smoke;
    Alcotest.test_case "fig7: series pinned" `Quick test_fig7_series_pinned;
    Alcotest.test_case "extensions: variants valid" `Quick
      test_extensions_variants;
    Alcotest.test_case "monitor: watch times in seconds, oldest first" `Quick
      test_monitor_watch_times_oldest_first;
    Alcotest.test_case "monitor: watch keeps NaN samples" `Quick
      test_monitor_watch_keeps_nan_samples;
    Alcotest.test_case "monitor: watch rejects a non-positive period" `Quick
      test_monitor_watch_rejects_nonpositive_period;
    Alcotest.test_case "fig4: banner names the run's servers and RTT" `Quick
      test_fig4_banner_names_setup;
    Alcotest.test_case "fig4: default banner is the paper's setup" `Quick
      test_fig4_banner_default_setup;
  ]
