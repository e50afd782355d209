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
  let series =
    Monitor.watch c ~every:(Time.sec 1) ~duration:(Time.sec 10)
      ~probes:[ { Monitor.name = "const"; read = (fun _ -> 42.) } ]
  in
  match series with
  | [ ("const", ts) ] ->
      Alcotest.(check int) "ten samples" 10 (Stats.Timeseries.length ts);
      List.iter
        (fun (_, v) -> Alcotest.(check (float 1e-9)) "value" 42. v)
        (Stats.Timeseries.points ts)
  | _ -> Alcotest.fail "expected one series"

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
  Netsim.Fabric.set_handler fabric b (fun ~src:_ _ ->
      arrival := Des.Engine.now engine);
  Netsim.Fabric.send fabric Netsim.Transport.Datagram ~src:a ~dst:b "x";
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
       Scenarios.Geo.apply c ();
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
    Alcotest.test_case "fault: repeated failovers" `Quick
      test_repeated_failovers_stay_healthy;
    Alcotest.test_case "monitor: randomized sampling" `Quick
      test_monitor_randomized_sampling;
    Alcotest.test_case "monitor: watch sample count" `Quick
      test_monitor_watch_sample_count;
    Alcotest.test_case "monitor: leaderless intervals" `Quick
      test_monitor_leaderless_intervals;
    Alcotest.test_case "monitor: steady state has no OTS" `Quick
      test_monitor_no_ots_in_steady_state;
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
    Alcotest.test_case "scenario smoke: fig6b" `Slow test_fig6_radical_smoke;
    Alcotest.test_case "scenario smoke: fig7" `Slow test_fig7_smoke;
    Alcotest.test_case "extensions: variants valid" `Quick
      test_extensions_variants;
  ]
