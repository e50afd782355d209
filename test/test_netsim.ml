(* Unit tests for the network model. *)

module Time = Des.Time
module Engine = Des.Engine
module Node_id = Netsim.Node_id
module Conditions = Netsim.Conditions
module Link = Netsim.Link
module Transport = Netsim.Transport
module Fabric = Netsim.Fabric
module Cpu = Netsim.Cpu

let profile = Conditions.profile

(* {2 Node_id} *)

let test_node_id_basics () =
  let a = Node_id.of_int 3 in
  Alcotest.(check int) "round trip" 3 (Node_id.to_int a);
  Alcotest.(check bool) "equal" true (Node_id.equal a (Node_id.of_int 3));
  Alcotest.(check int) "range length" 5 (List.length (Node_id.range 5));
  Alcotest.(check bool) "negative rejected" true
    (try
       ignore (Node_id.of_int (-1));
       false
     with Invalid_argument _ -> true)

(* {2 Conditions} *)

let test_conditions_constant () =
  let c = Conditions.constant (profile ~rtt_ms:50. ()) in
  Alcotest.(check (float 1e-9)) "always same" 50.
    (Conditions.at c (Time.sec 1000)).Conditions.rtt_ms

let test_conditions_staircase () =
  let c =
    Conditions.staircase ~hold:(Time.sec 60)
      [
        profile ~rtt_ms:50. ();
        profile ~rtt_ms:100. ();
        profile ~rtt_ms:150. ();
      ]
  in
  let rtt_at t = (Conditions.at c t).Conditions.rtt_ms in
  Alcotest.(check (float 1e-9)) "segment 0" 50. (rtt_at Time.zero);
  Alcotest.(check (float 1e-9)) "segment 0 end" 50.
    (rtt_at (Time.sec 60 - 1));
  Alcotest.(check (float 1e-9)) "segment 1" 100. (rtt_at (Time.sec 60));
  Alcotest.(check (float 1e-9)) "segment 2" 150. (rtt_at (Time.sec 125));
  Alcotest.(check (float 1e-9)) "last persists" 150. (rtt_at (Time.sec 9999))

let test_conditions_rtt_staircase () =
  let base = profile ~rtt_ms:0. ~loss:0.25 () in
  let c =
    Conditions.rtt_staircase ~base ~hold:(Time.sec 1) ~rtts_ms:[ 10.; 20. ]
  in
  let p = Conditions.at c (Time.sec 1) in
  Alcotest.(check (float 1e-9)) "rtt varies" 20. p.Conditions.rtt_ms;
  Alcotest.(check (float 1e-9)) "loss preserved" 0.25 p.Conditions.loss

let test_conditions_validation () =
  Alcotest.(check bool) "loss > 1 rejected" true
    (try
       ignore (profile ~rtt_ms:1. ~loss:1.5 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty piecewise rejected" true
    (try
       ignore (Conditions.piecewise []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-zero start rejected" true
    (try
       ignore (Conditions.piecewise [ (Time.sec 1, profile ~rtt_ms:1. ()) ]);
       false
     with Invalid_argument _ -> true)

(* {2 Link} *)

let make_link ?(seed = 1L) conditions =
  let e = Engine.create ~seed () in
  (e, Link.create e ~rng:(Stats.Rng.create ~seed ()) conditions)

(* One datagram sample read back as a variant: the packed latency and
   the duplicate copy parked for [Link.dup_latency]. *)
type sample = Lost | Delivered of Time.span | Duplicated of Time.span * Time.span

let sample l =
  match Link.sample_datagram l with
  | -1 -> Lost
  | d -> (
      match Link.dup_latency l with -1 -> Delivered d | d2 -> Duplicated (d, d2))

let test_link_delay_is_half_rtt () =
  let _, l = make_link (Conditions.constant (profile ~rtt_ms:100. ())) in
  (match sample l with
  | Delivered d -> Alcotest.(check int) "one-way = rtt/2" (Time.ms 50) d
  | Lost | Duplicated _ -> Alcotest.fail "lossless link dropped");
  Alcotest.(check int) "reliable same" (Time.ms 50) (Link.sample_reliable l)

(* The link keeps the segment it last found and searches again only
   when the clock leaves it or [set_conditions] replaces the schedule:
   every instant either side of a staircase boundary, then two swaps of
   schedule mid-run, must still read the profile in force. *)
let test_link_segment_cache () =
  let e, l =
    make_link
      (Conditions.rtt_staircase ~base:(profile ~rtt_ms:0. ()) ~hold:(Time.ms 100)
         ~rtts_ms:[ 10.; 20.; 30.; 40. ])
  in
  let one_way what want =
    Alcotest.(check int) what want (Link.sample_datagram l);
    match sample l with
    | Delivered d -> Alcotest.(check int) (what ^ " (outcome)") want d
    | Lost | Duplicated _ -> Alcotest.fail "lossless link dropped"
  in
  List.iter
    (fun (at, ms) ->
      Engine.run_until e at;
      one_way (Printf.sprintf "at %dns" at) (Time.ms ms))
    [
      (0, 5);
      (Time.ms 100 - 1, 5);
      (Time.ms 100, 10);
      (Time.ms 150, 10);
      (Time.ms 200 - 1, 10);
      (Time.ms 200, 15);
      (Time.ms 300, 20);
      (Time.sec 5, 20);
    ];
  (* A schedule whose segment in force has a lower index than the one
     cached, then a constant one. *)
  Link.set_conditions l
    (Conditions.rtt_staircase ~base:(profile ~rtt_ms:0. ()) ~hold:(Time.sec 4)
       ~rtts_ms:[ 60.; 80. ]);
  one_way "after set_conditions" (Time.ms 40);
  Engine.run_until e (Time.sec 9);
  one_way "later in the new schedule" (Time.ms 40);
  Link.set_conditions l (Conditions.constant (profile ~rtt_ms:2. ()));
  one_way "constant" (Time.ms 1);
  Alcotest.(check int) "reliable follows" (Time.ms 1) (Link.sample_reliable l)

let test_link_loss_rate () =
  let _, l =
    make_link (Conditions.constant (profile ~rtt_ms:10. ~loss:0.5 ()))
  in
  let lost = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    match sample l with Lost -> incr lost | Delivered _ | Duplicated _ -> ()
  done;
  let rate = float_of_int !lost /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "observed loss %.3f near 0.5" rate)
    true
    (rate > 0.48 && rate < 0.52)

let test_link_jitter_mean_preserved () =
  let _, l =
    make_link (Conditions.constant (profile ~rtt_ms:100. ~jitter:0.3 ()))
  in
  let w = Stats.Welford.create () in
  for _ = 1 to 50_000 do
    match sample l with
    | Delivered d -> Stats.Welford.add w (Time.to_ms_f d)
    | Lost | Duplicated _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f near 50" (Stats.Welford.mean w))
    true
    (abs_float (Stats.Welford.mean w -. 50.) < 1.)

let test_link_reliable_never_drops () =
  let _, l =
    make_link (Conditions.constant (profile ~rtt_ms:10. ~loss:0.9 ()))
  in
  for _ = 1 to 1000 do
    let d = Link.sample_reliable l in
    if d < Time.ms 5 then Alcotest.fail "latency below one-way minimum"
  done

(* The documented worst case: at loss 1.0 every one of the 8
   retransmissions fires, with the RTO doubling from max(200ms, 2*RTT),
   so a message arrives 255*RTO plus the one-way delay late. *)
let test_link_reliable_worst_case_bound () =
  List.iter
    (fun (rtt_ms, rto_ms) ->
      let _, l =
        make_link (Conditions.constant (profile ~rtt_ms ~loss:1.0 ()))
      in
      let one_way = Time.of_ms_f (rtt_ms /. 2.) in
      Alcotest.(check int)
        (Printf.sprintf "RTT %.0fms: 255 RTOs of %dms + one way" rtt_ms rto_ms)
        ((255 * Time.ms rto_ms) + one_way)
        (Link.sample_reliable l);
      Alcotest.(check int) "every retransmission spent" 8
        (Link.counters l).Link.retransmissions)
    [ (200., 400); (10., 200) ]

let test_link_reliable_loss_adds_delay () =
  let _, lossy =
    make_link (Conditions.constant (profile ~rtt_ms:10. ~loss:0.5 ()))
  in
  let _, clean = make_link (Conditions.constant (profile ~rtt_ms:10. ())) in
  let mean samples l =
    let w = Stats.Welford.create () in
    for _ = 1 to samples do
      Stats.Welford.add w (Time.to_ms_f (Link.sample_reliable l))
    done;
    Stats.Welford.mean w
  in
  Alcotest.(check bool) "retransmission penalty" true
    (mean 2000 lossy > mean 2000 clean +. 50.)

let test_link_duplication () =
  let _, l =
    make_link (Conditions.constant (profile ~rtt_ms:10. ~duplicate:1.0 ()))
  in
  match sample l with
  | Duplicated _ -> ()
  | Delivered _ | Lost -> Alcotest.fail "expected duplication"

(* {2 Transport.Channel} *)

let test_channel_fifo () =
  let ch = Transport.Channel.create () in
  let d1 = Transport.Channel.delivery_time ch ~now:0 ~latency:(Time.ms 100) in
  (* Second message sent later but with a much smaller latency must not
     overtake the first. *)
  let d2 =
    Transport.Channel.delivery_time ch ~now:(Time.ms 10) ~latency:(Time.ms 1)
  in
  Alcotest.(check bool) "in order" true (d2 > d1)

(* {2 Fabric} *)

let make_fabric ?(n = 3) ?(conditions = Conditions.constant (profile ~rtt_ms:10. ()))
    () =
  let e = Engine.create ~seed:5L () in
  let f : string Fabric.t = Fabric.create e in
  let ids = Node_id.range n in
  List.iter (Fabric.add_node f) ids;
  Fabric.set_uniform_conditions f conditions;
  (e, f, ids)

let test_fabric_delivers () =
  let e, f, ids = make_fabric () in
  let received = ref [] in
  let n0 = List.nth ids 0 and n1 = List.nth ids 1 in
  Fabric.set_handler f n1 (fun ~src ~cause:_ msg ->
      received := (src, msg, Engine.now e) :: !received);
  Fabric.send f Transport.Datagram ~cause:0 ~src:n0 ~dst:n1 "hello";
  Engine.run e;
  match !received with
  | [ (src, "hello", at) ] ->
      Alcotest.(check int) "from n0" 0 (Node_id.to_int src);
      Alcotest.(check int) "after one-way delay" (Time.ms 5) at
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_fabric_pause_drops () =
  let e, f, ids = make_fabric () in
  let received = ref 0 in
  let n0 = List.nth ids 0 and n1 = List.nth ids 1 in
  Fabric.set_handler f n1 (fun ~src:_ ~cause:_ _ -> incr received);
  Fabric.pause f n1;
  Fabric.send f Transport.Datagram ~cause:0 ~src:n0 ~dst:n1 "x";
  Engine.run e;
  Alcotest.(check int) "paused node receives nothing" 0 !received;
  Fabric.resume f n1;
  Fabric.send f Transport.Datagram ~cause:0 ~src:n0 ~dst:n1 "y";
  Engine.run e;
  Alcotest.(check int) "resumed node receives" 1 !received;
  Alcotest.(check int) "drop counted" 1 (Fabric.counters f).Fabric.dropped_paused

let test_fabric_reliable_fifo_under_loss () =
  let e, f, ids =
    make_fabric
      ~conditions:(Conditions.constant (profile ~rtt_ms:10. ~loss:0.4 ()))
      ()
  in
  let n0 = List.nth ids 0 and n1 = List.nth ids 1 in
  let received = ref [] in
  Fabric.set_handler f n1 (fun ~src:_ ~cause:_ msg -> received := msg :: !received);
  for i = 1 to 50 do
    Fabric.send f Transport.Reliable ~cause:0 ~src:n0 ~dst:n1 (string_of_int i)
  done;
  Engine.run e;
  let got = List.rev_map int_of_string !received in
  Alcotest.(check (list int)) "all delivered in order" (List.init 50 (fun i -> i + 1)) got

let test_fabric_per_pair_conditions () =
  let e, f, ids = make_fabric () in
  let n0 = List.nth ids 0 and n2 = List.nth ids 2 in
  Fabric.set_conditions f ~src:n0 ~dst:n2
    (Conditions.constant (profile ~rtt_ms:200. ()));
  let at = ref Time.zero in
  Fabric.set_handler f n2 (fun ~src:_ ~cause:_ _ -> at := Engine.now e);
  Fabric.send f Transport.Datagram ~cause:0 ~src:n0 ~dst:n2 "slow";
  Engine.run e;
  Alcotest.(check int) "overridden delay" (Time.ms 100) !at

let test_fabric_self_send_immediate () =
  let e, f, ids = make_fabric () in
  let n0 = List.nth ids 0 in
  let got = ref false in
  Fabric.set_handler f n0 (fun ~src:_ ~cause:_ _ -> got := true);
  Fabric.send f Transport.Datagram ~cause:0 ~src:n0 ~dst:n0 "loop";
  Alcotest.(check bool) "delivered synchronously" true !got;
  Engine.run e

let send f kind ~src ~dst msg = Fabric.send f kind ~cause:0 ~src ~dst msg

(* The fabric's per-pair observables: which directed pairs
   [link_counters] and [link_queue_depths] list, what [pending] reports,
   and that a re-added node starts on fresh links. *)
let test_fabric_pair_observables () =
  let pairs l = List.map fst l in
  let all3 = [ (0, 1); (0, 2); (1, 0); (1, 2); (2, 0); (2, 1) ] in
  (* Uniform conditions configure every pair. *)
  let _, f, _ = make_fabric () in
  Alcotest.(check (list (pair int int))) "configured pairs listed" all3
    (pairs (Fabric.link_counters f));
  (* Without configuration, only the pairs that sent are listed. *)
  let e = Engine.create ~seed:5L () in
  let f : string Fabric.t = Fabric.create e in
  let n = Array.of_list (Node_id.range 3) in
  Array.iter (Fabric.add_node f) n;
  send f Transport.Datagram ~src:n.(0) ~dst:n.(1) "a";
  send f Transport.Datagram ~src:n.(2) ~dst:n.(2) "self";
  Engine.run e;
  Alcotest.(check (list (pair int int))) "sent pairs listed" [ (0, 1) ]
    (pairs (Fabric.link_counters f));
  (* Serialization set before the first send: exactly the pairs that
     sent get an egress. *)
  let e, f, _ = make_fabric () in
  Fabric.set_uniform_serialization f (Time.ms 1);
  send f Transport.Datagram ~src:n.(0) ~dst:n.(1) "a";
  send f Transport.Datagram ~src:n.(0) ~dst:n.(1) "b";
  send f Transport.Reliable ~src:n.(2) ~dst:n.(0) "c";
  Alcotest.(check int) "queued on 0->1" 2 (Fabric.pending f ~src:n.(0) ~dst:n.(1));
  Alcotest.(check int) "idle serialized pair" 0
    (Fabric.pending f ~src:n.(1) ~dst:n.(2));
  Alcotest.(check int) "unknown pair" 0
    (Fabric.pending f ~src:(Node_id.of_int 7) ~dst:(Node_id.of_int 8));
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Fabric.pending f ~src:n.(0) ~dst:n.(1));
  Alcotest.(check (list (pair (pair int int) int))) "queue depths of senders"
    [ ((0, 1), 2); ((2, 0), 1) ]
    (Fabric.link_queue_depths f);
  Alcotest.(check (list (pair int int))) "counters unchanged by serialization"
    all3 (pairs (Fabric.link_counters f));
  let _, f, _ = make_fabric () in
  send f Transport.Datagram ~src:n.(0) ~dst:n.(1) "a";
  Alcotest.(check int) "unserialized pair" 0
    (Fabric.pending f ~src:n.(0) ~dst:n.(1));
  Alcotest.(check (list (pair (pair int int) int))) "no egress unserialized" []
    (Fabric.link_queue_depths f);
  (* Serialization configures no pair of its own. *)
  let e = Engine.create ~seed:5L () in
  let f : string Fabric.t = Fabric.create e in
  let ids = Node_id.range 6 in
  List.iter (Fabric.add_node f) ids;
  let c = Conditions.constant (profile ~rtt_ms:10. ()) in
  List.iter
    (fun (a, b) -> Fabric.set_pair_conditions f (Node_id.of_int a) (Node_id.of_int b) c)
    [ (0, 1); (0, 2); (1, 2); (3, 4); (3, 5); (4, 5) ];
  let before = pairs (Fabric.link_counters f) in
  Alcotest.(check int) "intra-group pairs" 12 (List.length before);
  Fabric.set_uniform_serialization f (Time.ms 1);
  Alcotest.(check (list (pair int int))) "no pair added" before
    (pairs (Fabric.link_counters f));
  (* A node re-added under the same id starts on fresh links. *)
  let e, f, _ = make_fabric () in
  let sent_on f pair =
    (List.assoc pair (Fabric.link_counters f)).Link.sent
  in
  Fabric.set_handler f n.(1) (fun ~src:_ ~cause:_ _ -> ());
  send f Transport.Datagram ~src:n.(0) ~dst:n.(1) "a";
  Engine.run e;
  Alcotest.(check int) "old link used" 1 (sent_on f (0, 1));
  Fabric.remove_node f n.(1);
  Fabric.add_node f n.(1);
  Fabric.set_handler f n.(1) (fun ~src:_ ~cause:_ _ -> ());
  send f Transport.Datagram ~src:n.(0) ~dst:n.(1) "b";
  Engine.run e;
  Alcotest.(check int) "counters restart" 1 (sent_on f (0, 1))

let test_fabric_unregistered_pair_rejected () =
  let _, f, ids = make_fabric () in
  let ghost = Node_id.of_int 9 in
  let c = Conditions.constant (profile ~rtt_ms:10. ()) in
  let raises g =
    try
      g ();
      false
    with Invalid_argument _ -> true
  in
  let n0 = List.hd ids in
  Alcotest.(check bool) "unregistered destination" true
    (raises (fun () -> Fabric.set_conditions f ~src:n0 ~dst:ghost c));
  Alcotest.(check bool) "unregistered source" true
    (raises (fun () -> Fabric.set_conditions f ~src:ghost ~dst:n0 c));
  Fabric.add_node f ghost;
  Alcotest.(check bool) "no link inherited" false
    (List.mem_assoc (0, 9) (Fabric.link_counters f))

(* Every delivery path hands the receiver the cause its sender passed:
   an ideal link, a serialized egress where the urgent lane overtakes a
   queued bulk message, both copies of a duplicated datagram, an
   untracked send and a self-send. *)
let test_fabric_cause_reaches_handler () =
  let e, f, ids = make_fabric () in
  let n0 = List.nth ids 0 and n1 = List.nth ids 1 and n2 = List.nth ids 2 in
  let seen = ref [] in
  let record ~src:_ ~cause msg = seen := (msg, cause) :: !seen in
  List.iter (fun id -> Fabric.set_handler f id record) ids;
  let drain () =
    Engine.run e;
    let got = List.rev !seen in
    seen := [];
    got
  in
  let check name want got =
    Alcotest.(check (list (pair string int))) name want got
  in
  Fabric.send f Transport.Datagram ~cause:7 ~src:n0 ~dst:n1 "ideal";
  check "ideal link" [ ("ideal", 7) ] (drain ());
  Fabric.set_uniform_serialization f (Time.ms 1);
  Fabric.send f Transport.Reliable ~cause:10 ~src:n0 ~dst:n1 "wire";
  Fabric.send f Transport.Reliable ~lane:Transport.Bulk ~cause:11 ~src:n0
    ~dst:n1 "bulk";
  Fabric.send f Transport.Reliable ~lane:Transport.Urgent ~cause:12 ~src:n0
    ~dst:n1 "urgent";
  check "urgent overtakes bulk, each with its cause"
    [ ("wire", 10); ("urgent", 12); ("bulk", 11) ]
    (drain ());
  Fabric.set_uniform_serialization f 0;
  Fabric.set_conditions f ~src:n0 ~dst:n2
    (Conditions.constant (profile ~rtt_ms:10. ~duplicate:1.0 ()));
  Fabric.send f Transport.Datagram ~cause:13 ~src:n0 ~dst:n2 "dup";
  check "both copies" [ ("dup", 13); ("dup", 13) ] (drain ());
  Fabric.send f Transport.Datagram ~cause:0 ~src:n0 ~dst:n1 "none";
  check "no cause" [ ("none", 0) ] (drain ());
  Fabric.send f Transport.Datagram ~cause:14 ~src:n2 ~dst:n2 "self";
  check "self-send" [ ("self", 14) ] (drain ())

(* {2 Cpu} *)

let test_cpu_queueing () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:1. in
  let finished = ref [] in
  let op =
    Engine.register_op e (fun finished name (_ : int) ->
        finished := (name, Engine.now e) :: !finished)
  in
  Cpu.execute cpu ~cost:(Time.ms 10) op finished "a" 0;
  Cpu.execute cpu ~cost:(Time.ms 5) op finished "b" 0;
  Engine.run e;
  match List.rev !finished with
  | [ ("a", ta); ("b", tb) ] ->
      Alcotest.(check int) "first job service time" (Time.ms 10) ta;
      Alcotest.(check int) "second queues behind" (Time.ms 15) tb
  | _ -> Alcotest.fail "unexpected completion order"

let test_cpu_cores_speedup () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:2. in
  let at = ref Time.zero in
  let op = Engine.register_op e (fun at () (_ : int) -> at := Engine.now e) in
  Cpu.execute cpu ~cost:(Time.ms 10) op at () 0;
  Engine.run e;
  Alcotest.(check int) "two cores halve service" (Time.ms 5) !at

let test_cpu_passthrough () =
  let e = Engine.create () in
  let cpu = Cpu.passthrough e in
  let ran = ref false in
  let op = Engine.register_op e (fun ran () (_ : int) -> ran := true) in
  Cpu.execute cpu ~cost:(Time.sec 100) op ran () 0;
  Alcotest.(check bool) "immediate" true !ran;
  Alcotest.(check int) "nothing accounted" 0 (Cpu.busy_total cpu)

let test_cpu_utilization () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:1. in
  (* 300ms of work in the first second. *)
  Cpu.charge cpu ~cost:(Time.ms 300);
  Engine.run_until e (Time.sec 2);
  let util = Cpu.utilization_in cpu ~lo_sec:0. ~hi_sec:1. in
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.1f%% near 30%%" util)
    true
    (abs_float (util -. 30.) < 1.);
  let idle = Cpu.utilization_in cpu ~lo_sec:1. ~hi_sec:2. in
  Alcotest.(check (float 0.5)) "second window idle" 0. idle

(* The per-second accounting behind Fig 5 and Fig 7b.  Windows are in
   whole percent of one core, so [util] reads the cost charged to a
   window back in milliseconds per second. *)
let util cpu ~lo ~hi = Cpu.utilization_in cpu ~lo_sec:lo ~hi_sec:hi
let pct = Alcotest.float 1e-9

let test_cpu_split_across_seconds () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:1. in
  (* 300 ms of service from 0.9 s: 100 ms in second 0, 200 ms in 1. *)
  Engine.run_until e (Time.ms 900);
  Cpu.charge cpu ~cost:(Time.ms 300);
  Alcotest.(check pct) "second 0" 10. (util cpu ~lo:0. ~hi:1.);
  Alcotest.(check pct) "second 1" 20. (util cpu ~lo:1. ~hi:2.);
  Alcotest.(check pct) "both" 15. (util cpu ~lo:0. ~hi:2.);
  (* Queued behind it, 50 ms more lands wholly in second 1. *)
  Cpu.charge cpu ~cost:(Time.ms 50);
  Alcotest.(check pct) "queued work" 25. (util cpu ~lo:1. ~hi:2.);
  Alcotest.(check int) "busy total" (Time.ms 350) (Cpu.busy_total cpu)

let test_cpu_window_off_grid () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:1. in
  Engine.run_until e (Time.ms 900);
  Cpu.charge cpu ~cost:(Time.ms 300);
  (* A second counts when its start lies in [lo, hi): from 0.5 s that
     leaves out second 0. *)
  Alcotest.(check pct) "[0.5, 1.5)" 20. (util cpu ~lo:0.5 ~hi:1.5);
  Alcotest.(check pct) "[0.5, 2.5)" 10. (util cpu ~lo:0.5 ~hi:2.5);
  Alcotest.(check pct) "[0.5, 1.0)" 0. (util cpu ~lo:0.5 ~hi:1.);
  Alcotest.(check pct) "[-1, 1)" 5. (util cpu ~lo:(-1.) ~hi:1.)

let test_cpu_window_past_end () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:1. in
  Cpu.charge cpu ~cost:(Time.ms 300);
  Alcotest.(check pct) "past the last charge" 0. (util cpu ~lo:5. ~hi:10.);
  Alcotest.(check pct) "far past" 0. (util cpu ~lo:1e6 ~hi:2e6);
  let idle = Cpu.create e ~cores:1. in
  Alcotest.(check pct) "never charged" 0. (util idle ~lo:0. ~hi:5.)

(* The per-second accounting as it was before [Cpu.account] charged a
   window inside one second directly: every charge goes through the
   proportional float share, second by second. *)
module Cpu_reference = struct
  type t = {
    cores : float;
    mutable busy_until : int;
    mutable busy_total : int;
    per_second : (int, int) Hashtbl.t;
  }

  let create ~cores =
    { cores; busy_until = 0; busy_total = 0; per_second = Hashtbl.create 16 }

  let sec_len = Time.sec 1

  let add t sec charged =
    let v = Option.value ~default:0 (Hashtbl.find_opt t.per_second sec) in
    Hashtbl.replace t.per_second sec (v + charged)

  let rec spread t ~cost ~span at remaining =
    if remaining > 0 then begin
      let sec = at / sec_len in
      let sec_end = (sec + 1) * sec_len in
      let here = Int.min remaining (sec_end - at) in
      let charged =
        int_of_float
          (float_of_int cost *. float_of_int here /. float_of_int span)
      in
      add t sec charged;
      spread t ~cost ~span sec_end (remaining - here)
    end

  let charge t ~now ~cost =
    let start = Int.max now t.busy_until in
    let service = Int.max 0 (int_of_float (float_of_int cost /. t.cores)) in
    t.busy_until <- start + service;
    if cost > 0 then begin
      t.busy_total <- t.busy_total + cost;
      let span = Int.max 1 service in
      spread t ~cost ~span start span
    end

  let charged t sec =
    Option.value ~default:0 (Hashtbl.find_opt t.per_second sec)
end

(* Random charges on a random core count: windows inside one second,
   windows straddling one or more second boundaries, and costs of 2^26
   and beyond, where [cost * span] can leave the float's exact range.
   Every second's utilization (and the whole run's) must carry the same
   bits as the reference's. *)
let prop_cpu_matches_reference =
  let gen =
    QCheck.Gen.(
      let advance =
        frequency
          [
            (4, int_range 0 (Time.ms 5));
            (2, int_range 0 (Time.sec 2));
            (1, return 0);
          ]
      in
      let cost =
        frequency
          [
            (6, int_range 0 (Time.us 500));
            (3, int_range 0 (Time.ms 700));
            (2, int_range (1 lsl 26) (1 lsl 28));
            (1, int_range (1 lsl 32) ((1 lsl 32) + 1000));
          ]
      in
      pair
        (oneofl [ 0.25; 0.5; 1.; 2.; 3.; 7.5 ])
        (list_size (int_range 0 120) (pair advance cost)))
  in
  QCheck.Test.make ~count:300 ~name:"cpu: per-second charges match the reference"
    (QCheck.make
       ~print:(fun (cores, steps) ->
         Printf.sprintf "cores=%g [%s]" cores
           (String.concat ";"
              (List.map (fun (a, c) -> Printf.sprintf "+%d:%d" a c) steps)))
       gen)
    (fun (cores, steps) ->
      let e = Engine.create () in
      let cpu = Cpu.create e ~cores and r = Cpu_reference.create ~cores in
      List.iter
        (fun (advance, cost) ->
          Engine.run_until e (Engine.now e + advance);
          Cpu.charge cpu ~cost;
          Cpu_reference.charge r ~now:(Engine.now e) ~cost)
        steps;
      let last = r.Cpu_reference.busy_until / Cpu_reference.sec_len in
      let bits x = Int64.bits_of_float x in
      let util_ref lo hi busy =
        float_of_int busy /. ((hi -. lo) *. 1e9) *. 100.
      in
      let total = ref 0 and ok = ref true in
      for s = 0 to last do
        let busy = Cpu_reference.charged r s in
        total := !total + busy;
        let lo = float_of_int s and hi = float_of_int (s + 1) in
        if bits (util cpu ~lo ~hi) <> bits (util_ref lo hi busy) then
          ok := false
      done;
      let hi = float_of_int (last + 1) in
      !ok
      && bits (util cpu ~lo:0. ~hi) = bits (util_ref 0. hi !total)
      && Cpu.busy_total cpu = r.Cpu_reference.busy_total)

let test_cpu_multicore_over_100 () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:2. in
  (* 1.5 s of work on two cores is 0.75 s of service, all in second 0:
     docker-stats style, 150% of one core. *)
  Cpu.charge cpu ~cost:(Time.ms 1500);
  Alcotest.(check int) "service halved" (Time.ms 750) (Cpu.backlog cpu);
  Alcotest.(check pct) "150%" 150. (util cpu ~lo:0. ~hi:1.);
  (* From 0.9 s, 300 ms of work is 150 ms of service, 100 ms of it in
     second 0: charged at the proportional share of the cost. *)
  let cpu = Cpu.create e ~cores:2. in
  Engine.run_until e (Time.ms 900);
  Cpu.charge cpu ~cost:(Time.ms 300);
  Alcotest.(check pct) "second 0" 20. (util cpu ~lo:0. ~hi:1.);
  Alcotest.(check pct) "second 1" 10. (util cpu ~lo:1. ~hi:2.)

let test_cpu_backlog () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:1. in
  Cpu.charge cpu ~cost:(Time.ms 50);
  Alcotest.(check int) "backlog reflects queue" (Time.ms 50) (Cpu.backlog cpu);
  Engine.run_until e (Time.ms 60);
  Alcotest.(check int) "backlog drains" 0 (Cpu.backlog cpu)

(* The digested text writes ids and integers without a format
   interpreter; its bytes must be the printers'. *)
let test_node_id_buffer_writers () =
  List.iter
    (fun n ->
      let b = Buffer.create 8 in
      Netsim.Node_id.add_int_to_buffer b n;
      Alcotest.(check string) "integer" (string_of_int n) (Buffer.contents b))
    [ 0; 7; 9; 10; 99; 100; 12345; -1; -10; -987; max_int; min_int ];
  List.iter
    (fun i ->
      let id = Netsim.Node_id.of_int i and b = Buffer.create 8 in
      Netsim.Node_id.add_to_buffer b id;
      Alcotest.(check string) "node id"
        (Format.asprintf "%a" Netsim.Node_id.pp id)
        (Buffer.contents b))
    [ 0; 3; 64; 1000 ]

let tests =
  [
    Alcotest.test_case "node_id: basics" `Quick test_node_id_basics;
    Alcotest.test_case "conditions: constant" `Quick test_conditions_constant;
    Alcotest.test_case "conditions: staircase" `Quick test_conditions_staircase;
    Alcotest.test_case "conditions: rtt staircase" `Quick
      test_conditions_rtt_staircase;
    Alcotest.test_case "conditions: validation" `Quick
      test_conditions_validation;
    Alcotest.test_case "link: delay = rtt/2" `Quick test_link_delay_is_half_rtt;
    Alcotest.test_case "link: loss rate" `Slow test_link_loss_rate;
    Alcotest.test_case "link: jitter preserves mean" `Slow
      test_link_jitter_mean_preserved;
    Alcotest.test_case "link: reliable never drops" `Quick
      test_link_reliable_never_drops;
    Alcotest.test_case "link: reliable worst-case bound" `Quick
      test_link_reliable_worst_case_bound;
    Alcotest.test_case "link: reliable loss adds delay" `Slow
      test_link_reliable_loss_adds_delay;
    Alcotest.test_case "link: duplication" `Quick test_link_duplication;
    Alcotest.test_case "link: cached segment" `Quick test_link_segment_cache;
    Alcotest.test_case "transport: channel FIFO" `Quick test_channel_fifo;
    Alcotest.test_case "fabric: delivers" `Quick test_fabric_delivers;
    Alcotest.test_case "fabric: pause drops" `Quick test_fabric_pause_drops;
    Alcotest.test_case "fabric: reliable FIFO under loss" `Quick
      test_fabric_reliable_fifo_under_loss;
    Alcotest.test_case "fabric: per-pair conditions" `Quick
      test_fabric_per_pair_conditions;
    Alcotest.test_case "fabric: self-send" `Quick test_fabric_self_send_immediate;
    Alcotest.test_case "fabric: per-pair observables" `Quick
      test_fabric_pair_observables;
    Alcotest.test_case "fabric: unregistered pair rejected" `Quick
      test_fabric_unregistered_pair_rejected;
    Alcotest.test_case "fabric: a send's cause reaches its handler" `Quick
      test_fabric_cause_reaches_handler;
    Alcotest.test_case "cpu: queueing" `Quick test_cpu_queueing;
    Alcotest.test_case "cpu: cores speedup" `Quick test_cpu_cores_speedup;
    Alcotest.test_case "cpu: passthrough" `Quick test_cpu_passthrough;
    Alcotest.test_case "cpu: utilization" `Quick test_cpu_utilization;
    Alcotest.test_case "cpu: backlog" `Quick test_cpu_backlog;
    Alcotest.test_case "cpu: split across seconds" `Quick
      test_cpu_split_across_seconds;
    Alcotest.test_case "cpu: window off the grid" `Quick
      test_cpu_window_off_grid;
    Alcotest.test_case "cpu: window past the end" `Quick
      test_cpu_window_past_end;
    Alcotest.test_case "cpu: multi-core over 100%" `Quick
      test_cpu_multicore_over_100;
    Qcheck_case.to_alcotest prop_cpu_matches_reference;
    Alcotest.test_case "node_id: buffer writers match the printers" `Quick
      test_node_id_buffer_writers;
  ]
