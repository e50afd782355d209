(* Bechamel microbenchmarks of the hot paths: one Test.make per core
   operation.  These are the per-event costs that bound how large a
   simulated campaign the figure harness can run. *)

open Bechamel
open Toolkit

(* A tuner over etcd's base parameters, as a Dynatune server builds it. *)
let default_tuner () =
  let base = Raft.Config.dynatune () in
  Dynatune.Tuner.create Dynatune.Config.default
    ~election_timeout:base.Raft.Config.election_timeout
    ~heartbeat_interval:base.Raft.Config.heartbeat_interval

let test_tuner_observe =
  Test.make ~name:"tuner.observe_heartbeat"
    (Staged.stage
       (let tuner = default_tuner () in
        let i = ref 0 in
        fun () ->
          incr i;
          Dynatune.Tuner.observe_heartbeat tuner ~hb_id:!i
            ~rtt:(Some (Des.Time.ms 100))))

let test_tuner_retune =
  Test.make ~name:"tuner.election_timeout+interval"
    (Staged.stage
       (let tuner = default_tuner () in
        for i = 0 to 99 do
          Dynatune.Tuner.observe_heartbeat tuner ~hb_id:i
            ~rtt:(Some (Des.Time.ms 100))
        done;
        fun () ->
          ignore (Dynatune.Tuner.election_timeout tuner : int);
          ignore (Dynatune.Tuner.heartbeat_interval tuner : int)))

let test_window_push =
  Test.make ~name:"window.push+std"
    (Staged.stage
       (let w = Stats.Window.create ~capacity:100 in
        let x = ref 0. in
        fun () ->
          x := !x +. 1.;
          Stats.Window.push w !x;
          ignore (Stats.Window.std w : float)))

let test_engine_schedule =
  Test.make ~name:"engine.schedule+run"
    (Staged.stage
       (let e = Des.Engine.create () in
        fun () ->
          ignore
            (Des.Engine.schedule_after e (Des.Time.us 1) (fun () -> ())
              : Des.Engine.handle);
          ignore (Des.Engine.step e : bool)))

(* Push one event ahead of everything queued, then pop the minimum, at
   a fixed heap depth: both sifts run the heap's full height.  Depth
   1,500 is about how many events the fanout workload keeps in flight:
   the depth its heap reached (1,440) while deliveries bypassed the
   timing wheel.  The engine row below queues the same load the way the
   engine does now. *)
let test_event_heap_push_pop depth =
  Test.make
    ~name:(Printf.sprintf "event_heap.schedule+pop depth %d" depth)
    (Staged.stage
       (let h = Des.Event_heap.create () in
        let noop () = () in
        let seq = ref 0 in
        let push at =
          Des.Event_heap.push_event h (Des.Event_heap.make h ~at ~seq:!seq noop)
        in
        for _ = 1 to depth do
          incr seq;
          push (!seq * 7919)
        done;
        fun () ->
          incr seq;
          push ((!seq * 7919) mod 1000);
          ignore (Des.Event_heap.top_live h : Des.Event_heap.event);
          Des.Event_heap.pop_top h))

(* The engine's path for that load: 1,500 op events pending over the
   next 100 ms; one more is scheduled 100 ms ahead (it parks in the
   timing wheel) and the earliest fires.  Each step pays a wheel link,
   its share of a slot flush and a pop from a heap of one tick's
   events. *)
let test_engine_wheel_pending =
  Test.make ~name:"engine.op 100ms+step, 1,500 pending"
    (Staged.stage
       (let e = Des.Engine.create () in
        let op = Des.Engine.register_op e (fun () () (_ : int) -> ()) in
        let ahead = Des.Time.ms 100 in
        for i = 1 to 1_500 do
          Des.Engine.schedule_op_at e (i * ahead / 1_500) op () () 0
        done;
        fun () ->
          Des.Engine.schedule_op_after e ahead op () () 0;
          ignore (Des.Engine.step e : bool)))

let test_engine_cancel_churn =
  (* The heartbeat-timer pattern: schedule a timeout far out, cancel it,
     re-arm, fire a near event.  The far timer parks in the timing wheel
     and its cancellation is an in-place drop — no tombstone, no sift,
     no compaction debt. *)
  Test.make ~name:"engine.schedule+cancel+step churn"
    (Staged.stage
       (let e = Des.Engine.create () in
        fun () ->
          let h =
            Des.Engine.schedule_after e (Des.Time.ms 500) (fun () -> ())
          in
          Des.Engine.cancel h;
          ignore
            (Des.Engine.schedule_after e (Des.Time.us 1) (fun () -> ())
              : Des.Engine.handle);
          ignore (Des.Engine.step e : bool)))

let test_wheel_fire =
  (* The non-churn half: a near timer that parks in the wheel, is
     flushed into the heap at its slot boundary, and actually fires. *)
  Test.make ~name:"wheel.schedule+fire"
    (Staged.stage
       (let e = Des.Engine.create () in
        fun () ->
          ignore
            (Des.Engine.schedule_after e (Des.Time.ms 2) (fun () -> ())
              : Des.Engine.handle);
          ignore (Des.Engine.step e : bool)))

let test_log_slice_array =
  Test.make ~name:"log.slice 64 (array)"
    (Staged.stage
       (let log = Bench_loops.bench_log () in
        let i = ref 0 in
        fun () ->
          i := (!i mod 900) + 1;
          ignore (Raft.Log.slice log ~from:!i ~max:64 : Raft.Log.entry array)))

let test_codec =
  Test.make ~name:"kv command codec roundtrip"
    (Staged.stage (fun () ->
         let payload =
           Kvsm.Command.to_payload
             (Kvsm.Command.Put { key = "benchmark-key"; value = "value-42" })
         in
         ignore (Kvsm.Command.of_payload payload)))

(* Every loop [selfcheck --perf] gates, timed on the very closure its
   words/op budget prices. *)
let loop_tests =
  List.map
    (fun { Bench_loops.name; make; _ } ->
      Test.make ~name (Staged.stage (make ())))
    Bench_loops.loops

let tests =
  [
    test_tuner_observe;
    test_tuner_retune;
    test_window_push;
    test_engine_schedule;
    test_event_heap_push_pop 5;
    test_event_heap_push_pop 1_500;
    test_engine_wheel_pending;
    test_engine_cancel_churn;
    test_wheel_fire;
    test_log_slice_array;
    test_codec;
  ]
  @ loop_tests

(* Minor-heap allocation per operation (Bench_loops.words_per_op): the
   number bechamel's timing tables can't show, and the one the
   allocation-lean RPC work moves.  `selfcheck --perf` budgets every
   Bench_loops.loops row at its constant; the last two rows here are
   ungated. *)
let words_per_op ppf name f =
  Format.fprintf ppf "  %-40s %10.1f minor words/op@." name
    (Bench_loops.words_per_op f)

(* The forensics contract, measured: Bench_loops' steady-state cluster
   as minor words per DES event, with the ring off (the default) and
   on; the difference prices turning it on.  `selfcheck --perf` gates
   both readings. *)
let forensics_pair ppf =
  let off = Bench_loops.cluster_words_per_event () in
  let on_ =
    Bench_loops.cluster_words_per_event ~forensics:(Raft.Forensics.create ()) ()
  in
  Format.fprintf ppf "  %-40s %10.1f minor words/event@."
    "cluster heartbeat loop (forensics off)" off;
  Format.fprintf ppf "  %-40s %10.1f minor words/event@."
    "cluster heartbeat loop (forensics on)" on_

let allocation_report ppf =
  List.iter
    (fun { Bench_loops.name; make; _ } -> words_per_op ppf name (make ()))
    Bench_loops.loops;
  (let e = Des.Engine.create () in
   words_per_op ppf "wheel timer schedule+cancel" (fun () ->
       Des.Engine.cancel
         (Des.Engine.schedule_after e (Des.Time.ms 500) (fun () -> ()))));
  let log = Bench_loops.bench_log () in
  let i = ref 0 in
  words_per_op ppf "log.slice 64 (array)" (fun () ->
      i := (!i mod 900) + 1;
      ignore (Raft.Log.slice log ~from:!i ~max:64 : Raft.Log.entry array))

let run ppf =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  allocation_report ppf;
  forensics_pair ppf;
  Format.fprintf ppf "  %-40s %14s %8s@." "operation" "time/run" "r^2";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let time_ns =
            match Analyze.OLS.estimates ols_result with
            | Some (t :: _) -> t
            | Some [] | None -> nan
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with
            | Some r -> r
            | None -> nan
          in
          Format.fprintf ppf "  %-40s %11.1f ns %8.4f@." name time_ns r2)
        analyzed)
    tests
