(* Bechamel microbenchmarks of the hot paths: one Test.make per core
   operation.  These are the per-event costs that bound how large a
   simulated campaign the figure harness can run. *)

open Bechamel
open Toolkit

let test_tuner_observe =
  Test.make ~name:"tuner.observe_heartbeat"
    (Staged.stage
       (let tuner = Dynatune.Tuner.create Dynatune.Config.default in
        let i = ref 0 in
        fun () ->
          incr i;
          Dynatune.Tuner.observe_heartbeat tuner ~hb_id:!i
            ~rtt:(Some (Des.Time.ms 100))))

let test_tuner_retune =
  Test.make ~name:"tuner.election_timeout+interval"
    (Staged.stage
       (let tuner = Dynatune.Tuner.create Dynatune.Config.default in
        for i = 0 to 99 do
          Dynatune.Tuner.observe_heartbeat tuner ~hb_id:i
            ~rtt:(Some (Des.Time.ms 100))
        done;
        fun () ->
          ignore (Dynatune.Tuner.election_timeout tuner : int);
          ignore (Dynatune.Tuner.heartbeat_interval tuner : int)))

let test_loss_observe =
  Test.make ~name:"loss_estimator.observe"
    (Staged.stage
       (let l = Dynatune.Loss_estimator.create ~min_size:20 ~max_size:100 in
        let i = ref 0 in
        fun () ->
          incr i;
          ignore (Dynatune.Loss_estimator.observe l !i)))

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
   1,500 is the fanout workload's heap high-water mark. *)
let test_event_heap_push_pop depth =
  Test.make
    ~name:(Printf.sprintf "event_heap.schedule+pop depth %d" depth)
    (Staged.stage
       (let h = Des.Event_heap.create () in
        let noop () = () in
        let seq = ref 0 in
        for _ = 1 to depth do
          incr seq;
          ignore
            (Des.Event_heap.schedule h ~at:(!seq * 7919) ~seq:!seq noop
              : Des.Event_heap.event)
        done;
        fun () ->
          incr seq;
          ignore
            (Des.Event_heap.schedule h
               ~at:((!seq * 7919) mod 1000)
               ~seq:!seq noop
              : Des.Event_heap.event);
          ignore (Des.Event_heap.top_live h : Des.Event_heap.event);
          Des.Event_heap.pop_top h))

let test_engine_schedule_op =
  Test.make ~name:"engine.schedule_op_after+step"
    (Staged.stage (Bench_loops.make_schedule_op_loop ()))

let test_mtrace_emit =
  Test.make ~name:"mtrace.emit (one observer)"
    (Staged.stage (Bench_loops.make_mtrace_emit_loop ()))

let test_engine_cancel_churn =
  (* The heartbeat-timer pattern: schedule a timeout far out, cancel it,
     re-arm, fire a near event.  Exercises lazy discard plus the event
     heap's cancelled-entry compaction. *)
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

let test_wheel_churn =
  (* Same shape as the heap churn test above, but through
     [schedule_timer_after]: the far timer parks in the timing wheel and
     its cancellation is an in-place drop — no tombstone, no sift, no
     compaction debt. *)
  Test.make ~name:"wheel.schedule+cancel+step churn"
    (Staged.stage
       (let e = Des.Engine.create () in
        fun () ->
          let h =
            Des.Engine.schedule_timer_after e (Des.Time.ms 500) (fun () -> ())
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
            (Des.Engine.schedule_timer_after e (Des.Time.ms 2) (fun () -> ())
              : Des.Engine.handle);
          ignore (Des.Engine.step e : bool)))

(* The hot-path loops live in Bench_loops so `selfcheck --perf` can gate
   words/op against the exact code benchmarked here. *)
let bench_log = Bench_loops.bench_log

let test_log_slice_array =
  Test.make ~name:"log.slice 64 (array)"
    (Staged.stage
       (let log = bench_log () in
        let i = ref 0 in
        fun () ->
          i := (!i mod 900) + 1;
          ignore (Raft.Log.slice log ~from:!i ~max:64 : Raft.Log.entry array)))

let test_log_slice_list =
  (* The seed's slice path built a list via [List.init] + per-entry
     [nth]-style lookups; keep it here as the comparison baseline. *)
  Test.make ~name:"log.slice 64 (old list path)"
    (Staged.stage
       (let log = bench_log () in
        let i = ref 0 in
        fun () ->
          i := (!i mod 900) + 1;
          ignore
            (List.init 64 (fun k ->
                 match Raft.Log.entry_at log (!i + k) with
                 | Some e -> e
                 | None -> assert false)
              : Raft.Log.entry list)))

let test_server_heartbeat =
  Test.make ~name:"server.handle heartbeat (dynatune)"
    (Staged.stage (Bench_loops.make_heartbeat_loop ()))

let test_leader_append =
  Test.make ~name:"server.handle append nack+rebatch 64"
    (Staged.stage (Bench_loops.make_leader_append_loop ()))

let test_follower_append =
  Test.make ~name:"server.handle duplicate append 64"
    (Staged.stage (Bench_loops.make_follower_append_loop ()))

let test_try_append =
  Test.make ~name:"log.try_append duplicate 64"
    (Staged.stage (Bench_loops.make_try_append_loop ()))

let test_vote_round =
  Test.make ~name:"server.handle pre-vote round"
    (Staged.stage (Bench_loops.make_vote_round_loop ()))

let test_snapshot_install =
  Test.make ~name:"server.handle stale snapshot install"
    (Staged.stage (Bench_loops.make_snapshot_install_loop ()))

let test_read_index =
  Test.make ~name:"server.handle ReadIndex round, 32 reads in flight"
    (Staged.stage (Bench_loops.make_read_index_loop ()))

let test_codec =
  Test.make ~name:"kv command codec roundtrip"
    (Staged.stage (fun () ->
         let payload =
           Kvsm.Command.to_payload
             (Kvsm.Command.Put { key = "benchmark-key"; value = "value-42" })
         in
         ignore (Kvsm.Command.of_payload payload)))

let test_client_encode =
  Test.make ~name:"kv client put encode"
    (Staged.stage (Bench_loops.make_client_encode_loop ()))

let test_decode_put =
  Test.make ~name:"kv decode put"
    (Staged.stage (Bench_loops.make_decode_put_loop ()))

let test_store_put =
  Test.make ~name:"kv store apply put (key present)"
    (Staged.stage (Bench_loops.make_store_put_loop ()))

let tests =
  [
    test_tuner_observe;
    test_tuner_retune;
    test_loss_observe;
    test_window_push;
    test_engine_schedule;
    test_engine_schedule_op;
    test_mtrace_emit;
    test_event_heap_push_pop 5;
    test_event_heap_push_pop 1_500;
    test_engine_cancel_churn;
    test_wheel_churn;
    test_wheel_fire;
    test_log_slice_array;
    test_log_slice_list;
    test_server_heartbeat;
    test_leader_append;
    test_follower_append;
    test_try_append;
    test_vote_round;
    test_snapshot_install;
    test_read_index;
    test_codec;
    test_client_encode;
    test_decode_put;
    test_store_put;
  ]

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
         (Des.Engine.schedule_timer_after e (Des.Time.ms 500) (fun () -> ()))));
  let log = bench_log () in
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
