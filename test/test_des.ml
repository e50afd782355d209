(* Unit tests for the discrete-event simulation kernel. *)

module Time = Des.Time
module Engine = Des.Engine
module Timer = Des.Timer
module Mtrace = Des.Mtrace

(* {2 Time} *)

let test_time_conversions () =
  Alcotest.(check int) "ms" 5_000_000 (Time.ms 5);
  Alcotest.(check int) "us" 5_000 (Time.us 5);
  Alcotest.(check int) "sec" 1_000_000_000 (Time.sec 1);
  Alcotest.(check int) "of_ms_f rounds" 1_500_000 (Time.of_ms_f 1.5);
  Alcotest.(check (float 1e-9)) "to_ms_f" 1.5 (Time.to_ms_f 1_500_000);
  Alcotest.(check (float 1e-9)) "to_sec_f" 0.25 (Time.to_sec_f 250_000_000)

let test_time_clamp () =
  Alcotest.(check int) "below" 10 (Time.clamp 5 ~lo:10 ~hi:20);
  Alcotest.(check int) "above" 20 (Time.clamp 25 ~lo:10 ~hi:20);
  Alcotest.(check int) "inside" 15 (Time.clamp 15 ~lo:10 ~hi:20)

let test_time_scale () =
  Alcotest.(check int) "halving" (Time.ms 50) (Time.scale (Time.ms 100) 0.5)

(* {2 Engine} *)

let test_engine_ordering () =
  let e = Engine.create () in
  let order = ref [] in
  let log tag () = order := tag :: !order in
  ignore (Engine.schedule_at e (Time.ms 30) (log "c"));
  ignore (Engine.schedule_at e (Time.ms 10) (log "a"));
  ignore (Engine.schedule_at e (Time.ms 20) (log "b"));
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    (List.rev !order)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore
      (Engine.schedule_at e (Time.ms 10) (fun () -> order := i :: !order))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "scheduling order on ties" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_engine_clock_advances () =
  let e = Engine.create () in
  let seen = ref Time.zero in
  ignore (Engine.schedule_at e (Time.ms 42) (fun () -> seen := Engine.now e));
  Engine.run e;
  Alcotest.(check int) "clock at event time" (Time.ms 42) !seen

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_at e (Time.ms 5) (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "cancelled event does not fire" false !fired

let test_engine_run_until_boundary () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule_at e (Time.ms 10) (fun () -> fired := 10 :: !fired));
  ignore (Engine.schedule_at e (Time.ms 20) (fun () -> fired := 20 :: !fired));
  Engine.run_until e (Time.ms 15);
  Alcotest.(check (list int)) "only events <= limit" [ 10 ] !fired;
  Alcotest.(check int) "clock set to limit" (Time.ms 15) (Engine.now e);
  Engine.run_until e (Time.ms 25);
  Alcotest.(check (list int)) "rest runs later" [ 20; 10 ] !fired

let test_engine_run_until_cancelled_head () =
  (* A cancelled event at the queue head must not cause an event beyond
     the limit to run. *)
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_at e (Time.ms 5) (fun () -> ()) in
  ignore (Engine.schedule_at e (Time.ms 50) (fun () -> fired := true));
  Engine.cancel h;
  Engine.run_until e (Time.ms 10);
  Alcotest.(check bool) "beyond-limit event did not run" false !fired

let test_engine_schedule_during_run () =
  let e = Engine.create () in
  let result = ref 0 in
  ignore
    (Engine.schedule_at e (Time.ms 1) (fun () ->
         ignore
           (Engine.schedule_after e (Time.ms 1) (fun () -> result := 42))));
  Engine.run e;
  Alcotest.(check int) "nested scheduling runs" 42 !result

let test_engine_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e (Time.ms 10) (fun () -> ()));
  Engine.run e;
  Alcotest.(check bool) "scheduling in the past raises" true
    (try
       ignore (Engine.schedule_at e (Time.ms 5) (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_engine_counters () =
  let e = Engine.create () in
  for i = 1 to 5 do
    ignore (Engine.schedule_at e (Time.ms i) (fun () -> ()))
  done;
  Alcotest.(check int) "pending" 5 (Engine.pending_events e);
  Engine.run e;
  Alcotest.(check int) "processed" 5 (Engine.processed_events e);
  Alcotest.(check int) "drained" 0 (Engine.pending_events e)

(* {2 Await} *)

let test_await_already_true () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e (Time.ms 5) (fun () -> ()));
  Alcotest.(check bool) "true" true
    (Engine.await e ~slice:(Time.ms 1) ~timeout:(Time.ms 10) (fun () -> true));
  Alcotest.(check int) "clock unmoved" Time.zero (Engine.now e);
  Alcotest.(check int) "nothing ran" 0 (Engine.processed_events e)

let test_await_timeout_exact () =
  List.iter
    (fun (slice, timeout) ->
      let e = Engine.create () in
      Engine.run_until e (Time.ms 1);
      ignore (Engine.schedule_at e (Time.ms 4) (fun () -> ()));
      Alcotest.(check bool) "false" false
        (Engine.await e ~slice ~timeout (fun () -> false));
      Alcotest.(check int) "clock at the deadline"
        (Time.add (Time.ms 1) timeout)
        (Engine.now e))
    [ (Time.ms 1, Time.ms 10); (Time.ms 3, Time.ms 10); (Time.ms 4, Time.ms 9) ]

let test_await_skips_idle_slices () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e (Time.us 7_500) (fun () -> ()));
  let calls = ref 0 in
  let cond () =
    incr calls;
    false
  in
  Alcotest.(check bool) "false" false
    (Engine.await e ~slice:(Time.ms 1) ~timeout:(Time.ms 20) cond);
  (* Once up front, once after the slice (7, 8] ms that ran the event. *)
  Alcotest.(check int) "evaluations" 2 !calls

let test_await_stops_after_slice () =
  let e = Engine.create () in
  let ready = ref false in
  ignore (Engine.schedule_at e (Time.ms 3) (fun () -> ()));
  ignore (Engine.schedule_at e (Time.us 7_500) (fun () -> ready := true));
  ignore (Engine.schedule_at e (Time.us 7_900) (fun () -> ()));
  ignore (Engine.schedule_at e (Time.us 8_500) (fun () -> ()));
  Alcotest.(check bool) "true" true
    (Engine.await e ~slice:(Time.ms 2) ~timeout:(Time.ms 20) (fun () ->
         !ready));
  Alcotest.(check int) "end of the slice (6, 8] ms" (Time.ms 8) (Engine.now e);
  Alcotest.(check int) "later events left queued" 1 (Engine.pending_events e)

let test_await_zero_timeout () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e Time.zero (fun () -> ()));
  let calls = ref 0 in
  let cond () =
    incr calls;
    false
  in
  Alcotest.(check bool) "false" false
    (Engine.await e ~slice:(Time.ms 1) ~timeout:Time.zero cond);
  Alcotest.(check int) "tested once" 1 !calls;
  Alcotest.(check int) "clock unmoved" Time.zero (Engine.now e);
  Alcotest.(check int) "nothing ran" 0 (Engine.processed_events e)

let test_await_rejects_bad_slice () =
  List.iter
    (fun slice ->
      let e = Engine.create () in
      Alcotest.check_raises "invalid slice"
        (Invalid_argument "Engine.await: slice must be positive") (fun () ->
          ignore
            (Engine.await e ~slice ~timeout:(Time.ms 10) (fun () -> true)));
      Alcotest.(check int) "clock unmoved" Time.zero (Engine.now e))
    [ Time.zero; Time.ms (-1) ]

(* {2 Event pool} *)

let test_wheel_cancel_recycles () =
  let e = Engine.create () in
  let noop () = () in
  for _ = 1 to 1000 do
    Engine.cancel (Engine.schedule_timer_after e (Time.ms 500) noop)
  done;
  let st = Engine.stats e in
  Alcotest.(check int) "every cancel absorbed in place" 1000
    st.Engine.cancelled_in_place;
  Alcotest.(check int) "one record serves every arm" 1 st.Engine.pool_size;
  Alcotest.(check int) "nothing pending" 0 (Engine.pending_events e)

let test_heap_tombstones_compact () =
  let e = Engine.create () in
  let noop () = () in
  let hs = List.init 100 (fun i -> Engine.schedule_at e (Time.ms (i + 1)) noop) in
  List.iter Engine.cancel hs;
  ignore (Engine.schedule_at e (Time.ms 1) noop : Engine.handle);
  let st = Engine.stats e in
  Alcotest.(check int) "dead entries swept" 1 st.Engine.compactions;
  Alcotest.(check int) "swept records reused" 100 st.Engine.pool_size;
  Alcotest.(check int) "one pending" 1 (Engine.pending_events e)

(* Pool bound: a record is only ever added when every existing one is in
   the heap or a wheel slot. *)
let check_pool_bound (st : Engine.stats) =
  Alcotest.(check bool)
    (Printf.sprintf "pool %d <= heap high water %d + wheel high water %d"
       st.Engine.pool_size st.Engine.heap_high_water st.Engine.wheel_high_water)
    true
    (st.Engine.pool_size
    <= st.Engine.heap_high_water + st.Engine.wheel_high_water)

let test_pool_bound_timer_churn () =
  (* 64 election-style timers of ~150 ms, one re-armed per ms from a
     message-like event — each every 64 ms, long before it can fire —
     over 20 s of sim time. *)
  let e = Engine.create () in
  let timers = Array.init 64 (fun _ -> Timer.create e (fun () -> ())) in
  let rec tick i () =
    Timer.arm timers.(i mod 64) (Time.ms (150 + (i mod 7)));
    if i < 20_000 then
      ignore (Engine.schedule_after e (Time.ms 1) (tick (i + 1)))
  in
  ignore (Engine.schedule_at e Time.zero (tick 0));
  Engine.run e;
  let st = Engine.stats e in
  Alcotest.(check bool) "churn was absorbed by the wheel" true
    (st.Engine.cancelled_in_place > 10_000);
  check_pool_bound st

(* {2 Timer} *)

let test_timer_fires_once () =
  let e = Engine.create () in
  let count = ref 0 in
  let t = Timer.create e (fun () -> incr count) in
  Timer.arm t (Time.ms 10);
  Engine.run e;
  Alcotest.(check int) "fires once" 1 !count

let test_timer_rearm_cancels_previous () =
  let e = Engine.create () in
  let fired_at = ref [] in
  let t = ref None in
  let timer =
    Timer.create e (fun () -> fired_at := Engine.now e :: !fired_at)
  in
  t := Some timer;
  Timer.arm timer (Time.ms 10);
  ignore
    (Engine.schedule_at e (Time.ms 5) (fun () -> Timer.arm timer (Time.ms 10)));
  Engine.run e;
  Alcotest.(check (list int)) "fires only at re-armed deadline" [ Time.ms 15 ]
    !fired_at

let test_timer_disarm () =
  let e = Engine.create () in
  let count = ref 0 in
  let t = Timer.create e (fun () -> incr count) in
  Timer.arm t (Time.ms 10);
  Timer.disarm t;
  Engine.run e;
  Alcotest.(check int) "disarmed timer is silent" 0 !count;
  Alcotest.(check bool) "not armed" false (Timer.is_armed t)

let test_timer_remaining () =
  let e = Engine.create () in
  let t = Timer.create e (fun () -> ()) in
  Timer.arm t (Time.ms 100);
  ignore
    (Engine.schedule_at e (Time.ms 40) (fun () ->
         match Timer.remaining t with
         | Some r -> Alcotest.(check int) "remaining" (Time.ms 60) r
         | None -> Alcotest.fail "expected armed timer"));
  Engine.run_until e (Time.ms 50);
  Timer.disarm t

let test_timer_armed_span_persists () =
  let e = Engine.create () in
  let t = Timer.create e (fun () -> ()) in
  Timer.arm t (Time.ms 123);
  Engine.run e;
  Alcotest.(check (option int)) "span recorded after firing"
    (Some (Time.ms 123)) (Timer.armed_span t)

let test_timer_rearm_from_callback () =
  let e = Engine.create () in
  let count = ref 0 in
  let tref = ref None in
  let timer =
    Timer.create e (fun () ->
        incr count;
        if !count < 3 then Timer.arm (Option.get !tref) (Time.ms 10))
  in
  tref := Some timer;
  Timer.arm timer (Time.ms 10);
  Engine.run e;
  Alcotest.(check int) "periodic re-arm" 3 !count

(* {2 Mtrace} *)

let test_mtrace_subscribe () =
  let e = Engine.create () in
  let trace : string Mtrace.t = Mtrace.create e in
  let seen = ref [] in
  Mtrace.subscribe trace (fun t v -> seen := (t, v) :: !seen);
  ignore (Engine.schedule_at e (Time.ms 5) (fun () -> Mtrace.emit trace "a"));
  ignore (Engine.schedule_at e (Time.ms 9) (fun () -> Mtrace.emit trace "b"));
  Engine.run e;
  Alcotest.(check (list (pair int string)))
    "observer sees every event, stamped with its time"
    [ (Time.ms 5, "a"); (Time.ms 9, "b") ]
    (List.rev !seen)

let test_mtrace_subscription_order () =
  let e = Engine.create () in
  let trace : int Mtrace.t = Mtrace.create e in
  let calls = ref [] in
  List.iter
    (fun name -> Mtrace.subscribe trace (fun _ v -> calls := (name, v) :: !calls))
    [ "a"; "b"; "c" ];
  Mtrace.emit trace 1;
  Mtrace.emit trace 2;
  Alcotest.(check (list (pair string int)))
    "each event reaches every observer, in subscription order"
    [ ("a", 1); ("b", 1); ("c", 1); ("a", 2); ("b", 2); ("c", 2) ]
    (List.rev !calls)

let test_mtrace_during_scopes () =
  let e = Engine.create () in
  let trace : int Mtrace.t = Mtrace.create e in
  let all = ref [] and scoped = ref [] in
  Mtrace.subscribe trace (fun _ v -> all := v :: !all);
  Mtrace.emit trace 1;
  let r =
    Mtrace.during trace
      (fun _ v -> scoped := v :: !scoped)
      (fun () ->
        Mtrace.emit trace 2;
        Mtrace.emit trace 3;
        "body result")
  in
  Mtrace.emit trace 4;
  Alcotest.(check string) "returns the body's result" "body result" r;
  Alcotest.(check (list int)) "window sees only its body" [ 2; 3 ]
    (List.rev !scoped);
  Alcotest.(check (list int)) "permanent observer untouched" [ 1; 2; 3; 4 ]
    (List.rev !all)

let test_mtrace_during_unsubscribes_on_raise () =
  let e = Engine.create () in
  let trace : int Mtrace.t = Mtrace.create e in
  let scoped = ref 0 in
  (match
     Mtrace.during trace
       (fun _ _ -> incr scoped)
       (fun () ->
         Mtrace.emit trace 1;
         failwith "body failed")
   with
  | () -> Alcotest.fail "the body's exception was swallowed"
  | exception Failure _ -> ());
  Mtrace.emit trace 2;
  Alcotest.(check int) "observer gone after the raise" 1 !scoped

let tests =
  [
    Alcotest.test_case "time: conversions" `Quick test_time_conversions;
    Alcotest.test_case "time: clamp" `Quick test_time_clamp;
    Alcotest.test_case "time: scale" `Quick test_time_scale;
    Alcotest.test_case "engine: time ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine: FIFO on ties" `Quick test_engine_fifo_ties;
    Alcotest.test_case "engine: clock advances" `Quick
      test_engine_clock_advances;
    Alcotest.test_case "engine: cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine: run_until boundary" `Quick
      test_engine_run_until_boundary;
    Alcotest.test_case "engine: run_until with cancelled head" `Quick
      test_engine_run_until_cancelled_head;
    Alcotest.test_case "engine: nested scheduling" `Quick
      test_engine_schedule_during_run;
    Alcotest.test_case "engine: past rejected" `Quick test_engine_past_rejected;
    Alcotest.test_case "engine: counters" `Quick test_engine_counters;
    Alcotest.test_case "await: cond already true" `Quick
      test_await_already_true;
    Alcotest.test_case "await: timeout stops at the deadline" `Quick
      test_await_timeout_exact;
    Alcotest.test_case "await: idle slices skip cond" `Quick
      test_await_skips_idle_slices;
    Alcotest.test_case "await: stops after the deciding slice" `Quick
      test_await_stops_after_slice;
    Alcotest.test_case "await: zero timeout tests cond once" `Quick
      test_await_zero_timeout;
    Alcotest.test_case "await: rejects a non-positive slice" `Quick
      test_await_rejects_bad_slice;
    Alcotest.test_case "pool: wheel cancel recycles at once" `Quick
      test_wheel_cancel_recycles;
    Alcotest.test_case "pool: heap tombstones compact" `Quick
      test_heap_tombstones_compact;
    Alcotest.test_case "pool: bounded under timer churn" `Quick
      test_pool_bound_timer_churn;
    Alcotest.test_case "timer: fires once" `Quick test_timer_fires_once;
    Alcotest.test_case "timer: re-arm cancels previous" `Quick
      test_timer_rearm_cancels_previous;
    Alcotest.test_case "timer: disarm" `Quick test_timer_disarm;
    Alcotest.test_case "timer: remaining" `Quick test_timer_remaining;
    Alcotest.test_case "timer: armed_span persists" `Quick
      test_timer_armed_span_persists;
    Alcotest.test_case "timer: re-arm from callback" `Quick
      test_timer_rearm_from_callback;
    Alcotest.test_case "mtrace: subscribe" `Quick test_mtrace_subscribe;
    Alcotest.test_case "mtrace: subscription order" `Quick
      test_mtrace_subscription_order;
    Alcotest.test_case "mtrace: during scopes an observer" `Quick
      test_mtrace_during_scopes;
    Alcotest.test_case "mtrace: during unsubscribes on raise" `Quick
      test_mtrace_during_unsubscribes_on_raise;
  ]
