(* Unit tests for the Dynatune core: estimators, tuner, leader path. *)

module Time = Des.Time
module Config = Dynatune.Config
module Rtt = Dynatune.Rtt_estimator
module Loss = Dynatune.Loss_estimator
module Tuner = Dynatune.Tuner
module Leader_path = Dynatune.Leader_path

let check_ms = Alcotest.(check int)

(* {2 Config} *)

let test_config_default_valid () =
  match Config.validate Config.default with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

let test_config_rejects_bad () =
  let bad_cases =
    [
      { Config.default with Config.safety_factor = -1. };
      { Config.default with Config.arrival_probability = 1. };
      { Config.default with Config.arrival_probability = 0. };
      { Config.default with Config.min_list_size = 1 };
      { Config.default with Config.max_list_size = 5 };
    ]
  in
  List.iteri
    (fun i cfg ->
      match Config.validate cfg with
      | Ok _ -> Alcotest.failf "case %d should be rejected" i
      | Error _ -> ())
    bad_cases

(* {2 Rtt_estimator} *)

let test_rtt_warmup_threshold () =
  let r = Rtt.create ~min_size:3 ~max_size:10 in
  Rtt.observe r (Time.ms 10);
  Rtt.observe r (Time.ms 12);
  Alcotest.(check bool) "not warm at 2" false (Rtt.warmed_up r);
  (* Before warm-up Et is still the formula over the samples held
     (mean 11ms, std 1ms); warmed_up is what tells callers to ignore it. *)
  check_ms "Et over the samples held" (Time.ms 13)
    (Rtt.election_timeout r ~s:2.);
  Rtt.observe r (Time.ms 14);
  Alcotest.(check bool) "warm at 3" true (Rtt.warmed_up r)

let test_rtt_election_timeout_formula () =
  let r = Rtt.create ~min_size:2 ~max_size:10 in
  Rtt.observe r (Time.ms 100);
  Rtt.observe r (Time.ms 140);
  (* mean = 120ms, population std = 20ms, s = 2 -> 160ms *)
  Alcotest.(check bool) "warmed up" true (Rtt.warmed_up r);
  check_ms "mu + 2 sigma" (Time.ms 160) (Rtt.election_timeout r ~s:2.);
  check_ms "s=0 gives mean" (Time.ms 120) (Rtt.election_timeout r ~s:0.)

let test_rtt_window_slides () =
  let r = Rtt.create ~min_size:2 ~max_size:3 in
  List.iter (Rtt.observe r) [ Time.ms 1000; Time.ms 10; Time.ms 10; Time.ms 10 ];
  check_ms "old sample evicted" (Time.ms 10) (Rtt.mean r)

let test_rtt_clear () =
  let r = Rtt.create ~min_size:2 ~max_size:10 in
  List.iter (Rtt.observe r) [ Time.ms 5; Time.ms 7 ];
  Rtt.clear r;
  Alcotest.(check int) "empty" 0 (Rtt.length r);
  Alcotest.(check bool) "not warm" false (Rtt.warmed_up r)

(* {2 Loss_estimator} *)

let test_loss_no_loss () =
  let l = Loss.create ~min_size:2 ~max_size:100 in
  for i = 0 to 9 do
    ignore (Loss.observe l i)
  done;
  Alcotest.(check (float 1e-9)) "no gaps" 0. (Loss.loss_rate l);
  Alcotest.(check int) "expected count" 10 (Loss.expected l)

let test_loss_gap_detection () =
  let l = Loss.create ~min_size:2 ~max_size:100 in
  (* ids 0..9 with 5 missing: received 5 of expected 10. *)
  List.iter (fun i -> ignore (Loss.observe l i)) [ 0; 2; 4; 6; 9 ];
  Alcotest.(check (float 1e-9)) "half lost" 0.5 (Loss.loss_rate l)

let test_loss_duplicates_ignored () =
  let l = Loss.create ~min_size:2 ~max_size:100 in
  Alcotest.(check bool) "first recorded" true (Loss.observe l 5 = `Recorded);
  Alcotest.(check bool) "duplicate flagged" true (Loss.observe l 5 = `Duplicate);
  ignore (Loss.observe l 6);
  Alcotest.(check int) "length ignores duplicates" 2 (Loss.length l)

let test_loss_out_of_order () =
  let l = Loss.create ~min_size:2 ~max_size:100 in
  List.iter (fun i -> ignore (Loss.observe l i)) [ 3; 1; 2; 0 ];
  Alcotest.(check (option (pair int int))) "sorted span" (Some (0, 3))
    (Loss.span l);
  Alcotest.(check (float 1e-9)) "no loss despite reordering" 0.
    (Loss.loss_rate l)

let test_loss_eviction_keeps_recent () =
  let l = Loss.create ~min_size:2 ~max_size:4 in
  for i = 0 to 9 do
    ignore (Loss.observe l i)
  done;
  Alcotest.(check int) "bounded" 4 (Loss.length l);
  Alcotest.(check (option (pair int int))) "recent ids kept" (Some (6, 9))
    (Loss.span l)

let test_loss_eviction_with_insert_in_middle () =
  let l = Loss.create ~min_size:2 ~max_size:3 in
  List.iter (fun i -> ignore (Loss.observe l i)) [ 2; 4; 6 ];
  (* Full; inserting 5 evicts the oldest (2) and keeps order. *)
  ignore (Loss.observe l 5);
  Alcotest.(check (option (pair int int))) "span" (Some (4, 6)) (Loss.span l);
  Alcotest.(check int) "len" 3 (Loss.length l)

(* {2 required_heartbeats formula} *)

let test_required_heartbeats_formula () =
  let k p x = Tuner.required_heartbeats_for ~p ~x in
  Alcotest.(check int) "p=0 -> 1" 1 (k 0. 0.999);
  Alcotest.(check int) "p=0.05 x=0.999 -> 3" 3 (k 0.05 0.999);
  Alcotest.(check int) "p=0.10 x=0.999 -> 3" 3 (k 0.10 0.999);
  Alcotest.(check int) "p=0.30 x=0.999 -> 6" 6 (k 0.30 0.999);
  Alcotest.(check int) "p=0.5 x=0.999 -> 10" 10 (k 0.5 0.999);
  Alcotest.(check int) "p=1 -> max_int" max_int (k 1. 0.999)

let test_required_heartbeats_guarantee () =
  (* K must actually achieve 1 - p^K >= x. *)
  List.iter
    (fun p ->
      List.iter
        (fun x ->
          let k = Tuner.required_heartbeats_for ~p ~x in
          Alcotest.(check bool)
            (Printf.sprintf "p=%.2f x=%.4f k=%d" p x k)
            true
            (1. -. (p ** float_of_int k) >= x -. 1e-12))
        [ 0.9; 0.99; 0.999; 0.9999 ])
    [ 0.01; 0.05; 0.1; 0.2; 0.3; 0.5; 0.8 ]

(* {2 Tuner} *)

(* The base parameters a Dynatune server hands its tuner and leader
   paths: etcd's defaults. *)
let base_et = Time.ms 1000
let base_h = Time.ms 100

let new_tuner cfg =
  Tuner.create cfg ~election_timeout:base_et ~heartbeat_interval:base_h

let new_path () = Leader_path.create ~heartbeat_interval:base_h

let small_cfg =
  {
    Config.default with
    Config.min_list_size = 3;
    max_list_size = 10;
  }

let feed tuner ~n ~rtt ?(skip = fun _ -> false) () =
  let id = ref 0 in
  for i = 0 to n - 1 do
    if not (skip i) then
      Tuner.observe_heartbeat tuner ~hb_id:!id ~rtt:(Some rtt);
    incr id
  done

let test_tuner_warming_uses_defaults () =
  let t = new_tuner small_cfg in
  Alcotest.(check bool) "starts warming" true (Tuner.phase t = Tuner.Warming);
  check_ms "default Et" base_et
    (Tuner.election_timeout t);
  check_ms "default h" base_h
    (Tuner.heartbeat_interval t)

let test_tuner_tunes_after_warmup () =
  let t = new_tuner small_cfg in
  feed t ~n:5 ~rtt:(Time.ms 100) ();
  Alcotest.(check bool) "tuned" true (Tuner.phase t = Tuner.Tuned);
  (* Zero variance: Et = mean = 100ms (above the 10ms clamp). *)
  check_ms "Et = rtt" (Time.ms 100) (Tuner.election_timeout t);
  (* p=0 -> K=1 -> h = Et. *)
  Alcotest.(check int) "K=1 when lossless" 1 (Tuner.required_heartbeats t);
  check_ms "h = Et" (Time.ms 100) (Tuner.heartbeat_interval t)

let test_tuner_h_under_loss () =
  let t = new_tuner { small_cfg with Config.max_list_size = 100 } in
  (* Drop 30% of heartbeat ids (deterministic pattern: 3 in 10).  With
     ids 3..99 retained, p = 1 - 70/97 ≈ 0.278. *)
  feed t ~n:100 ~rtt:(Time.ms 100) ~skip:(fun i -> i mod 10 < 3) ();
  let p = Tuner.loss_rate t in
  Alcotest.(check bool)
    (Printf.sprintf "loss %.3f near 0.3" p)
    true
    (p > 0.25 && p < 0.35);
  let k = Tuner.required_heartbeats t in
  Alcotest.(check int) "K for 30% loss" 6 k;
  check_ms "h = Et/K"
    (Tuner.election_timeout t / k)
    (Tuner.heartbeat_interval t)

let test_tuner_reset_falls_back () =
  let t = new_tuner small_cfg in
  feed t ~n:5 ~rtt:(Time.ms 50) ();
  Alcotest.(check bool) "tuned before reset" true (Tuner.phase t = Tuner.Tuned);
  Tuner.reset t;
  Alcotest.(check bool) "warming after reset" true
    (Tuner.phase t = Tuner.Warming);
  check_ms "default Et restored"
    base_et (Tuner.election_timeout t)

let test_tuner_et_clamped_below () =
  let t = new_tuner small_cfg in
  feed t ~n:5 ~rtt:(Time.us 100) ();
  check_ms "clamped to min_election_timeout"
    Config.min_election_timeout (Tuner.election_timeout t)

let test_tuner_et_clamped_above () =
  let t = new_tuner small_cfg in
  feed t ~n:5 ~rtt:(Time.sec 20) ();
  check_ms "clamped to max_election_timeout" Config.max_election_timeout
    (Tuner.election_timeout t)

let test_tuner_duplicate_ids_dont_advance () =
  let t = new_tuner small_cfg in
  for _ = 1 to 10 do
    Tuner.observe_heartbeat t ~hb_id:0 ~rtt:(Some (Time.ms 10))
  done;
  Alcotest.(check int) "one sample" 1 (Tuner.samples t);
  Alcotest.(check bool) "still warming" true (Tuner.phase t = Tuner.Warming)

let test_tuner_et_tracks_rtt_increase () =
  let t = new_tuner small_cfg in
  feed t ~n:10 ~rtt:(Time.ms 50) ();
  let et_before = Tuner.election_timeout t in
  (* Window slides: feed higher RTTs with fresh ids. *)
  for i = 100 to 115 do
    Tuner.observe_heartbeat t ~hb_id:i ~rtt:(Some (Time.ms 500))
  done;
  let et_after = Tuner.election_timeout t in
  Alcotest.(check bool)
    (Printf.sprintf "Et rises %dms -> %dms"
       (int_of_float (Time.to_ms_f et_before))
       (int_of_float (Time.to_ms_f et_after)))
    true (et_after > et_before);
  Alcotest.(check bool) "Et at least new RTT" true (et_after >= Time.ms 500)

(* {2 EWMA estimator} *)

module Ewma = Dynatune.Ewma_estimator

let test_ewma_seeds_from_first_sample () =
  let e = Ewma.create ~min_samples:1 () in
  Ewma.observe e (Time.ms 100);
  check_ms "srtt = first sample" (Time.ms 100) (Ewma.mean e);
  check_ms "rttvar = half of it" (Time.ms 50) (Ewma.deviation e)

let test_ewma_converges () =
  let e = Ewma.create ~alpha:0.125 ~min_samples:1 () in
  for _ = 1 to 200 do
    Ewma.observe e (Time.ms 80)
  done;
  Alcotest.(check bool) "srtt converges to the level" true
    (abs_float (Time.to_ms_f (Ewma.mean e) -. 80.) < 0.5);
  Alcotest.(check bool) "rttvar decays toward zero" true
    (Time.to_ms_f (Ewma.deviation e) < 1.)

let test_ewma_tracks_level_shift () =
  let fresh alpha =
    let e = Ewma.create ~alpha ~min_samples:1 () in
    for _ = 1 to 100 do
      Ewma.observe e (Time.ms 50)
    done;
    (* Count samples needed after a shift to 150ms until srtt > 140ms. *)
    let n = ref 0 in
    while Time.to_ms_f (Ewma.mean e) < 140. && !n < 1000 do
      incr n;
      Ewma.observe e (Time.ms 150)
    done;
    !n
  in
  let slow = fresh 0.125 and fast = fresh 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "larger alpha adapts faster (%d < %d)" fast slow)
    true (fast < slow)

let test_ewma_warmup_and_clear () =
  let e = Ewma.create ~min_samples:3 () in
  Ewma.observe e (Time.ms 10);
  Ewma.observe e (Time.ms 10);
  Alcotest.(check bool) "not warm at 2" false (Ewma.warmed_up e);
  (* srtt 10ms, rttvar 0.75 * 5ms: Et is the formula before warm-up too. *)
  check_ms "Et over the samples held" (Time.of_ms_f 17.5)
    (Ewma.election_timeout e ~s:2.);
  Ewma.observe e (Time.ms 10);
  Alcotest.(check bool) "warm at 3" true (Ewma.warmed_up e);
  Ewma.clear e;
  Alcotest.(check int) "cleared" 0 (Ewma.length e);
  Alcotest.(check bool) "not warm after clear" false (Ewma.warmed_up e)

let test_ewma_rejects_bad_alpha () =
  List.iter
    (fun alpha ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore (Ewma.create ~alpha ~min_samples:1 ());
           false
         with Invalid_argument _ -> true))
    [ 0.; -0.5; 1.5 ]

let test_tuner_with_ewma_backend () =
  let cfg =
    {
      small_cfg with
      Config.rtt_estimator = Config.Ewma 0.25;
    }
  in
  let t = new_tuner cfg in
  feed t ~n:30 ~rtt:(Time.ms 100) ();
  Alcotest.(check bool) "tuned" true (Tuner.phase t = Tuner.Tuned);
  let et = Time.to_ms_f (Tuner.election_timeout t) in
  (* srtt -> 100, rttvar decays: Et approaches 100 from above. *)
  Alcotest.(check bool)
    (Printf.sprintf "Et %.1f near RTT" et)
    true
    (et >= 100. && et < 140.);
  Tuner.reset t;
  Alcotest.(check bool) "reset rewinds to warming" true
    (Tuner.phase t = Tuner.Warming);
  check_ms "defaults after reset" base_et
    (Tuner.election_timeout t)

(* {2 Leader_path} *)

let test_leader_path_meta_sequence () =
  let p = new_path () in
  Alcotest.(check int) "ids sequential" 0 (Leader_path.next_id p);
  Alcotest.(check int) "ids sequential" 1 (Leader_path.next_id p)

let test_leader_path_rtt_shipped_once () =
  let p = new_path () in
  Alcotest.(check (option int)) "no measurement yet" None (Leader_path.take_rtt p);
  Leader_path.on_response p ~now:(Time.ms 30) ~echo_sent_at:Time.zero
    ~tuned_h:None;
  Alcotest.(check (option int)) "rtt piggybacked" (Some (Time.ms 30))
    (Leader_path.take_rtt p);
  Alcotest.(check (option int)) "shipped only once" None (Leader_path.take_rtt p)

let test_leader_path_applies_h () =
  let p = new_path () in
  check_ms "default interval"
    base_h (Leader_path.interval p);
  Leader_path.on_response p ~now:(Time.ms 10) ~echo_sent_at:Time.zero
    ~tuned_h:(Some (Time.ms 42));
  check_ms "tuned interval applied" (Time.ms 42) (Leader_path.interval p)

let test_leader_path_h_clamped () =
  let p = new_path () in
  Leader_path.on_response p ~now:(Time.ms 10) ~echo_sent_at:Time.zero
    ~tuned_h:(Some 1);
  check_ms "clamped to min interval" Config.min_heartbeat_interval
    (Leader_path.interval p)

let test_leader_path_future_echo_ignored () =
  let p = new_path () in
  Leader_path.on_response p ~now:(Time.ms 10) ~echo_sent_at:(Time.ms 20)
    ~tuned_h:None;
  Alcotest.(check (option int)) "future timestamp rejected" None
    (Leader_path.take_rtt p)

(* A leader builds a fresh path per follower each time it takes office:
   the heartbeat ids, the pending RTT and the piggybacked h of one
   leadership do not carry into the next. *)
let test_leader_path_fresh_each_leadership () =
  let module S = Raft.Server in
  let follower = Netsim.Node_id.of_int 1 in
  let s = Test_server.make ~config:(Raft.Config.dynatune ()) ~self:0 () in
  ignore (S.start s : S.action list);
  ignore (Test_server.elect s ~now:Time.zero : S.action list);
  let heartbeats_to_follower acts =
    List.filter_map
      (function
        | S.Send
            {
              dst;
              msg = Raft.Rpc.Heartbeat { hb_id; measured_rtt; _ };
              _;
            }
          when Netsim.Node_id.equal dst follower ->
            Some (hb_id, measured_rtt)
        | _ -> None)
      acts
  in
  let beat ~now =
    heartbeats_to_follower (S.handle s ~now (S.Heartbeat_due follower))
  in
  ignore (beat ~now:(Time.ms 10));
  ignore
    (Test_server.recv s ~from:1
       (Raft.Rpc.Heartbeat_response
          {
            term = S.term s;
            hb_id = 0;
            echo_sent_at = Time.ms 10;
            tuned_h = Some (Time.ms 33);
            hr_gen = 0;
          })
       ~now:(Time.ms 20)
      : S.action list);
  Alcotest.(check (option int)) "piggybacked h applied" (Some (Time.ms 33))
    (S.heartbeat_interval_to s follower);
  (* Deposed by a higher-term heartbeat, then elected again. *)
  ignore
    (Test_server.recv s ~from:1
       (Test_server.heartbeat ~term:(S.term s + 1) ~commit:0 ())
       ~now:(Time.ms 30)
      : S.action list);
  Alcotest.(check bool) "stepped down" false (Raft.Types.is_leader (S.role s));
  ignore (Test_server.elect s ~now:(Time.ms 40) : S.action list);
  Alcotest.(check bool) "leader again" true (Raft.Types.is_leader (S.role s));
  Alcotest.(check (option int)) "base h again" (Some base_h)
    (S.heartbeat_interval_to s follower);
  Alcotest.(check (list (pair int (option int))))
    "first heartbeat: id 0, no RTT" [ (0, None) ] (beat ~now:(Time.ms 50))

(* {2 The tuner against its pre-rewrite reference}

   [Tuner_reference] is a frozen copy of the tuning stack before its
   allocation-free rewrite.  Random heartbeat streams (fresh ids,
   duplicates, reorders, gaps, with or without an RTT sample, and
   resets) drive both; every derived value must agree bit for bit after
   every step. *)

module Ref = Tuner_reference.Tuner

type step = Beat of int * Time.span option | Reset

let gen_rtt =
  QCheck.Gen.(
    frequency
      [
        (1, return None);
        (8, map Option.some (int_range 0 2_000_000_000));
        (2, map Option.some (int_range 0 1_000));
      ])

(* A beat's int is the id's offset from the highest id sent so far. *)
let gen_step =
  QCheck.Gen.(
    frequency
      [
        (20, map (fun r -> Beat (1, r)) gen_rtt);
        (3, map (fun r -> Beat (0, r)) gen_rtt);
        (3, map2 (fun d r -> Beat (-d, r)) (int_range 1 30) gen_rtt);
        (3, map2 (fun d r -> Beat (d, r)) (int_range 2 300) gen_rtt);
        (1, return Reset);
      ])

let gen_config =
  QCheck.Gen.(
    let* estimator =
      frequency
        [
          (3, return Config.Sliding_window);
          (1, map (fun a -> Config.Ewma a) (float_range 0.01 1.));
        ]
    in
    let* min_list_size = int_range 2 30 in
    let* extra = int_range 0 90 in
    let* safety_factor = float_range 0. 4. in
    let* arrival_probability = float_range 0.5 0.99999 in
    return
      {
        Config.rtt_estimator = estimator;
        min_list_size;
        max_list_size = min_list_size + extra;
        safety_factor;
        arrival_probability;
      })

let gen_run =
  QCheck.Gen.(
    pair gen_config
      (list_size
         (frequency [ (4, int_range 0 400); (1, int_range 4000 9000) ])
         gen_step))

let print_run ((cfg : Config.t), steps) =
  Printf.sprintf "min=%d max=%d s=%h x=%h %s, %d steps" cfg.Config.min_list_size
    cfg.Config.max_list_size cfg.Config.safety_factor
    cfg.Config.arrival_probability
    (match cfg.Config.rtt_estimator with
    | Config.Sliding_window -> "window"
    | Config.Ewma a -> Printf.sprintf "ewma %h" a)
    (List.length steps)

let same_tuner i tuner reference =
  let ints what a b =
    if a <> b then QCheck.Test.fail_reportf "step %d: %s %d <> %d" i what a b
  in
  let bits what a b =
    if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
      QCheck.Test.fail_reportf "step %d: %s %h <> %h" i what a b
  in
  ints "Et" (Tuner.election_timeout tuner) (Ref.election_timeout reference);
  ints "K" (Tuner.required_heartbeats tuner)
    (Ref.required_heartbeats reference);
  ints "h" (Tuner.heartbeat_interval tuner) (Ref.heartbeat_interval reference);
  bits "loss_rate" (Tuner.loss_rate tuner) (Ref.loss_rate reference);
  ints "rtt_mean" (Tuner.rtt_mean tuner) (Ref.rtt_mean reference);
  ints "rtt_std" (Tuner.rtt_std tuner) (Ref.rtt_std reference);
  ints "samples" (Tuner.samples tuner) (Ref.samples reference);
  ints "phase"
    (match Tuner.phase tuner with Tuner.Warming -> 0 | Tuner.Tuned -> 1)
    (match Ref.phase reference with Ref.Warming -> 0 | Ref.Tuned -> 1)

let prop_tuner_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"tuner: bit-identical to the pre-rewrite reference"
    (QCheck.make ~print:print_run gen_run)
    (fun (cfg, steps) ->
      let tuner = new_tuner cfg
      and reference =
        Ref.create cfg ~election_timeout:base_et ~heartbeat_interval:base_h
      in
      let top = ref (-1) in
      List.iteri
        (fun i step ->
          (match step with
          | Reset ->
              Tuner.reset tuner;
              Ref.reset reference;
              top := -1
          | Beat (offset, rtt) ->
              let hb_id = !top + offset in
              if hb_id > !top then top := hb_id;
              Tuner.observe_heartbeat tuner ~hb_id ~rtt;
              Ref.observe_heartbeat reference ~hb_id ~rtt);
          same_tuner i tuner reference)
        steps;
      true)

(* The tuner recomputes Et, K and h when their inputs change: the raw
   Et on RTT samples alone, K and h on every recorded heartbeat and on
   [reset].  Against the reference's compute functions, called directly
   after the step (no stored value at all), what the tuner stores must
   agree bit for bit.  The stream leans on what splits the inputs apart:
   beats without an RTT sample, duplicates and resets; a step queries
   the tuner or not, so stored values can also go unread across several
   steps.  Some runs draw a Fix-K k: K is then k and h = max(min_h,
   Et/k) from the reference's Et.  A query also takes the tuner's
   decision, against a model that notes each change of the triple. *)
let gen_eager_steps =
  QCheck.Gen.(
    let rtt =
      frequency
        [ (3, return None); (2, map Option.some (int_range 1 500_000_000)) ]
    in
    let step =
      frequency
        [
          (12, map (fun r -> Beat (1, r)) rtt);
          (4, map (fun r -> Beat (0, r)) rtt);
          (2, map2 (fun d r -> Beat (-d, r)) (int_range 1 10) rtt);
          (2, map2 (fun d r -> Beat (d, r)) (int_range 2 20) rtt);
          (1, return Reset);
        ]
    in
    triple gen_config
      (frequency [ (2, return None); (1, map Option.some (int_range 1 40)) ])
      (list_size (int_range 0 400) (pair step bool)))

let prop_tuner_matches_eager_recompute =
  QCheck.Test.make ~count:300
    ~name:"tuner: stored Et, K and h equal a recompute after each step"
    (QCheck.make
       ~print:(fun (cfg, fixed_k, steps) ->
         Printf.sprintf "%s, fixed_k=%s"
           (print_run (cfg, List.map fst steps))
           (match fixed_k with Some k -> string_of_int k | None -> "-"))
       gen_eager_steps)
    (fun (cfg, fixed_k, steps) ->
      let tuner =
        Tuner.create ?fixed_k cfg ~election_timeout:base_et
          ~heartbeat_interval:base_h
      and eager =
        Ref.create cfg ~election_timeout:base_et ~heartbeat_interval:base_h
      in
      let derived () =
        let et = Ref.compute_election_timeout eager in
        match (fixed_k, Ref.phase eager) with
        | Some k, Ref.Tuned ->
            ( et,
              k,
              Time.max_span Config.min_heartbeat_interval (et / k) )
        | None, _ | Some _, Ref.Warming ->
            let k = Ref.compute_required_heartbeats eager ~et in
            (et, k, Ref.compute_heartbeat_interval eager ~et ~k)
      in
      (* The decision model: [First] after creation and reset, [Moved]
         once the triple changes while nothing is pending. *)
      let pending = ref Tuner.First and last = ref (derived ()) in
      let top = ref (-1) in
      List.iteri
        (fun i (step, query) ->
          (match step with
          | Reset ->
              Tuner.reset tuner;
              Ref.reset eager;
              pending := Tuner.First;
              top := -1
          | Beat (offset, rtt) ->
              let hb_id = !top + offset in
              if hb_id > !top then top := hb_id;
              Tuner.observe_heartbeat tuner ~hb_id ~rtt;
              Ref.observe_heartbeat eager ~hb_id ~rtt);
          let ((et, k, h) as now) = derived () in
          if !pending = Tuner.Unchanged && now <> !last then
            pending := Tuner.Moved;
          last := now;
          if query then begin
            let ints what a b =
              if a <> b then
                QCheck.Test.fail_reportf "step %d: %s %d <> %d" i what a b
            in
            ints "Et" (Tuner.election_timeout tuner) et;
            ints "K" (Tuner.required_heartbeats tuner) k;
            ints "h" (Tuner.heartbeat_interval tuner) h;
            let expected =
              match Ref.phase eager with
              | Ref.Warming -> Tuner.Unchanged
              | Ref.Tuned ->
                  let d = !pending in
                  pending := Tuner.Unchanged;
                  d
            in
            if Tuner.take_decision tuner <> expected then
              QCheck.Test.fail_reportf "step %d: decision differs" i
          end)
        steps;
      true)

(* {2 The loss window against the shifting reference}

   [Loss.observe] appends an in-order id in O(1) and indexes its ring
   without [mod]; [Tuner_reference.Loss_estimator] is the search and
   shift it replaces.  Small windows make the ring wrap and evict
   often; steps are offsets from the highest id sent: in order, a
   duplicate of the newest, an older id (a reorder or an older
   duplicate), a gap, or a clear.  After every step both must agree on
   the outcome, [length], [span], [expected], [warmed_up] and the bits
   of [loss_rate]. *)

module Ref_loss = Tuner_reference.Loss_estimator

type loss_step = Id of int | Clear

let gen_loss_run =
  QCheck.Gen.(
    let* min_size = int_range 1 6 in
    let* extra = frequency [ (4, int_range 0 8); (1, int_range 9 120) ] in
    let step =
      frequency
        [
          (12, return (Id 1));
          (2, return (Id 0));
          (4, map (fun d -> Id (-d)) (int_range 1 20));
          (2, map (fun d -> Id d) (int_range 2 50));
          (1, return Clear);
        ]
    in
    let* steps = list_size (int_range 0 500) step in
    return (min_size, min_size + extra, steps))

let prop_loss_matches_reference =
  QCheck.Test.make ~count:500
    ~name:"loss window: bit-identical to the shifting reference"
    (QCheck.make
       ~print:(fun (lo, hi, steps) ->
         Printf.sprintf "min=%d max=%d [%s]" lo hi
           (String.concat ";"
              (List.map
                 (function Id d -> string_of_int d | Clear -> "clear")
                 steps)))
       gen_loss_run)
    (fun (min_size, max_size, steps) ->
      let l = Loss.create ~min_size ~max_size
      and r = Ref_loss.create ~min_size ~max_size in
      let top = ref 0 in
      List.iteri
        (fun i step ->
          let fail what = QCheck.Test.fail_reportf "step %d: %s" i what in
          (match step with
          | Clear ->
              Loss.clear l;
              Ref_loss.clear r
          | Id d ->
              let id = !top + d in
              if id > !top then top := id;
              if Loss.observe l id <> Ref_loss.observe r id then fail "outcome");
          if Loss.length l <> Ref_loss.length r then fail "length";
          if Loss.span l <> Ref_loss.span r then fail "span";
          if Loss.expected l <> Ref_loss.expected r then fail "expected";
          if Loss.warmed_up l <> Ref_loss.warmed_up r then fail "warmed_up";
          if
            not
              (Int64.equal
                 (Int64.bits_of_float (Loss.loss_rate l))
                 (Int64.bits_of_float (Ref_loss.loss_rate r)))
          then fail "loss_rate")
        steps;
      true)

let tests =
  [
    Alcotest.test_case "config: default valid" `Quick test_config_default_valid;
    Alcotest.test_case "config: rejects bad" `Quick test_config_rejects_bad;
    Alcotest.test_case "rtt: warmup threshold" `Quick test_rtt_warmup_threshold;
    Alcotest.test_case "rtt: Et formula" `Quick
      test_rtt_election_timeout_formula;
    Alcotest.test_case "rtt: window slides" `Quick test_rtt_window_slides;
    Alcotest.test_case "rtt: clear" `Quick test_rtt_clear;
    Alcotest.test_case "loss: no loss" `Quick test_loss_no_loss;
    Alcotest.test_case "loss: gap detection" `Quick test_loss_gap_detection;
    Alcotest.test_case "loss: duplicates ignored" `Quick
      test_loss_duplicates_ignored;
    Alcotest.test_case "loss: out of order" `Quick test_loss_out_of_order;
    Alcotest.test_case "loss: eviction keeps recent" `Quick
      test_loss_eviction_keeps_recent;
    Alcotest.test_case "loss: eviction mid-insert" `Quick
      test_loss_eviction_with_insert_in_middle;
    Alcotest.test_case "K: formula values" `Quick
      test_required_heartbeats_formula;
    Alcotest.test_case "K: satisfies guarantee" `Quick
      test_required_heartbeats_guarantee;
    Alcotest.test_case "tuner: warming defaults" `Quick
      test_tuner_warming_uses_defaults;
    Alcotest.test_case "tuner: tunes after warmup" `Quick
      test_tuner_tunes_after_warmup;
    Alcotest.test_case "tuner: h under loss" `Quick test_tuner_h_under_loss;
    Alcotest.test_case "tuner: reset falls back" `Quick
      test_tuner_reset_falls_back;
    Alcotest.test_case "tuner: Et clamped below" `Quick
      test_tuner_et_clamped_below;
    Alcotest.test_case "tuner: Et clamped above" `Quick
      test_tuner_et_clamped_above;
    Alcotest.test_case "tuner: duplicates don't advance" `Quick
      test_tuner_duplicate_ids_dont_advance;
    Alcotest.test_case "tuner: Et tracks RTT increase" `Quick
      test_tuner_et_tracks_rtt_increase;
    Alcotest.test_case "ewma: seeds from first sample" `Quick
      test_ewma_seeds_from_first_sample;
    Alcotest.test_case "ewma: converges" `Quick test_ewma_converges;
    Alcotest.test_case "ewma: tracks level shift" `Quick
      test_ewma_tracks_level_shift;
    Alcotest.test_case "ewma: warmup and clear" `Quick
      test_ewma_warmup_and_clear;
    Alcotest.test_case "ewma: rejects bad alpha" `Quick
      test_ewma_rejects_bad_alpha;
    Alcotest.test_case "tuner: ewma backend" `Quick
      test_tuner_with_ewma_backend;
    Alcotest.test_case "path: meta sequence" `Quick
      test_leader_path_meta_sequence;
    Alcotest.test_case "path: rtt shipped once" `Quick
      test_leader_path_rtt_shipped_once;
    Alcotest.test_case "path: applies h" `Quick test_leader_path_applies_h;
    Alcotest.test_case "path: h clamped" `Quick test_leader_path_h_clamped;
    Alcotest.test_case "path: future echo ignored" `Quick
      test_leader_path_future_echo_ignored;
    Alcotest.test_case "path: fresh each leadership" `Quick
      test_leader_path_fresh_each_leadership;
    QCheck_alcotest.to_alcotest prop_tuner_matches_reference;
    QCheck_alcotest.to_alcotest prop_tuner_matches_eager_recompute;
    QCheck_alcotest.to_alcotest prop_loss_matches_reference;
  ]
