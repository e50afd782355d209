(* Campaign fan-out and sharding: result ordering, failure handling,
   and the determinism contract of sharded campaigns. *)

module Campaign = Parallel.Campaign

let test_all_1000_in_order () =
  let xs = List.init 1000 Fun.id in
  Alcotest.(check (list int))
    "1000 results in input order"
    (List.map (fun x -> x * x) xs)
    (Campaign.all ~jobs:4 (List.map (fun x () -> x * x) xs))

let test_all_empty_and_single () =
  Alcotest.(check (list int)) "empty" [] (Campaign.all ~jobs:2 []);
  Alcotest.(check (list int))
    "single" [ 7 ]
    (Campaign.all ~jobs:2 [ (fun () -> 7) ])

let test_all_lowest_index_exception_wins () =
  let ran = Atomic.make 0 in
  let thunk x () =
    Atomic.incr ran;
    if x >= 2 then raise (Failure (string_of_int x)) else x
  in
  (match Campaign.all ~jobs:4 (List.map thunk [ 0; 1; 2; 3; 4 ]) with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
      Alcotest.(check string) "first failing index re-raised" "2" msg);
  Alcotest.(check int) "every thunk ran before the re-raise" 5 (Atomic.get ran)

let test_all_more_jobs_than_thunks () =
  let runs = Array.init 3 (fun _ -> Atomic.make 0) in
  let results =
    Campaign.all ~jobs:8
      (List.init 3 (fun i () ->
           Atomic.incr runs.(i);
           i))
  in
  Alcotest.(check (list int)) "results in order" [ 0; 1; 2 ] results;
  Array.iteri
    (fun i r ->
      Alcotest.(check int)
        (Printf.sprintf "thunk %d ran once" i)
        1 (Atomic.get r))
    runs

(* With more than one job the caller only joins: every thunk runs on a
   spawned domain. *)
let test_all_runs_off_the_calling_domain () =
  let caller = (Domain.self () :> int) in
  let ran_on =
    Campaign.all ~jobs:3
      (List.init 6 (fun _ () -> (Domain.self () :> int)))
  in
  Alcotest.(check int) "one result per thunk" 6 (List.length ran_on);
  List.iter
    (fun d ->
      Alcotest.(check bool) "thunk ran on a spawned domain" true (d <> caller))
    ran_on

let test_all_inline_raises_first_failure () =
  let ran = ref 0 in
  let thunk x () =
    incr ran;
    if x >= 2 then raise (Failure (string_of_int x)) else x
  in
  (match Campaign.all ~jobs:1 (List.map thunk [ 0; 1; 2; 3; 4 ]) with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
      Alcotest.(check string) "first failing index raised" "2" msg);
  Alcotest.(check int) "every thunk ran before the raise" 5 !ran;
  match Campaign.all ~jobs:4 [ thunk 3 ] with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
      Alcotest.(check string) "single thunk's failure raised" "3" msg

let test_plan_single_shard () =
  List.iter
    (fun total ->
      match Campaign.plan ~seed:42L ~total with
      | [ s ] ->
          Alcotest.(check int) "index" 0 s.Campaign.index;
          Alcotest.(check int) "shards" 1 s.Campaign.shards;
          Alcotest.(check int64) "seed unchanged" 42L s.Campaign.seed;
          Alcotest.(check int) "quota" total s.Campaign.quota
      | l ->
          Alcotest.failf "expected 1 shard for total=%d, got %d" total
            (List.length l))
    [ 1; 0 ]

let test_plan_quotas_and_seeds () =
  let seed = 42L in
  let shards = Campaign.plan ~seed ~total:10 in
  Alcotest.(check int) "shard count" 4 (List.length shards);
  Alcotest.(check int) "quotas sum to total" 10
    (List.fold_left (fun a s -> a + s.Campaign.quota) 0 shards);
  List.iteri
    (fun i s ->
      Alcotest.(check int) "index" i s.Campaign.index;
      Alcotest.(check int) "shards" 4 s.Campaign.shards;
      Alcotest.(check bool) "quotas differ by at most one" true
        (s.Campaign.quota = 2 || s.Campaign.quota = 3);
      Alcotest.(check int64) "seed derivation" (Stats.Rng.derive seed i)
        s.Campaign.seed)
    shards;
  let seeds = List.map (fun s -> s.Campaign.seed) shards in
  Alcotest.(check int) "seeds pairwise distinct"
    (List.length seeds)
    (List.length (List.sort_uniq Int64.compare seeds));
  (* Fewer trials than the shard cap: one shard per trial. *)
  Alcotest.(check int) "total below the cap gives total shards" 3
    (List.length (Campaign.plan ~seed ~total:3))

let test_sharded_runs_all_shards () =
  let quotas =
    Campaign.sharded ~jobs:4 ~seed:7L ~total:10 ~f:(fun s -> s.Campaign.quota)
  in
  Alcotest.(check int) "full campaign covered" 10
    (List.fold_left ( + ) 0 quotas);
  let indexes =
    Campaign.sharded ~jobs:4 ~seed:7L ~total:10 ~f:(fun s -> s.Campaign.index)
  in
  Alcotest.(check (list int)) "results in shard order" [ 0; 1; 2; 3 ] indexes;
  (* One worker runs the same plan inline. *)
  let seq = Campaign.sharded ~jobs:1 ~seed:7L ~total:10 ~f:Fun.id in
  Alcotest.(check bool) "plan identical inline vs parallel" true
    (seq = Campaign.sharded ~jobs:4 ~seed:7L ~total:10 ~f:Fun.id)

let test_all_runs_in_order () =
  let thunks = List.init 9 (fun i () -> i * i) in
  let expected = List.init 9 (fun i -> i * i) in
  Alcotest.(check (list int)) "inline" expected (Campaign.all ~jobs:1 thunks);
  Alcotest.(check (list int)) "parallel" expected (Campaign.all ~jobs:4 thunks)

(* Fingerprint of a campaign result: counts and exact moments of every
   summary.  Two runs agree on this iff they saw the same samples. *)
let fingerprint (r : Scenarios.Fig4.result) =
  List.concat_map
    (fun s ->
      [
        float_of_int (Stats.Summary.count s);
        Stats.Summary.mean s;
        Stats.Summary.std s;
        Stats.Summary.percentile s 90.;
      ])
    [
      r.Scenarios.Fig4.detection;
      r.Scenarios.Fig4.ots;
      r.Scenarios.Fig4.election;
      r.Scenarios.Fig4.randomized;
    ]

let check_same_result msg a b =
  Alcotest.(check (list (float 0.))) msg (fingerprint a) (fingerprint b)

let test_fig4_deterministic_across_runs () =
  let run jobs =
    Scenarios.Fig4.run ~failures:8 ~jobs ~config:(Raft.Config.dynatune ()) ()
  in
  check_same_result "jobs=1 twice" (run 1) (run 1);
  check_same_result "jobs=2 twice" (run 2) (run 2)

let test_fig4_sharded_meets_quota () =
  let r =
    Scenarios.Fig4.run ~failures:9 ~jobs:3 ~config:(Raft.Config.static ()) ()
  in
  Alcotest.(check int) "all shard quotas measured" 9
    r.Scenarios.Fig4.failures

(* The printed figure is what a reader compares across hosts: the same
   text whatever the worker count. *)
let test_printed_figures_jobs_invariant () =
  let render print results = Format.asprintf "%a" print results in
  let fig4 jobs =
    render Scenarios.Fig4.print
      (Scenarios.Fig4.compare_modes ~failures:8 ~jobs ())
  in
  Alcotest.(check string) "fig4 text: jobs 1 = jobs 3" (fig4 1) (fig4 3);
  let reconfig jobs =
    render Scenarios.Reconfig.print
      [
        Scenarios.Reconfig.run ~rounds:3 ~jobs
          ~config:(Raft.Config.dynatune ())
          ();
      ]
  in
  Alcotest.(check string) "reconfig text: jobs 1 = jobs 3" (reconfig 1)
    (reconfig 3)

let tests =
  [
    Alcotest.test_case "campaign: all runs 1000 thunks in order" `Quick
      test_all_1000_in_order;
    Alcotest.test_case "campaign: all empty and singleton" `Quick
      test_all_empty_and_single;
    Alcotest.test_case "campaign: all re-raises the lowest-index exception"
      `Quick test_all_lowest_index_exception_wins;
    Alcotest.test_case "campaign: all with more jobs than thunks" `Quick
      test_all_more_jobs_than_thunks;
    Alcotest.test_case "campaign: single-shard plans" `Quick
      test_plan_single_shard;
    Alcotest.test_case "campaign: quotas and derived seeds" `Quick
      test_plan_quotas_and_seeds;
    Alcotest.test_case "campaign: sharded covers the campaign" `Quick
      test_sharded_runs_all_shards;
    Alcotest.test_case "campaign: all preserves order" `Quick
      test_all_runs_in_order;
    Alcotest.test_case "fig4: same (seed, jobs) twice is identical" `Slow
      test_fig4_deterministic_across_runs;
    Alcotest.test_case "fig4: sharded campaign meets its quota" `Slow
      test_fig4_sharded_meets_quota;
    Alcotest.test_case "figures: printed text independent of jobs" `Slow
      test_printed_figures_jobs_invariant;
    Alcotest.test_case "campaign: all runs thunks off the calling domain"
      `Quick test_all_runs_off_the_calling_domain;
    Alcotest.test_case "campaign: inline all raises the first failure" `Quick
      test_all_inline_raises_first_failure;
  ]
