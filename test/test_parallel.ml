(* Domain pool and campaign sharding: result ordering, failure handling,
   shutdown discipline, and the determinism contract of sharded
   campaigns. *)

module Pool = Parallel.Pool
module Campaign = Parallel.Campaign

let with_pool ~domains f =
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_pool_map_in_order () =
  with_pool ~domains:4 (fun pool ->
      let xs = List.init 1000 Fun.id in
      Alcotest.(check (list int))
        "1000 results in input order"
        (List.map (fun x -> x * x) xs)
        (Pool.map pool (fun x -> x * x) xs))

let test_pool_map_empty_and_single () =
  with_pool ~domains:2 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map pool Fun.id []);
      Alcotest.(check (list int)) "single" [ 7 ] (Pool.map pool Fun.id [ 7 ]))

let test_pool_survives_raising_task () =
  with_pool ~domains:2 (fun pool ->
      (match
         Pool.map pool (fun x -> if x = 3 then failwith "boom" else x)
           [ 1; 2; 3; 4; 5 ]
       with
      | _ -> Alcotest.fail "expected the task's exception to re-raise"
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg);
      Alcotest.(check (list int))
        "pool usable after a failed batch" [ 2; 4; 6 ]
        (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ]))

let test_pool_lowest_index_exception_wins () =
  with_pool ~domains:4 (fun pool ->
      match
        Pool.map pool
          (fun x -> if x >= 2 then raise (Failure (string_of_int x)) else x)
          [ 0; 1; 2; 3; 4 ]
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
          Alcotest.(check string) "first failing index re-raised" "2" msg)

let test_pool_shutdown () =
  let pool = Pool.create ~domains:3 in
  Alcotest.(check int) "size" 3 (Pool.size pool);
  Alcotest.(check (list int)) "works" [ 1; 2; 3 ] (Pool.map pool Fun.id [ 1; 2; 3 ]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* Idempotent; submitting afterwards is an error. *)
  match Pool.map pool Fun.id [ 1 ] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ()

let test_pool_create_invalid () =
  match Pool.create ~domains:0 with
  | _ -> Alcotest.fail "expected Invalid_argument for domains = 0"
  | exception Invalid_argument _ -> ()

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
  Alcotest.(check bool) "plan identical inline vs pooled" true
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
    Alcotest.test_case "pool: map 1000 tasks in order" `Quick
      test_pool_map_in_order;
    Alcotest.test_case "pool: map empty and singleton" `Quick
      test_pool_map_empty_and_single;
    Alcotest.test_case "pool: survives raising task" `Quick
      test_pool_survives_raising_task;
    Alcotest.test_case "pool: lowest-index exception wins" `Quick
      test_pool_lowest_index_exception_wins;
    Alcotest.test_case "pool: shutdown joins and rejects" `Quick
      test_pool_shutdown;
    Alcotest.test_case "pool: create rejects domains < 1" `Quick
      test_pool_create_invalid;
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
  ]
