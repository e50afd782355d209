(* Unit tests for the statistics substrate. *)

module Rng = Stats.Rng
module Dist = Stats.Dist
module Welford = Stats.Welford
module Window = Stats.Window
module Summary = Stats.Summary
module Histogram = Stats.Histogram

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(eps = 1e-6) msg a b = Alcotest.(check (float eps)) msg a b

(* {2 Rng} *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L () and b = Rng.create ~seed:42L () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_changes_stream () =
  let a = Rng.create ~seed:1L () and b = Rng.create ~seed:2L () in
  let distinct = ref false in
  for _ = 1 to 16 do
    if Rng.int64 a <> Rng.int64 b then distinct := true
  done;
  Alcotest.(check bool) "different seeds differ" true !distinct

let test_rng_split_independent () =
  let root = Rng.create ~seed:3L () in
  let a = Rng.split root "alpha" and b = Rng.split root "beta" in
  let a' = Rng.split root "alpha" in
  Alcotest.(check int64) "same name same stream" (Rng.int64 a) (Rng.int64 a');
  Alcotest.(check bool)
    "different names differ" true
    (Rng.int64 a <> Rng.int64 b)

let test_rng_split_does_not_advance_parent () =
  let a = Rng.create ~seed:9L () and b = Rng.create ~seed:9L () in
  ignore (Rng.split a "x" : Rng.t);
  Alcotest.(check int64) "parent unchanged" (Rng.int64 a) (Rng.int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:5L () in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create () in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0 : int))

let test_rng_float_range () =
  let rng = Rng.create ~seed:11L () in
  for _ = 1 to 10_000 do
    let v = Rng.float rng in
    if v < 0. || v >= 1. then Alcotest.failf "out of range: %f" v
  done

let test_rng_float_mean () =
  let rng = Rng.create ~seed:13L () in
  let w = Welford.create () in
  for _ = 1 to 50_000 do
    Welford.add w (Rng.float rng)
  done;
  check_close ~eps:0.01 "uniform mean 0.5" 0.5 (Welford.mean w)

let test_rng_bernoulli_extremes () =
  let rng = Rng.create ~seed:17L () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.);
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.)
  done

let test_rng_bernoulli_rate () =
  let rng = Rng.create ~seed:19L () in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  check_close ~eps:0.01 "p=0.3" 0.3 (float_of_int !hits /. float_of_int n)

let test_rng_shuffle_permutes () =
  let rng = Rng.create ~seed:23L () in
  let a = Array.init 100 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation"
    (Array.init 100 Fun.id) sorted

(* The stream itself, pinned as literals: every simulated value descends
   from these draws, so a change to the generator's representation must
   reproduce them bit for bit.  Floats are compared by their bits. *)
let test_rng_stream_pinned () =
  let root = Rng.create ~seed:42L () in
  let int64s what r expected =
    List.iter
      (fun e -> Alcotest.(check int64) what e (Rng.int64 r))
      expected
  in
  let bits what expected got =
    Alcotest.(check int64) what (Int64.bits_of_float expected)
      (Int64.bits_of_float got)
  in
  int64s "int64" root
    [ -7450291807549245335L; 2958219263312191191L; 3069497704473277141L ];
  List.iter
    (fun (n, e) -> Alcotest.(check int) (Printf.sprintf "int %d" n) e (Rng.int root n))
    [ (7, 2); (1000, 889); (1 lsl 40, 102898967728);
      (max_int, 1288224301085851122) ];
  Alcotest.(check int) "bits" 705096088656582996 (Rng.bits root);
  List.iter (fun e -> bits "float" e (Rng.float root))
    [ 0x1.8578493c50ec1p-1; 0x1.f34e1428846dcp-3; 0x1.87656a3f8c3d9p-1 ];
  Alcotest.(check (list bool)) "bernoulli 0.3"
    [ false; false; true; true; false; true; true; true ]
    (List.init 8 (fun _ -> Rng.bernoulli root 0.3));
  bits "exponential" 0x1.179818d8fab8ep-1 (Dist.exponential root ~rate:2.);
  bits "normal" 0x1.0e6e170ac5277p+0 (Dist.normal root ~mu:1. ~sigma:0.5);
  bits "lognormal" 0x1.c218e1f9772bdp-1 (Dist.lognormal root ~mu:0.1 ~sigma:0.2);
  bits "lognormal mean-preserving" 0x1.515bd94326bcep+0
    (Dist.lognormal_mean_preserving root ~sigma:0.3);
  let a = Rng.split root "alpha" in
  int64s "split" a [ 2768826310605462963L; 1562686704216864510L ];
  Alcotest.(check int) "split int" 4 (Rng.int a 10);
  bits "split float" 0x1.60c5ccd8d294ap-1 (Rng.float a);
  let b = Rng.split_int root 5 in
  int64s "split_int" b [ -9191933660326429901L; -6325764831712274421L ];
  Alcotest.(check int) "split_int int" 3 (Rng.int b 10);
  bits "split_int float" 0x1.29f9de3e6db64p-2 (Rng.float b);
  let c = Rng.copy root in
  int64s "copy" c [ 2099798786249847244L; -6577945819713090270L ];
  int64s "copy leaves the original" root
    [ 2099798786249847244L; -6577945819713090270L ];
  (* Half of all draws are rejected at this bound, so the loop runs. *)
  List.iter
    (fun e -> Alcotest.(check int) "int, rejection" e (Rng.int root ((1 lsl 61) + 1)))
    [ 91854136807699183; 321535476775920064 ];
  Alcotest.(check int64) "derive" 3528034841101151585L (Rng.derive 42L 3);
  int64s "default seed" (Rng.create ()) [ 6701405656414939238L ]

(* {2 Dist} *)

let sample_stats n f =
  let w = Welford.create () in
  for _ = 1 to n do
    Welford.add w (f ())
  done;
  w

let test_exponential_mean () =
  let rng = Rng.create ~seed:29L () in
  let w = sample_stats 100_000 (fun () -> Dist.exponential rng ~rate:4.) in
  check_close ~eps:0.01 "mean 1/rate" 0.25 (Welford.mean w)

let test_exponential_positive () =
  let rng = Rng.create ~seed:31L () in
  for _ = 1 to 10_000 do
    if Dist.exponential rng ~rate:0.5 < 0. then Alcotest.fail "negative"
  done

let test_normal_moments () =
  let rng = Rng.create ~seed:37L () in
  let w = sample_stats 100_000 (fun () -> Dist.normal rng ~mu:3. ~sigma:2.) in
  check_close ~eps:0.05 "mean" 3. (Welford.mean w);
  check_close ~eps:0.05 "std" 2. (Welford.std w)

let test_lognormal_mean_preserving () =
  let rng = Rng.create ~seed:41L () in
  let w =
    sample_stats 200_000 (fun () ->
        Dist.lognormal_mean_preserving rng ~sigma:0.5)
  in
  check_close ~eps:0.02 "mean 1" 1. (Welford.mean w)

let test_lognormal_zero_sigma () =
  let rng = Rng.create ~seed:43L () in
  check_float "sigma 0 gives exactly 1" 1.
    (Dist.lognormal_mean_preserving rng ~sigma:0.)

(* {2 Welford} *)

let test_welford_basic () =
  let w = Welford.create () in
  List.iter (Welford.add w) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_float "mean" 5. (Welford.mean w);
  check_float "population variance" 4. (Welford.variance w);
  check_float "min" 2. (Welford.min w);
  check_float "max" 9. (Welford.max w);
  Alcotest.(check int) "count" 8 (Welford.count w)

let test_welford_empty () =
  let w = Welford.create () in
  check_float "empty mean" 0. (Welford.mean w);
  check_float "empty variance" 0. (Welford.variance w)

let test_welford_merge () =
  let all = Welford.create () in
  let a = Welford.create () and b = Welford.create () in
  List.iteri
    (fun i x ->
      Welford.add all x;
      if i mod 2 = 0 then Welford.add a x else Welford.add b x)
    [ 1.; 5.; 2.; 8.; 3.; 9.; 4.; 7.; 6.; 0. ];
  let merged = Welford.merge a b in
  check_close "merged mean" (Welford.mean all) (Welford.mean merged);
  check_close "merged variance" (Welford.variance all)
    (Welford.variance merged);
  check_float "merged min" (Welford.min all) (Welford.min merged)

(* {2 Window} *)

let test_window_eviction () =
  let w = Window.create ~capacity:3 in
  List.iter (Window.push w) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check int) "bounded" 3 (Window.length w);
  Alcotest.(check (list (float 1e-9))) "oldest evicted" [ 2.; 3.; 4. ]
    (Window.to_list w)

let test_window_stats () =
  let w = Window.create ~capacity:10 in
  List.iter (Window.push w) [ 2.; 4.; 6. ];
  check_float "mean" 4. (Window.mean w);
  check_close "std" (sqrt (8. /. 3.)) (Window.std w);
  check_float "min" 2. (Window.min w);
  check_float "max" 6. (Window.max w)

let test_window_stats_after_eviction () =
  let w = Window.create ~capacity:2 in
  List.iter (Window.push w) [ 100.; 1.; 3. ];
  check_float "mean of survivors" 2. (Window.mean w);
  check_float "std of survivors" 1. (Window.std w)

let test_window_clear () =
  let w = Window.create ~capacity:4 in
  List.iter (Window.push w) [ 1.; 2. ];
  Window.clear w;
  Alcotest.(check int) "empty" 0 (Window.length w);
  check_float "mean resets" 0. (Window.mean w)

let test_window_numerical_stability () =
  (* Many pushes with eviction: running sums must not drift. *)
  let w = Window.create ~capacity:50 in
  for i = 1 to 100_000 do
    Window.push w (1e9 +. float_of_int (i mod 7))
  done;
  let expected_mean =
    let xs = Window.to_list w in
    List.fold_left ( +. ) 0. xs /. 50.
  in
  check_close ~eps:1e-3 "mean matches recomputation" expected_mean
    (Window.mean w);
  Alcotest.(check bool) "std finite and small" true (Window.std w < 3.)

let test_window_single_element_std () =
  let w = Window.create ~capacity:4 in
  Window.push w 42.;
  check_float "single sample std" 0. (Window.std w)

(* {2 Summary} *)

let test_summary_percentiles () =
  let s = Summary.of_list [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  check_float "p0 = min" 1. (Summary.percentile s 0.);
  check_float "p100 = max" 10. (Summary.percentile s 100.);
  check_float "median" 5.5 (Summary.median s);
  check_float "mean" 5.5 (Summary.mean s)

let test_summary_cdf_at () =
  let s = Summary.of_list [ 1.; 2.; 3.; 4. ] in
  check_float "cdf below" 0. (Summary.cdf_at s 0.5);
  check_float "cdf mid" 0.5 (Summary.cdf_at s 2.);
  check_float "cdf above" 1. (Summary.cdf_at s 10.)

let test_summary_cdf_monotone () =
  let s = Summary.of_list [ 5.; 1.; 3.; 2.; 4.; 9.; 7. ] in
  let points = Summary.cdf s ~points:20 in
  let rec check_sorted = function
    | (v1, p1) :: ((v2, p2) :: _ as rest) ->
        Alcotest.(check bool) "values non-decreasing" true (v2 >= v1);
        Alcotest.(check bool) "probs non-decreasing" true (p2 >= p1);
        check_sorted rest
    | _ -> ()
  in
  check_sorted points

let test_summary_empty () =
  let s = Summary.of_list [] in
  Alcotest.(check int) "count" 0 (Summary.count s);
  Alcotest.(check bool) "nan percentile" true
    (Float.is_nan (Summary.percentile s 50.))

(* {2 Histogram} *)

let test_histogram_binning () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  List.iter (Histogram.add h) [ 0.5; 1.5; 1.9; 9.99; -1.; 10.; 20. ];
  Alcotest.(check int) "bin 0" 1 (Histogram.bin_count h 0);
  Alcotest.(check int) "bin 1" 2 (Histogram.bin_count h 1);
  Alcotest.(check int) "bin 9" 1 (Histogram.bin_count h 9);
  Alcotest.(check int) "underflow" 1 (Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Histogram.overflow h);
  Alcotest.(check int) "total" 7 (Histogram.count h)

let test_histogram_bounds () =
  let h = Histogram.create ~lo:0. ~hi:100. ~bins:4 in
  let lo, hi = Histogram.bin_bounds h 1 in
  check_float "bin lo" 25. lo;
  check_float "bin hi" 50. hi

(* {2 Mergeable accumulators (campaign sharding)} *)

(* NaN-tolerant closeness with a relative term, for property checks over
   arbitrary magnitudes. *)
let close a b =
  (Float.is_nan a && Float.is_nan b)
  || abs_float (a -. b) <= 1e-9 *. (1. +. abs_float a +. abs_float b)

let prop_welford_merge_matches_concat =
  QCheck.Test.make ~count:200
    ~name:"welford: merge matches single pass over concatenation"
    QCheck.(
      pair
        (list (float_range (-1e6) 1e6))
        (list (float_range (-1e6) 1e6)))
    (fun (xs, ys) ->
      let wa = Welford.create ()
      and wb = Welford.create ()
      and all = Welford.create () in
      List.iter
        (fun x ->
          Welford.add wa x;
          Welford.add all x)
        xs;
      List.iter
        (fun y ->
          Welford.add wb y;
          Welford.add all y)
        ys;
      let m = Welford.merge wa wb in
      Welford.count m = Welford.count all
      && close (Welford.mean m) (Welford.mean all)
      && close (Welford.variance m) (Welford.variance all)
      && close (Welford.min m) (Welford.min all)
      && close (Welford.max m) (Welford.max all))

let test_histogram_merge () =
  let rng = Rng.create ~seed:99L () in
  let fresh () = Histogram.create ~lo:0. ~hi:100. ~bins:10 in
  let a = fresh () and b = fresh () and all = fresh () in
  for _ = 1 to 500 do
    (* Spill beyond [lo, hi) on both sides to exercise under/overflow. *)
    let x = Rng.uniform rng (-20.) 120. in
    let target = if Rng.bool rng then a else b in
    Histogram.add target x;
    Histogram.add all x
  done;
  let m = Histogram.merge a b in
  Alcotest.(check int) "total" (Histogram.count all) (Histogram.count m);
  Alcotest.(check int) "underflow" (Histogram.underflow all)
    (Histogram.underflow m);
  Alcotest.(check int) "overflow" (Histogram.overflow all)
    (Histogram.overflow m);
  for i = 0 to 9 do
    Alcotest.(check int)
      (Printf.sprintf "bin %d" i)
      (Histogram.bin_count all i) (Histogram.bin_count m i)
  done;
  (* Inputs are not consumed by the merge. *)
  Alcotest.(check int) "inputs untouched" (Histogram.count all)
    (Histogram.count a + Histogram.count b)

let test_histogram_merge_layout_mismatch () =
  let a = Histogram.create ~lo:0. ~hi:100. ~bins:10 in
  List.iter
    (fun b ->
      match Histogram.merge a b with
      | _ -> Alcotest.fail "expected Invalid_argument on layout mismatch"
      | exception Invalid_argument _ -> ())
    [
      Histogram.create ~lo:1. ~hi:100. ~bins:10;
      Histogram.create ~lo:0. ~hi:50. ~bins:10;
      Histogram.create ~lo:0. ~hi:100. ~bins:20;
    ]

let test_summary_of_parts_exact () =
  let rng = Rng.create ~seed:123L () in
  let parts =
    List.map
      (fun n -> List.init n (fun _ -> Rng.uniform rng (-50.) 50.))
      [ 17; 0; 41; 1; 23 ]
  in
  let merged = Summary.of_parts (List.map Summary.of_list parts) in
  let whole = Summary.of_list (List.concat parts) in
  Alcotest.(check int) "count" (Summary.count whole) (Summary.count merged);
  (* Exact: a summary retains every sample, so rebuilding from parts is
     the same sorted array — identical to the last bit. *)
  List.iter
    (fun q ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "p%g" q)
        (Summary.percentile whole q)
        (Summary.percentile merged q))
    [ 0.; 10.; 25.; 50.; 75.; 90.; 99.; 100. ];
  Alcotest.(check (float 0.)) "mean" (Summary.mean whole) (Summary.mean merged);
  Alcotest.(check (float 0.)) "std" (Summary.std whole) (Summary.std merged)

let tests =
  [
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: seed changes stream" `Quick
      test_rng_seed_changes_stream;
    Alcotest.test_case "rng: named splits" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: split keeps parent" `Quick
      test_rng_split_does_not_advance_parent;
    Alcotest.test_case "rng: int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng: int rejects 0" `Quick test_rng_int_rejects_nonpositive;
    Alcotest.test_case "rng: float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng: float mean" `Slow test_rng_float_mean;
    Alcotest.test_case "rng: bernoulli extremes" `Quick
      test_rng_bernoulli_extremes;
    Alcotest.test_case "rng: bernoulli rate" `Slow test_rng_bernoulli_rate;
    Alcotest.test_case "rng: shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "rng: stream pinned" `Quick test_rng_stream_pinned;
    Alcotest.test_case "dist: exponential mean" `Slow test_exponential_mean;
    Alcotest.test_case "dist: exponential positive" `Quick
      test_exponential_positive;
    Alcotest.test_case "dist: normal moments" `Slow test_normal_moments;
    Alcotest.test_case "dist: lognormal mean-preserving" `Slow
      test_lognormal_mean_preserving;
    Alcotest.test_case "dist: lognormal sigma 0" `Quick
      test_lognormal_zero_sigma;
    Alcotest.test_case "welford: basic moments" `Quick test_welford_basic;
    Alcotest.test_case "welford: empty" `Quick test_welford_empty;
    Alcotest.test_case "welford: merge" `Quick test_welford_merge;
    Alcotest.test_case "window: eviction" `Quick test_window_eviction;
    Alcotest.test_case "window: stats" `Quick test_window_stats;
    Alcotest.test_case "window: stats after eviction" `Quick
      test_window_stats_after_eviction;
    Alcotest.test_case "window: clear" `Quick test_window_clear;
    Alcotest.test_case "window: numerical stability" `Slow
      test_window_numerical_stability;
    Alcotest.test_case "window: single sample std" `Quick
      test_window_single_element_std;
    Alcotest.test_case "summary: percentiles" `Quick test_summary_percentiles;
    Alcotest.test_case "summary: cdf_at" `Quick test_summary_cdf_at;
    Alcotest.test_case "summary: cdf monotone" `Quick test_summary_cdf_monotone;
    Alcotest.test_case "summary: empty" `Quick test_summary_empty;
    Alcotest.test_case "summary: of_parts exact merge" `Quick
      test_summary_of_parts_exact;
    Alcotest.test_case "histogram: binning" `Quick test_histogram_binning;
    Alcotest.test_case "histogram: merge" `Quick test_histogram_merge;
    Alcotest.test_case "histogram: merge layout mismatch" `Quick
      test_histogram_merge_layout_mismatch;
    QCheck_alcotest.to_alcotest prop_welford_merge_matches_concat;
    Alcotest.test_case "histogram: bounds" `Quick test_histogram_bounds;
  ]
