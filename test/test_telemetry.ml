(* Observability layer: metrics registry semantics, shard-merge
   determinism (the [--jobs] bit-identity contract), and the Chrome
   trace-event exporter (golden file + JSON shape). *)

module Metrics = Telemetry.Metrics
module Chrome = Telemetry.Chrome_trace
module Time = Des.Time

(* {2 Registry} *)

let test_registry_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~scope:"s" ~name:"hits" () in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 4;
  Alcotest.(check int) "counter" 5 (Metrics.Counter.value c);
  let g = Metrics.gauge m ~scope:"s" ~name:"depth" () in
  Metrics.Gauge.set g 2.;
  Metrics.Gauge.set_max g 7.;
  Metrics.Gauge.set_max g 3.;
  Alcotest.(check (float 0.)) "gauge keeps max" 7. (Metrics.Gauge.value g);
  let t =
    Metrics.timer m ~scope:"s" ~name:"lat_ms" ~lo:0. ~hi:10. ~bins:10 ()
  in
  Metrics.Timer.observe_ms t 1.5;
  Metrics.Timer.observe_ms t 2.5;
  let snap = Metrics.snapshot m in
  Alcotest.(check int) "three keys" 3 (List.length snap);
  List.iter
    (fun (key, value) ->
      match (Metrics.key_label key, value) with
      | "s/hits", Metrics.Count n -> Alcotest.(check int) "count" 5 n
      | "s/depth", Metrics.Level v ->
          Alcotest.(check (float 0.)) "level" 7. v
      | "s/lat_ms", Metrics.Series h ->
          Alcotest.(check int) "samples" 2 (Stats.Histogram.count h)
      | label, _ -> Alcotest.failf "unexpected entry %s" label)
    snap

let test_registry_find_or_create () =
  let m = Metrics.create () in
  let a = Metrics.counter m ~scope:"s" ~name:"n" ~node:"n0" () in
  let b = Metrics.counter m ~scope:"s" ~name:"n" ~node:"n0" () in
  Metrics.Counter.incr a;
  Metrics.Counter.incr b;
  (* Same key: both handles alias one cell. *)
  Alcotest.(check int) "shared cell" 2 (Metrics.Counter.value a);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument
       "Metrics: s/n@n0 already registered with a different kind (gauge)")
    (fun () -> ignore (Metrics.gauge m ~scope:"s" ~name:"n" ~node:"n0" ()))

let test_registry_disabled () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "disabled" false (Metrics.enabled m);
      let c = Metrics.counter m ~scope:"s" ~name:"c" () in
      Metrics.Counter.incr c;
      Metrics.Counter.add c 10;
      Alcotest.(check int) "dead counter stays 0" 0 (Metrics.Counter.value c);
      let g = Metrics.gauge m ~scope:"s" ~name:"g" () in
      Metrics.Gauge.set g 9.;
      let t =
        Metrics.timer m ~scope:"s" ~name:"t" ~lo:0. ~hi:1. ~bins:2 ()
      in
      Metrics.Timer.observe_ms t 0.5;
      Alcotest.(check int) "empty snapshot" 0
        (List.length (Metrics.snapshot m)))
    [ Metrics.noop; Metrics.create ~enabled:false () ]

(* {2 Merge} *)

(* Two shards each record part of the workload; their merged snapshots
   must equal a single registry that saw everything, which is what the
   campaign runner relies on when it merges shard snapshots in order. *)
let test_merge_equals_combined () =
  let record m ~hits ~depth ~obs =
    let c = Metrics.counter m ~scope:"s" ~name:"hits" () in
    Metrics.Counter.add c hits;
    let g = Metrics.gauge m ~scope:"s" ~name:"depth" () in
    Metrics.Gauge.set_max g depth;
    let t =
      Metrics.timer m ~scope:"s" ~name:"lat_ms" ~lo:0. ~hi:10. ~bins:10 ()
    in
    List.iter (Metrics.Timer.observe_ms t) obs
  in
  let s1 = Metrics.create () and s2 = Metrics.create () in
  record s1 ~hits:3 ~depth:5. ~obs:[ 1.; 2. ];
  record s2 ~hits:4 ~depth:2. ~obs:[ 3. ];
  let whole = Metrics.create () in
  record whole ~hits:3 ~depth:5. ~obs:[ 1.; 2. ];
  record whole ~hits:4 ~depth:2. ~obs:[ 3. ];
  Alcotest.(check string) "merge = combined"
    (Metrics.to_json (Metrics.snapshot whole))
    (Metrics.to_json (Metrics.merge [ Metrics.snapshot s1; Metrics.snapshot s2 ]));
  (* Associativity: left and right folds agree. *)
  let s3 = Metrics.create () in
  record s3 ~hits:1 ~depth:9. ~obs:[];
  let parts = List.map Metrics.snapshot [ s1; s2; s3 ] in
  Alcotest.(check string) "associative"
    (Metrics.to_json (Metrics.merge parts))
    (Metrics.to_json
       (Metrics.merge
          [ Metrics.merge [ List.nth parts 0; List.nth parts 1 ];
            List.nth parts 2 ]))

let test_merge_kind_mismatch () =
  let a = Metrics.create () and b = Metrics.create () in
  ignore (Metrics.counter a ~scope:"s" ~name:"x" ());
  let g = Metrics.gauge b ~scope:"s" ~name:"x" () in
  Metrics.Gauge.set g 1.;
  match Metrics.merge [ Metrics.snapshot a; Metrics.snapshot b ] with
  | _ -> Alcotest.fail "merge accepted mismatched kinds"
  | exception Invalid_argument _ -> ()

(* {2 Campaign determinism} *)

(* The acceptance criterion behind [bench --json]: the shard plan does
   not depend on the worker count, so the merged metrics snapshot is a
   function of the seed alone — byte-identical whatever [--jobs] says. *)
let test_fig4_metrics_jobs_invariant () =
  let run jobs =
    let r =
      Scenarios.Fig4.run ~seed:11L ~failures:6 ~jobs
        ~instrument:true
        ~config:(Raft.Config.dynatune ())
        ()
    in
    Metrics.to_json r.Scenarios.Fig4.metrics
  in
  let j1 = run 1 in
  Alcotest.(check bool) "snapshot non-trivial" true (String.length j1 > 100);
  Alcotest.(check string) "jobs 1 = jobs 4" j1 (run 4)

let test_fig4_uninstrumented_is_empty () =
  let r =
    Scenarios.Fig4.run ~seed:11L ~failures:2 ~jobs:1
      ~config:(Raft.Config.dynatune ())
      ()
  in
  Alcotest.(check int) "no metrics" 0
    (List.length r.Scenarios.Fig4.metrics)

(* {2 Chrome trace exporter} *)

(* A fixed event sequence exercising every record type and the string
   escaper; the golden file pins the exact bytes Perfetto receives. *)
let sample_trace () =
  let s = Chrome.create () in
  Chrome.process_name s ~pid:1 "cluster";
  Chrome.thread_name s ~pid:1 ~tid:0 "n0";
  Chrome.duration_begin s ~name:"campaign" ~pid:1 ~tid:0 ~at:(Time.ms 5)
    ~args:[ ("term", Chrome.Int 2) ]
    ();
  Chrome.instant s ~name:"tuner_decision" ~pid:1 ~tid:0
    ~at:(Time.us 5500)
    ~args:
      [
        ("reason", Chrome.Str "warmed");
        ("loss", Chrome.Float 0.012);
        ("pre_vote", Chrome.Bool true);
        ("bad", Chrome.Float nan);
      ]
    ();
  Chrome.duration_end s ~name:"campaign" ~pid:1 ~tid:0 ~at:(Time.ms 7) ();
  Chrome.counter s ~name:"fabric" ~pid:1 ~tid:0 ~at:(Time.ms 7)
    ~values:[ ("sent", 12.); ("lost", 1.) ]
    ();
  Chrome.instant s ~name:{|quote " back \ newline
tab	end|} ~pid:1 ~tid:0 ~at:(Time.ms 8) ();
  s

let test_chrome_golden () =
  let golden_path = "golden/chrome_trace.golden.json" in
  let golden =
    let ic = open_in_bin golden_path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let s = sample_trace () in
  Alcotest.(check int) "event count" 7 (Chrome.event_count s);
  Alcotest.(check string) "golden bytes" golden (Chrome.to_string s)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_chrome_shape () =
  let out = Chrome.to_string (sample_trace ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (contains ~needle out))
    [
      {|{"traceEvents": [|};
      {|"ph": "B"|};
      {|"ph": "E"|};
      {|"ph": "i"|};
      {|"ph": "C"|};
      {|"ph": "M"|};
      (* instants are thread-scoped *)
      {|"s": "t"|};
      (* microsecond timestamps with sub-us precision *)
      {|"ts": 5000.000|};
      {|"ts": 5500.000|};
      (* non-finite args degrade to null, never to invalid JSON *)
      {|"bad": null|};
      (* escaper output *)
      {|quote \" back \\ newline\ntab\tend|};
      {|"displayTimeUnit": "ms"|};
    ]

(* The UTF-8 audit: well-formed multi-byte sequences pass through
   verbatim (JSON is UTF-8), malformed bytes — stray continuations,
   truncated sequences, overlongs, surrogate encodings, out-of-range
   leads — each become one U+FFFD escape instead of corrupting the
   file. *)
let escaped name =
  let s = Chrome.create () in
  Chrome.instant s ~name ~pid:1 ~tid:0 ~at:(Time.ms 1) ();
  Chrome.to_string s

let test_chrome_utf8 () =
  let check_escape label input expected =
    Alcotest.(check bool) label true (contains ~needle:expected (escaped input))
  in
  (* valid sequences pass through byte-for-byte *)
  check_escape "2-byte (é)" "caf\xC3\xA9" "caf\xC3\xA9";
  check_escape "3-byte (東)" "\xE6\x9D\xB1" "\xE6\x9D\xB1";
  check_escape "4-byte (𝄞)" "\xF0\x9D\x84\x9E" "\xF0\x9D\x84\x9E";
  check_escape "control char inside UTF-8" "\xC3\xA9\x01" "\xC3\xA9\\u0001";
  (* malformed bytes each degrade to a replacement escape *)
  check_escape "stray continuation" "a\x80b" "a\\ufffdb";
  check_escape "truncated 2-byte lead" "a\xC3" "a\\ufffd";
  check_escape "truncated 3-byte" "\xE6\x9D" "\\ufffd\\ufffd";
  check_escape "overlong lead 0xC0" "\xC0\xAF" "\\ufffd\\ufffd";
  check_escape "overlong 3-byte" "\xE0\x80\xA0" "\\ufffd\\ufffd\\ufffd";
  check_escape "UTF-16 surrogate (ED A0 80)" "\xED\xA0\x80"
    "\\ufffd\\ufffd\\ufffd";
  check_escape "above U+10FFFF (F4 90)" "\xF4\x90\x80\x80"
    "\\ufffd\\ufffd\\ufffd\\ufffd";
  check_escape "never-a-lead 0xF5" "\xF5" "\\ufffd";
  check_escape "never-a-lead 0xFF" "\xFF" "\\ufffd";
  (* the result is parseable JSON-ish: every quote in it is escaped or
     structural — cheap sanity via an even quote count *)
  let out = escaped "\xC3\xA9 \x80 \"q\"" in
  let quotes = String.fold_left (fun n c -> if c = '"' then n + 1 else n) 0 out in
  Alcotest.(check int) "balanced quotes" 0 (quotes mod 2)

let test_chrome_write () =
  let path = Filename.temp_file "chrome_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let s = sample_trace () in
      Chrome.write s path;
      let ic = open_in_bin path in
      let body =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check string) "write = to_string" (Chrome.to_string s) body)

let tests =
  [
    Alcotest.test_case "registry: basics" `Quick test_registry_basics;
    Alcotest.test_case "registry: find-or-create" `Quick
      test_registry_find_or_create;
    Alcotest.test_case "registry: disabled inert" `Quick
      test_registry_disabled;
    Alcotest.test_case "merge: equals combined" `Quick
      test_merge_equals_combined;
    Alcotest.test_case "merge: kind mismatch" `Quick test_merge_kind_mismatch;
    Alcotest.test_case "fig4: metrics jobs-invariant" `Quick
      test_fig4_metrics_jobs_invariant;
    Alcotest.test_case "fig4: uninstrumented empty" `Quick
      test_fig4_uninstrumented_is_empty;
    Alcotest.test_case "chrome: golden file" `Quick test_chrome_golden;
    Alcotest.test_case "chrome: JSON shape" `Quick test_chrome_shape;
    Alcotest.test_case "chrome: UTF-8 escaping" `Quick test_chrome_utf8;
    Alcotest.test_case "chrome: write" `Quick test_chrome_write;
  ]
