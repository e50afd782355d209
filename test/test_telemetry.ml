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
    Metrics.histogram m ~scope:"s" ~name:"lat_ms" ~lo:0. ~hi:10. ~bins:10 ()
  in
  Metrics.Histogram.observe t 1.5;
  Metrics.Histogram.observe t 2.5;
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
        Metrics.histogram m ~scope:"s" ~name:"t" ~lo:0. ~hi:1. ~bins:2 ()
      in
      Metrics.Histogram.observe t 0.5;
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
      Metrics.histogram m ~scope:"s" ~name:"lat_ms" ~lo:0. ~hi:10. ~bins:10 ()
    in
    List.iter (Metrics.Histogram.observe t) obs
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
  let golden_path = Test_data.path "golden/chrome_trace.golden.json" in
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

(* {2 A strict JSON reader} *)

(* Enough of RFC 8259 to check that a writer's output is valid JSON and
   to read a Chrome trace back.  A string must be well-formed UTF-8 with
   no raw control character and only the standard escapes; a number is
   a run of [-+.eE0-9] that [float_of_string] accepts. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of int

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail () = raise (Bad_json !pos) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec ws () =
    match peek () with
    | Some (' ' | '\n' | '\t' | '\r') ->
        incr pos;
        ws ()
    | _ -> ()
  in
  let eat c =
    ws ();
    if peek () = Some c then incr pos else fail ()
  in
  let lit word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail ()
  in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail ()
      | Some c -> (
          incr pos;
          match c with
          | '"' -> ()
          | '\\' ->
              (match peek () with
              | Some (('"' | '\\' | '/') as e) -> Buffer.add_char b e
              | Some 'n' -> Buffer.add_char b '\n'
              | Some 't' -> Buffer.add_char b '\t'
              | Some 'r' -> Buffer.add_char b '\r'
              | Some 'b' -> Buffer.add_char b '\b'
              | Some 'f' -> Buffer.add_char b '\012'
              | Some 'u' when !pos + 5 <= n -> (
                  match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
                  | Some code when Uchar.is_valid code ->
                      Buffer.add_utf_8_uchar b (Uchar.of_int code);
                      pos := !pos + 4
                  | _ -> fail ())
              | _ -> fail ());
              incr pos;
              go ()
          | c when Char.code c < 0x20 -> fail ()
          | c ->
              Buffer.add_char b c;
              go ())
    in
    go ();
    let v = Buffer.contents b in
    if String.is_valid_utf_8 v then v else fail ()
  in
  let items close item =
    ws ();
    if peek () = Some close then begin
      incr pos;
      []
    end
    else
      let rec more acc =
        let acc = item () :: acc in
        ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            more acc
        | Some c when c = close ->
            incr pos;
            List.rev acc
        | _ -> fail ()
      in
      more []
  in
  let rec value () =
    ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        Obj (items '}' (fun () ->
                 let k = str () in
                 eat ':';
                 (k, value ())))
    | Some '[' ->
        incr pos;
        Arr (items ']' value)
    | Some '"' -> Str (str ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | _ ->
        let start = !pos in
        while
          match peek () with
          | Some ('-' | '+' | '.' | 'e' | 'E' | '0' .. '9') -> true
          | _ -> false
        do
          incr pos
        done;
        if !pos = start then fail ();
        match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some x -> Num x
        | None -> fail ()
  in
  let v = value () in
  ws ();
  if !pos = n then v else fail ()

let valid_json s =
  match parse_json s with _ -> true | exception Bad_json _ -> false

(* Both writers share one escaper: a metric key holding malformed UTF-8
   still renders as valid JSON, and its well-formed keys are unchanged. *)
let test_metrics_json_malformed_label () =
  let m = Metrics.create () in
  Metrics.Counter.incr
    (Metrics.counter m ~scope:"rpc" ~name:"sent" ~node:"n\xC3\xA9\xFF\x80" ());
  Metrics.Counter.incr (Metrics.counter m ~scope:"rpc" ~name:"sent" ~node:"n1" ());
  let out = Metrics.to_json (Metrics.snapshot m) in
  Alcotest.(check bool) "valid JSON" true (valid_json out);
  Alcotest.(check bool) "malformed bytes replaced" true
    (contains ~needle:"n\xC3\xA9\\ufffd\\ufffd" out);
  Alcotest.(check bool) "a plain key verbatim" true
    (contains ~needle:{|"rpc/sent@n1": 1|} out)

(* {2 Trace bridge} *)

let events_of sink =
  match parse_json (Chrome.to_string sink) with
  | Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Arr events) ->
          List.map (function Obj e -> e | _ -> Alcotest.fail "event") events
      | _ -> Alcotest.fail "no traceEvents")
  | _ -> Alcotest.fail "trace is not an object"

let field e k = List.assoc_opt k e

let str_field e k =
  match field e k with Some (Str v) -> v | _ -> Alcotest.failf "no %s" k

let int_field e k =
  match field e k with
  | Some (Num v) -> int_of_float v
  | _ -> Alcotest.failf "no %s" k

(* A bridge on a 5-node cluster through one failover: leader killed, a
   new one elected, the old one recovered.  Spans pair up per thread,
   the new leader's thread holds a leader span, [finish] adds one fabric
   counter and one counter per link, and nothing lands after it.  The
   links are 50 ms, where the cluster keeps its leader (on 0 ms links
   the tuned Et falls below the heartbeat interval and it re-elects
   every ~2 s), and the new leader still leads at [finish], so its
   leader span is the injected failover's. *)
let test_tracing_bridge () =
  let c =
    Harness.Cluster.create ~seed:3L ~n:5
      ~conditions:
        Netsim.Conditions.(constant (profile ~rtt_ms:50. ~jitter:0.02 ()))
      ~config:(Raft.Config.dynatune ()) ()
  in
  let sink = Chrome.create () in
  let bridge = Harness.Tracing.attach c sink in
  ignore (Harness.Cluster.boot c ~label:"tracing" : Raft.Node.t);
  let old =
    match Harness.Fault.kill_leader c with
    | Some (id, _) -> id
    | None -> Alcotest.fail "no leader to kill"
  in
  let fresh =
    match Harness.Cluster.await_leader c ~timeout:(Time.sec 30) with
    | Some node -> Raft.Node.id node
    | None -> Alcotest.fail "no new leader"
  in
  Harness.Fault.recover c old;
  Harness.Cluster.run_for c (Time.sec 1);
  Alcotest.(check bool) "new leader still leads at finish" true
    (match Harness.Cluster.leader c with
    | Some l -> Netsim.Node_id.equal (Raft.Node.id l) fresh
    | None -> false);
  Harness.Tracing.finish bridge;
  let events = events_of sink in
  (* Every B closed by an E of the same name, later, on its own thread. *)
  let stacks = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let key = (int_field e "pid", int_field e "tid") in
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks key) in
      match str_field e "ph" with
      | "B" ->
          Hashtbl.replace stacks key
            ((str_field e "name", int_field e "ts") :: stack)
      | "E" -> (
          match stack with
          | (name, ts) :: rest ->
              Alcotest.(check string) "E closes its B" name (str_field e "name");
              Alcotest.(check bool) "E after its B" true (int_field e "ts" >= ts);
              Hashtbl.replace stacks key rest
          | [] -> Alcotest.fail "E without a B")
      | _ -> ())
    events;
  Hashtbl.iter
    (fun _ stack ->
      Alcotest.(check int) "every span closed" 0 (List.length stack))
    stacks;
  let named ph name e = str_field e "ph" = ph && str_field e "name" = name in
  Alcotest.(check bool) "new leader differs from the old" true
    (not (Netsim.Node_id.equal old fresh));
  Alcotest.(check bool) "new leader's thread opens a leader span" true
    (List.exists
       (fun e ->
         named "B" "leader" e
         && int_field e "tid" = Netsim.Node_id.to_int fresh)
       events);
  Alcotest.(check int) "one fabric counter" 1
    (List.length (List.filter (named "C" "fabric") events));
  let link_counters =
    List.filter_map
      (fun e ->
        let name = str_field e "name" in
        if str_field e "ph" = "C" && String.starts_with ~prefix:"link " name
        then Some name
        else None)
      events
  in
  Alcotest.(check (list string)) "one counter per link"
    (List.map
       (fun ((src, dst), _) -> Printf.sprintf "link n%d->n%d" src dst)
       (Netsim.Fabric.link_counters (Harness.Cluster.fabric c)))
    link_counters;
  (* A second finish, and the probes of another failover, add nothing. *)
  let before = Chrome.to_string sink in
  Harness.Tracing.finish bridge;
  ignore (Harness.Fault.kill_leader c : (Netsim.Node_id.t * Time.t) option);
  Harness.Cluster.run_for c (Time.sec 5);
  Alcotest.(check string) "nothing after finish" before (Chrome.to_string sink)

(* {2 Node sinks} *)

(* A restart builds a fresh server, which must still emit tuner
   decisions once it re-warms when the cluster's registry is enabled,
   and never when it is the noop registry. *)
let test_restart_keeps_tuner_decisions () =
  let decisions telemetry =
    let c =
      Harness.Cluster.create ~seed:5L ~n:3 ~telemetry
        ~conditions:Netsim.Conditions.(constant (profile ~rtt_ms:50. ()))
        ~config:(Raft.Config.dynatune ()) ()
    in
    let leader = Harness.Cluster.boot c ~label:"restart decisions" in
    Harness.Cluster.run_for c (Time.sec 10);
    let follower =
      List.find
        (fun id -> not (Netsim.Node_id.equal id (Raft.Node.id leader)))
        (Harness.Cluster.node_ids c)
    in
    Harness.Fault.crash_and_restart c follower ~downtime:(Time.sec 1);
    let after = ref 0 and total = ref 0 in
    Des.Mtrace.subscribe (Harness.Cluster.trace c) (fun _ -> function
      | Raft.Probe.Tuner_decision { id; _ } ->
          incr total;
          if Netsim.Node_id.equal id follower then incr after
      | _ -> ());
    Harness.Cluster.run_for c (Time.sec 20);
    Alcotest.(check bool) "leader kept through the restart" true
      (match Harness.Cluster.leader c with
      | Some l -> Netsim.Node_id.equal (Raft.Node.id l) (Raft.Node.id leader)
      | None -> false);
    (!after, !total)
  in
  let after, _ = decisions (Metrics.create ()) in
  Alcotest.(check bool) "restarted follower decides again" true (after > 0);
  let _, total = decisions Metrics.noop in
  Alcotest.(check int) "noop registry: no decisions" 0 total

(* The node's metrics are the two append metrics, and nothing under
   [rpc]: perfbench's registry pass reads [raft/append_batch_size], and
   README's saturation walkthrough documents both. *)
let test_fig4_node_append_metrics () =
  let r =
    Scenarios.Fig4.run ~seed:11L ~failures:3 ~instrument:true
      ~config:(Raft.Config.dynatune ()) ()
  in
  let snap = r.Scenarios.Fig4.metrics in
  let named name (key : Metrics.key) = String.equal key.Metrics.name name in
  Alcotest.(check bool) "append_batch_size has samples on some node" true
    (List.exists
       (fun ((key : Metrics.key), v) ->
         named "append_batch_size" key
         && String.equal key.Metrics.scope "raft"
         &&
         match v with
         | Metrics.Series h -> Stats.Histogram.count h > 0
         | Metrics.Count _ | Metrics.Level _ -> false)
       snap);
  Alcotest.(check bool) "appends_inflight present" true
    (List.exists
       (fun ((key : Metrics.key), _) ->
         named "appends_inflight" key && String.equal key.Metrics.scope "raft")
       snap);
  Alcotest.(check (list string)) "no rpc scope" []
    (List.filter_map
       (fun ((key : Metrics.key), _) ->
         if String.equal key.Metrics.scope "rpc" then
           Some (Metrics.key_label key)
         else None)
       snap)

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
    Alcotest.test_case "metrics: malformed UTF-8 label is valid JSON" `Quick
      test_metrics_json_malformed_label;
    Alcotest.test_case "tracing: bridge through a failover" `Quick
      test_tracing_bridge;
    Alcotest.test_case "node: restarted follower decides again" `Quick
      test_restart_keeps_tuner_decisions;
    Alcotest.test_case "fig4: node append metrics kept" `Quick
      test_fig4_node_append_metrics;
  ]
