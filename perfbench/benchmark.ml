(* The repository benchmark: one workload per process, at --jobs 1.

   Usage (normally through run.py, which builds this first):
     benchmark.exe --workload NAME --seed N --seconds S
                   [--trace-dir DIR] [--smoke] [--commit ID] [--source ID]

   The timed mode repeats set-up + measured phase until S seconds have
   passed (at least three times) and reports the end-to-end metrics; the
   simulated results must repeat exactly.  With --trace-dir it
   alternates untraced and traced passes instead and reports the
   per-layer metrics, writing the Chrome trace and the layer table to
   DIR.  Either way a reduced-scale pass under Check.Always follows,
   with a final invariant check and a KV replica comparison.  The last
   stdout line is the result object.

   --smoke runs every pass at the reduced scale (a few seconds in all).
   telemetry, check, parallel and scenarios are not measured: the
   registry is off, Check.Off is used and every pass runs on one
   domain. *)

module W = Workloads

let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("heap_live_mb", "MB");
    ("latency_mean_ms", "ms");
    ("latency_p95_ms", "ms");
  ]

let per_layer =
  [
    ("des.events", "count");
    ("des.ns_per_event", "ns");
    ("des.timer_ns", "ns");
    ("des.timers_cancelled", "count");
    ("des.wheel_absorb_ratio", "ratio");
    ("des.cascades", "count");
    ("des.heap_high_water", "count");
    ("des.wheel_high_water", "count");
    ("runtime.minor_words_per_event", "words");
    ("runtime.major_words_per_event", "words");
    ("runtime.gc_pause_ms", "ms");
    ("netsim.sent", "count");
    ("netsim.delivered", "count");
    ("netsim.lost", "count");
    ("netsim.dropped_paused", "count");
    ("netsim.deliver_ns", "ns");
    ("netsim.deliver_words", "words");
    ("netsim.msgs_per_op", "ratio");
    ("netsim.egress_high_water", "count");
    ("netsim.leader_cpu_pct", "%");
    ("raft.elections", "count");
    ("raft.timeouts", "count");
    ("raft.prevote_aborts", "count");
    ("raft.leader_changes", "count");
    ("raft.election_win_ratio", "ratio");
    ("raft.rounds_per_failover", "count");
    ("raft.split_vote_rate", "ratio");
    ("raft.spurious_elections", "count");
    ("raft.election_ns", "ns");
    ("raft.entries_per_append", "count");
    ("raft.submit_ns", "ns");
    ("dynatune.resets", "count");
    ("dynatune.detection_p50_ms", "ms");
    ("dynatune.et_p50_ms", "ms");
    ("dynatune.decisions", "count");
    ("dynatune.h_ms_mean", "ms");
    ("kvsm.offered", "count");
    ("kvsm.completed", "count");
    ("kvsm.redirected", "count");
    ("kvsm.abandoned", "count");
    ("kvsm.rejected", "count");
    ("kvsm.failed_frac", "ratio");
    ("kvsm.sustainable_rps", "1/s");
    ("kvsm.read_p50_ms", "ms");
    ("kvsm.read_p999_ms", "ms");
    ("kvsm.arrival_ns", "ns");
    ("kvsm.arrival_words", "words");
    ("multiraft.hint_hit_ratio", "ratio");
    ("multiraft.hint_refreshes", "count");
    ("multiraft.route_ns", "ns");
    ("multiraft.leader_skew", "ratio");
    ("harness.failover_ns", "ns");
    ("harness.failover_errors", "count");
    ("harness.create_ms", "ms");
    ("harness.first_election_ms", "ms");
    ("harness.warmup_ms", "ms");
    ("trace.overhead", "ratio");
  ]

(* Every workload's latency is printed up to p99, so it must have at
   least ten samples beyond that. *)
let min_latency_samples = 1000

type args = {
  workload : W.t;
  seed : int64;
  seconds : float;
  trace_dir : string option;
  smoke : bool;
  commit : string;
  source : string;
}

let usage () =
  Printf.eprintf
    "usage: benchmark.exe --workload {%s} --seed N --seconds S [--trace-dir DIR] \
     [--smoke] [--commit ID] [--source ID]\n"
    (String.concat "|" (List.map (fun (w : W.t) -> w.W.name) W.all));
  exit 2

let parse () =
  let workload = ref None and seed = ref 1L and seconds = ref 10. in
  let trace_dir = ref None and smoke = ref false in
  let commit = ref "unknown" and source = ref "unknown" in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        (match List.find_opt (fun (w : W.t) -> String.equal w.W.name v) W.all with
        | Some w -> workload := Some w
        | None ->
            Printf.eprintf "unknown workload %S\n" v;
            usage ());
        go rest
    | "--seed" :: v :: rest ->
        (match Int64.of_string_opt v with Some s -> seed := s | None -> usage ());
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s
        | Some _ | None -> usage ());
        go rest
    | "--trace-dir" :: v :: rest ->
        trace_dir := Some v;
        go rest
    | "--smoke" :: rest ->
        smoke := true;
        go rest
    | "--commit" :: v :: rest ->
        commit := v;
        go rest
    | "--source" :: v :: rest ->
        source := v;
        go rest
    | a :: _ ->
        Printf.eprintf "unexpected argument %S\n" a;
        usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> usage ()
  | Some workload ->
      {
        workload;
        seed = !seed;
        seconds = !seconds;
        trace_dir = !trace_dir;
        smoke = !smoke;
        commit = !commit;
        source = !source;
      }

(* {2 JSON output} *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* {2 Passes} *)

let median l = Stats.Summary.median (Stats.Summary.of_list l)

(* Everything a pass must reproduce exactly for a fixed seed.  The
   digest is kept apart: a registry pass adds tuner probes to the trace. *)
let sim_fingerprint (o : W.outcome) =
  let s = o.W.latency in
  String.concat " "
    (Printf.sprintf "%d %d %d %h %h %h" o.W.attempted o.W.failed (Stats.Summary.count s)
       (Stats.Summary.mean s) (Stats.Summary.percentile s 99.) (Stats.Summary.max s)
    :: List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) o.W.sim)

let fingerprint (o : W.outcome) = Printf.sprintf "%Lx %s" o.W.digest (sim_fingerprint o)

(* The per-layer host costs of the traced pass that just ended. *)
let traced_layers () =
  let ns (a : Layers.acc) = Layers.per_event a a.Layers.ns in
  let words (a : Layers.acc) = Layers.per_event a a.Layers.words in
  let call name = ns (Layers.call_stats name) in
  let total_ms name = float_of_int (Layers.call_stats name).Layers.ns /. 1e6 in
  [
    ("des.timer_ns", ns Layers.timer);
    ("netsim.deliver_ns", ns Layers.deliver);
    ("netsim.deliver_words", words Layers.deliver);
    ("kvsm.arrival_ns", ns Layers.arrival);
    ("kvsm.arrival_words", words Layers.arrival);
    ("raft.election_ns", ns Layers.election);
    ("raft.submit_ns", call "raft.submit");
    ("multiraft.route_ns", call "multiraft.route");
    ("harness.failover_ns", call "harness.fail_and_measure");
    ("harness.create_ms", total_ms "harness.create");
    ("harness.first_election_ms", total_ms "harness.first_election");
    ("harness.warmup_ms", total_ms "harness.warmup");
    ("runtime.gc_pause_ms", Layers.gc_pause_ms ());
  ]

let problems = ref []
let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt

(* {2 Host speed}

   A host whose cores and caches are shared drifts in speed by tens of
   percent over seconds to minutes, and the drift moves every timing
   taken at that moment alike.  So each repeat is bracketed by a fixed
   reference task, and host times are reported in reference seconds:
   what the repeat would have taken on a host where the task takes
   [reference_nominal_s], about its time on a quiet 2-vCPU VM.  The task
   calls only the standard library, so this repository's code and build
   flags cannot change its speed; it runs after a full major GC, under
   pinned GC settings, outside every pass.  A memory-bound task tracks
   the drift best: a cache-resident loop or a pointer chase tracked it
   worse, alone or combined. *)

let reference_nominal_s = 0.15

(* OCaml 5.1's defaults, whatever the program sets. *)
let reference_gc = { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 }

(* Fill and probe a 200,000-entry hash table of strings. *)
let reference_round () =
  Gc.full_major ();
  let t0 = Layers.clock_ns () in
  let h = Hashtbl.create 16 in
  for i = 1 to 200_000 do
    Hashtbl.replace h (i * 7919) (string_of_int i)
  done;
  let chars = ref 0 in
  for i = 1 to 200_000 do
    match Hashtbl.find_opt h (i * 7919) with
    | Some v -> chars := !chars + String.length v
    | None -> ()
  done;
  ignore (Sys.opaque_identity !chars : int);
  float_of_int (Layers.clock_ns () - t0) /. 1e9

(* Two rounds: a single one is noisier than the drift it measures. *)
let reference_s () =
  let saved = Gc.get () in
  Gc.set reference_gc;
  let s = reference_round () +. reference_round () in
  Gc.set saved;
  s

(* Repeat [pass] until the time budget is spent, at least [min] times.
   Each result comes with its speed factor: [reference_nominal_s] over
   the mean of the reference times just before and just after it. *)
let repeat ~seconds ~min pass =
  let t0 = Layers.clock_ns () in
  let rec go acc n before =
    if n >= min && float_of_int (Layers.clock_ns () - t0) /. 1e9 >= seconds then List.rev acc
    else begin
      (* Each repeat starts from a collected heap, outside the timing. *)
      Gc.compact ();
      let r = pass n in
      let after = reference_s () in
      go ((r, reference_nominal_s /. ((before +. after) /. 2.)) :: acc) (n + 1) after
    end
  in
  (* On a fresh heap the task runs 30-40% slower than once its memory is
     mapped, so a first, discarded run maps it. *)
  ignore (reference_s () : float);
  go [] 0 (reference_s ())

let check_repeats label results =
  match results with
  | [] -> ()
  | first :: rest ->
      List.iter
        (fun (r : W.result) ->
          if not (String.equal (fingerprint r.W.outcome) (fingerprint first.W.outcome)) then
            problem "%s: a same-seed repeat produced different simulated results" label)
        rest

let verify_pass args =
  let t0 = Layers.clock_ns () in
  match args.workload.W.run W.Verify ~small:true ~seed:args.seed with
  | r ->
      Printf.printf "verify: ok digest=%Lx replica_lag=%.0f in %.2fs\n" r.W.outcome.W.digest
        (List.assoc "verify.max_lag" r.W.outcome.W.sim)
        (float_of_int (Layers.clock_ns () - t0) /. 1e9)
  | exception Check.Violation v ->
      problem "verify: %s" (Format.asprintf "%a" Check.pp_violation v)
  | exception W.Verify_failed m -> problem "verify: %s" m

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let host_median results f = median (List.map (fun (r : W.result) -> f r.W.host) results)

let range l =
  let s = Stats.Summary.of_list l in
  Printf.sprintf "min %.6f median %.6f max %.6f" (Stats.Summary.min s) (Stats.Summary.median s)
    (Stats.Summary.max s)

(* End-to-end metrics; the simulated ones must repeat exactly.  The host
   times are medians over the repeats, in reference seconds. *)
let timed_mode args run =
  let repeats =
    repeat ~seconds:args.seconds ~min:(if args.smoke then 2 else 3) (fun i ->
        W.measure_live := i = 0;
        run W.Timed)
  in
  W.measure_live := false;
  let results = List.map fst repeats in
  check_repeats "timed" results;
  let o = (List.hd results).W.outcome in
  let raw f = List.map (fun (r : W.result) -> f r.W.host) results in
  let normalized f = median (List.map (fun ((r : W.result), speed) -> f r.W.host *. speed) repeats) in
  let wall_s = normalized (fun h -> h.W.wall_s) and setup_s = normalized (fun h -> h.W.setup_s) in
  Printf.printf
    "%d repeats: wall_s %.6f, setup_s %.6f reference seconds; speed factor %s; raw phase %s; raw \
     setup %s\n"
    (List.length repeats) wall_s setup_s
    (range (List.map snd repeats))
    (range (raw (fun h -> h.W.wall_s)))
    (range (raw (fun h -> h.W.setup_s)));
  let l = o.W.latency in
  let q = Stats.Summary.percentile l in
  Printf.printf "latency_ms: n=%d mean %.3f p50 %.3f p95 %.3f p99 %.3f p99.9 %.3f max %.3f\n"
    (Stats.Summary.count l) (Stats.Summary.mean l) (q 50.) (q 95.) (q 99.) (q 99.9)
    (Stats.Summary.max l);
  ( [
      ("wall_s", wall_s);
      ("setup_s", setup_s);
      ("heap_live_mb", (List.hd results).W.host.W.live_mb);
      ("latency_mean_ms", Stats.Summary.mean l);
      ("latency_p95_ms", q 95.);
    ],
    o )

(* Per-layer metrics: untraced and traced passes alternate, so the
   overhead compares neighbours; one registry pass adds the values only
   the metrics registry has.  All of them must reproduce the untraced
   simulated results.  Host times here are raw, not in reference
   seconds: a traced and an untraced pass run side by side. *)
let traced_mode args run dir =
  let chrome = ref None in
  let pairs =
    List.map fst @@ repeat ~seconds:args.seconds ~min:2 (fun i ->
        let untraced = run W.Timed in
        Gc.compact ();
        Layers.begin_pass ~record_spans:(i = 0);
        let traced = run W.Timed in
        Layers.end_pass ();
        if i = 0 then chrome := !Layers.chrome;
        (untraced, (traced, traced_layers ())))
  in
  let untraced = List.map fst pairs and traced = List.map snd pairs in
  check_repeats "untraced/traced" (untraced @ List.map fst traced);
  Gc.compact ();
  let registry = run W.Registry in
  let o = (List.hd untraced).W.outcome in
  if not (String.equal (sim_fingerprint registry.W.outcome) (sim_fingerprint o)) then
    problem "the registry pass changed the simulated results";
  let wall_u = host_median untraced (fun h -> h.W.wall_s) in
  let wall_t = host_median (List.map fst traced) (fun h -> h.W.wall_s) in
  (* Host per-layer costs from the median traced pass. *)
  let by_wall =
    List.sort
      (fun ((a : W.result), _) ((b : W.result), _) -> Float.compare a.W.host.W.wall_s b.W.host.W.wall_s)
      traced
  in
  let layers = snd (List.nth by_wall (List.length by_wall / 2)) in
  let first = (List.hd untraced).W.host in
  let events = List.assoc "des.events" o.W.sim in
  let per_event v = if events > 0. then v /. events else 0. in
  let values =
    o.W.sim @ layers @ registry.W.host.W.registry
    @ [
        ("des.ns_per_event", per_event (wall_u *. 1e9));
        ("runtime.minor_words_per_event", per_event first.W.minor_words);
        ("runtime.major_words_per_event", per_event first.W.major_words);
        ( "kvsm.failed_frac",
          if o.W.attempted = 0 then 0. else float_of_int o.W.failed /. float_of_int o.W.attempted );
        ("trace.overhead", (wall_t /. wall_u) -. 1.);
      ]
  in
  (* A metric the workload does not exercise reads 0. *)
  let metrics =
    List.map (fun (name, _) -> (name, Option.value (List.assoc_opt name values) ~default:0.)) per_layer
  in
  (try
     if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
     Option.iter (fun ct -> Telemetry.Chrome_trace.write ct (Filename.concat dir "trace.json")) !chrome;
     write_file (Filename.concat dir "layers.txt")
       (String.concat ""
          (List.map
             (fun (name, unit) -> Printf.sprintf "%-32s %16.6g %s\n" name (List.assoc name metrics) unit)
             per_layer))
   with Sys_error m -> problem "cannot write the trace: %s" m);
  Printf.printf "%d pairs: traced wall_s %.6f, untraced %.6f; GC events lost %d; trace in %s\n"
    (List.length pairs) wall_t wall_u (Layers.gc_events_lost ()) dir;
  (metrics, o)

let () =
  let args = parse () in
  let w = args.workload and small = args.smoke in
  print_endline
    (json_object
       [
         ( "info",
           json_object
             [
               ("workload", json_string w.W.name);
               ("seed", Int64.to_string args.seed);
               ("seconds", json_number args.seconds);
               ("mode", json_string (if args.trace_dir = None then "timed" else "traced"));
               ("smoke", string_of_bool args.smoke);
               ("sizes", json_string (w.W.sizes ~small));
               ("jobs", "1");
               ("nproc", string_of_int (Domain.recommended_domain_count ()));
               ("ocaml", json_string Sys.ocaml_version);
               ("commit", json_string args.commit);
               ("source", json_string args.source);
             ] );
       ]);
  let run pass = w.W.run pass ~small ~seed:args.seed in
  let metrics, (outcome : W.outcome), units =
    match args.trace_dir with
    | None ->
        let m, o = timed_mode args run in
        (m, o, end_to_end)
    | Some dir ->
        let m, o = traced_mode args run dir in
        (m, o, per_layer)
  in
  verify_pass args;
  let count = Stats.Summary.count outcome.W.latency in
  if (not args.smoke) && count < min_latency_samples then
    problem "only %d latency samples; p99 needs %d" count min_latency_samples;
  Printf.printf "digest=%Lx events=%.0f latency_samples=%d attempted=%d failed=%d\n"
    outcome.W.digest
    (List.assoc "des.events" outcome.W.sim)
    count outcome.W.attempted outcome.W.failed;
  let fields =
    List.map
      (fun (name, unit) ->
        let v = List.assoc name metrics in
        let v =
          if Float.is_finite v then v
          else begin
            problem "%s is not finite" name;
            0.
          end
        in
        (name, json_object [ ("value", json_number v); ("unit", json_string unit) ]))
      units
  in
  List.iter (fun m -> Printf.printf "problem: %s\n" m) (List.rev !problems);
  print_endline
    (json_object
       [
         ("correct", string_of_bool (!problems = []));
         ("attempted", string_of_int outcome.W.attempted);
         ("failed", string_of_int outcome.W.failed);
         ("metrics", json_object fields);
       ])
