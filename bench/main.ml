(* Benchmark harness: regenerates every figure of the paper's evaluation.

   Usage:
     dune exec bench/main.exe                 # all figures, quick scale
     dune exec bench/main.exe -- fig4 fig6a   # selected figures
     dune exec bench/main.exe -- --full       # paper-scale parameters
     dune exec bench/main.exe -- --jobs 4     # campaign parallelism
     dune exec bench/main.exe -- --json out.json  # machine-readable timings

   Quick scale shrinks campaign sizes and hold durations (the *shape* of
   every result is preserved; only statistical resolution drops); --full
   runs the paper's exact parameters.

   --jobs N fans campaigns out over N domains (default: all cores minus
   one for the coordinator).  --jobs 1 reproduces the sequential run bit
   for bit; any N is deterministic for a fixed (seed, N). *)

module Fig4 = Scenarios.Fig4
module Fig5 = Scenarios.Fig5
module Fig6 = Scenarios.Fig6
module Fig7 = Scenarios.Fig7
module Fig8 = Scenarios.Fig8
module Ablation = Scenarios.Ablation
module Report = Scenarios.Report

type scale = { full : bool; jobs : int }

let ppf = Format.std_formatter

(* One --json report row per figure, in run order.  GC words are the
   coordinator domain's allocation deltas (campaign shards run in their
   own domains under --jobs > 1, so compare allocation numbers at
   --jobs 1 where everything allocates here). *)
type record = {
  name : string;
  wall : float;
  events : int;
  minor_words : float;
  major_words : float;
}

let records : record list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let e0 = Des.Engine.global_processed () in
  let g0 = Gc.quick_stat () in
  f ();
  let wall = Unix.gettimeofday () -. t0 in
  let events = Des.Engine.global_processed () - e0 in
  let g1 = Gc.quick_stat () in
  records :=
    {
      name;
      wall;
      events;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
    }
    :: !records;
  Format.fprintf ppf "@.[%s done in %.1fs wall]@." name wall

let run_fig4 { full; jobs } =
  timed "fig4" (fun () ->
      let failures = if full then 1000 else 200 in
      Fig4.print ppf (Fig4.compare_modes ~failures ~jobs ()))

let run_fig5 { full; jobs } =
  timed "fig5" (fun () ->
      let hold = Des.Time.sec (if full then 10 else 3) in
      Fig5.print ppf (Fig5.compare_modes ~hold ~jobs ()))

let run_fig5sat { full; jobs } =
  timed "fig5sat" (fun () ->
      let hold = Des.Time.sec (if full then 10 else 3) in
      Fig5.print_saturation ppf (Fig5.saturation ~hold ~jobs ()))

let run_fig6 pattern { full; jobs } =
  let name = match pattern with Fig6.Gradual -> "fig6a" | Fig6.Radical -> "fig6b" in
  timed name (fun () ->
      let hold = Des.Time.sec (if full then 60 else 20) in
      Fig6.print ppf pattern (Fig6.compare_modes ~hold ~jobs ~pattern ()))

let run_fig7 { full; jobs } =
  timed "fig7" (fun () ->
      let hold = Des.Time.sec (if full then 180 else 20) in
      let ns = [ 5; 17; 65 ] in
      Fig7.print ppf (Fig7.compare_modes ~hold ~jobs ~ns ()))

let run_fig8 { full; jobs } =
  timed "fig8" (fun () ->
      let failures = if full then 1000 else 150 in
      Fig8.print ppf (Fig8.compare_modes ~failures ~jobs ()))

let run_ablation { full; jobs } =
  timed "ablation" (fun () ->
      let failures = if full then 200 else 60 in
      let quiet = Des.Time.sec (if full then 300 else 60) in
      let safety = Ablation.safety_factor_sweep ~failures ~quiet ~jobs () in
      let arrival = Ablation.arrival_probability_sweep ~quiet ~jobs () in
      let sizes = Ablation.list_size_sweep ~jobs () in
      let estimators = Ablation.estimator_sweep ~jobs () in
      Ablation.print ppf (safety, arrival, sizes, estimators))

let run_reconfig { full; jobs } =
  timed "reconfig" (fun () ->
      let rounds = if full then 8 else 4 in
      Scenarios.Reconfig.print ppf
        (Scenarios.Reconfig.compare_modes ~rounds ~jobs ()))

let run_extensions { full; jobs } =
  timed "extensions" (fun () ->
      let hold = Des.Time.sec (if full then 10 else 3) in
      Scenarios.Extensions.print ppf (Scenarios.Extensions.run ~hold ~jobs ()))

let run_multiraft { full; jobs } =
  timed "multiraft" (fun () ->
      let group_counts = if full then [ 16; 64 ] else [ 4; 16 ] in
      let hold = Des.Time.sec (if full then 5 else 2) in
      Scenarios.Multiraft.print ppf
        (Scenarios.Multiraft.sweep ~group_counts ~hold ~jobs ()))

let run_micro _ =
  timed "micro" (fun () ->
      Report.banner ppf "Microbenchmarks (bechamel)";
      Micro.run ppf)

let figures =
  [
    ("fig4", run_fig4);
    ("fig5", run_fig5);
    ("fig5sat", run_fig5sat);
    ("fig6a", run_fig6 Fig6.Gradual);
    ("fig6b", run_fig6 Fig6.Radical);
    ("fig7", run_fig7);
    ("fig8", run_fig8);
    ("ablation", run_ablation);
    ("reconfig", run_reconfig);
    ("extensions", run_extensions);
    ("multiraft", run_multiraft);
    ("micro", run_micro);
  ]

(* The report is flat and the values are numbers/strings, so the JSON is
   written by hand rather than pulling in a serialization library.  The
   wall-clock rows follow the host, so the report names it: core count
   and compiler version. *)
let write_json path ~full ~jobs ~metrics ~recorder ~multiraft =
  match open_out path with
  | exception Sys_error msg ->
      (* The figures already went to stdout; don't let a bad report path
         look like a failed run. *)
      Format.eprintf "warning: cannot write JSON report: %s@." msg
  | oc ->
      let rows = List.rev !records in
      Printf.fprintf oc
        "{\n  \"full\": %b,\n  \"jobs\": %d,\n  \"nproc\": %d,\n  \"ocaml\": \
         %S,\n  \"figures\": [\n"
        full jobs
        (Domain.recommended_domain_count ())
        Sys.ocaml_version;
      List.iteri
        (fun i r ->
          let eps =
            if r.wall > 0. then float_of_int r.events /. r.wall else 0.
          in
          Printf.fprintf oc
            "    {\"name\": %S, \"wall_s\": %.3f, \"events\": %d, \
             \"events_per_s\": %.0f, \"minor_words\": %.0f, \
             \"major_words\": %.0f}%s\n"
            r.name r.wall r.events eps r.minor_words r.major_words
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc
        "  ],\n  \"multiraft\": %s,\n  \"recorder\": %s,\n  \"metrics\": \
         %s\n}\n"
        multiraft recorder metrics;
      close_out oc;
      Format.fprintf ppf "[wrote %s]@." path

(* The metrics section of the JSON report: a small instrumented failover
   campaign on a pinned 4-shard plan.  Pinning the plan makes the merged
   snapshot a function of the seed alone — byte-identical whatever
   --jobs says — so the report doubles as a determinism witness. *)
let metrics_json ~jobs =
  let r =
    Fig4.run ~seed:42L ~failures:40 ~shards:4 ~jobs ~instrument:true
      ~config:(Raft.Config.dynatune ()) ()
  in
  Telemetry.Metrics.to_json r.Fig4.metrics

(* The recorder section: the same pinned instrumented plan with the
   time-series recorder sampling every 500 ms of virtual time.  Like the
   metrics section it is a determinism witness — series count, total
   samples and the CSV byte count are functions of (seed, shard plan)
   alone — and it documents what a recorded run costs relative to the
   bare instrumented one. *)
let recorder_json ~jobs =
  let r =
    Fig4.run ~seed:42L ~failures:40 ~shards:4 ~jobs ~instrument:true
      ~record:(Des.Time.ms 500)
      ~config:(Raft.Config.dynatune ()) ()
  in
  let dump = r.Fig4.recorder in
  let samples =
    List.fold_left (fun n (_, s) -> n + Array.length s) 0 dump
  in
  Printf.sprintf
    "{\"every_ms\": 500, \"series\": %d, \"samples\": %d, \"csv_bytes\": %d, \
     \"openmetrics_bytes\": %d}"
    (List.length dump) samples
    (String.length (Telemetry.Recorder.to_csv dump))
    (String.length (Telemetry.Recorder.to_openmetrics dump))

(* The multiraft section: the scale-out evidence.  One group behind the
   shard router (the fig5-saturation wire model and replication config)
   sets the baseline knee and its p99; the 64-group sweep's sustainable
   throughput is the highest level it serves at >= 95% of the offer
   without exceeding that single-group p99 — "5x at equal p99" is a
   claim about this ratio. *)
let multiraft_json () =
  let module M = Scenarios.Multiraft in
  let sustained ?p99_cap (levels : Kvsm.Workload.level_report list) =
    List.fold_left
      (fun acc (l : Kvsm.Workload.level_report) ->
        let sustained_offer = l.throughput_rps >= 0.95 *. l.offered_rps in
        let under_cap =
          match p99_cap with
          | None -> true
          | Some cap -> l.p99_latency_ms <= cap
        in
        if sustained_offer && under_cap then
          match acc with
          | Some (best, _) when best >= l.throughput_rps -> acc
          | Some _ | None -> Some (l.throughput_rps, l.p99_latency_ms)
        else acc)
      None levels
  in
  let single =
    M.run_one ~seed:11L ~groups:1
      ~rates:[ 500.; 1000.; 2000.; 4000.; 8000. ]
      ()
  in
  let single_rps, single_p99 =
    match sustained single.M.levels with
    | Some v -> v
    | None -> failwith "multiraft report: single group sustained no level"
  in
  let multi = M.run_one ~seed:11L ~groups:64 () in
  let multi_rps, multi_p99 =
    match sustained ~p99_cap:single_p99 multi.M.levels with
    | Some v -> v
    | None ->
        failwith
          "multiraft report: 64 groups sustained no level at the \
           single-group p99"
  in
  Printf.sprintf
    "{\"single\": {\"groups\": 1, \"sustainable_rps\": %.0f, \"p99_ms\": \
     %.2f}, \"scaled\": {\"groups\": %d, \"replicas\": %d, \
     \"sustainable_rps\": %.0f, \"p99_ms\": %.2f, \"peak_rps\": %.0f, \
     \"events\": %d}, \"speedup\": %.2f}"
    single_rps single_p99 multi.M.groups multi.M.replicas multi_rps multi_p99
    multi.M.peak_rps multi.M.events
    (multi_rps /. single_rps)

let usage () =
  Format.eprintf
    "usage: main.exe [--full] [--jobs N] [--json FILE] [FIGURE...]@.available figures: %s@."
    (String.concat ", " (List.map fst figures));
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = ref false and jobs = ref 0 and json = ref None in
  let names = ref [] in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest ->
        full := true;
        parse rest
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            jobs := n;
            parse rest
        | _ ->
            Format.eprintf "--jobs expects a positive integer, got %S@." v;
            exit 2)
    | [ "--jobs" ] ->
        Format.eprintf "--jobs expects a positive integer@.";
        exit 2
    | "--json" :: path :: rest ->
        json := Some path;
        parse rest
    | [ "--json" ] ->
        Format.eprintf "--json expects a file path@.";
        exit 2
    | a :: _ when String.length a > 1 && a.[0] = '-' ->
        Format.eprintf "unknown option %S@." a;
        usage ()
    | a :: rest ->
        names := a :: !names;
        parse rest
  in
  parse args;
  let jobs =
    if !jobs > 0 then !jobs else max 1 (Domain.recommended_domain_count () - 1)
  in
  let wanted =
    match List.rev !names with
    | [] -> List.map fst figures
    | names ->
        List.iter
          (fun n ->
            if not (List.mem_assoc n figures) then begin
              Format.eprintf
                "unknown figure %S; available: %s, plus --full@." n
                (String.concat ", " (List.map fst figures));
              exit 2
            end)
          names;
        names
  in
  Format.fprintf ppf
    "Dynatune reproduction benchmarks (%s scale, %d job%s)@.figures: %s@."
    (if !full then "paper (--full)" else "quick")
    jobs
    (if jobs = 1 then "" else "s")
    (String.concat ", " wanted);
  let scale = { full = !full; jobs } in
  List.iter (fun name -> (List.assoc name figures) scale) wanted;
  Option.iter
    (fun path ->
      write_json path ~full:!full ~jobs ~metrics:(metrics_json ~jobs)
        ~recorder:(recorder_json ~jobs) ~multiraft:(multiraft_json ()))
    !json;
  Format.pp_print_flush ppf ()
