(* dynatune_sim: command-line driver for the Dynatune simulation.

   Subcommands:
     failover    repeated leader-kill campaign, detection/OTS statistics
     reconfig    rolling-replace membership campaign on the geo WAN
     watch       live election-parameter adaptation under RTT/loss schedules
     throughput  open-loop RPS ramp with the CPU cost model
     calc        the tuning formulas as a calculator (K, h, Et)
     figure      regenerate one of the paper's figures
     explain     causal forensics of every leadership change in a pinned
                 geo-WAN failover run *)

open Cmdliner

let ppf = Format.std_formatter

(* {2 Shared options} *)

(* Out-of-range values are usage errors (exit 124, with the option
   named), not exceptions from deep inside the simulator. *)
let checked conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = checked Arg.int ~expected:"a positive integer" (fun n -> n > 0)

let non_negative_float =
  checked Arg.float ~expected:"a finite number >= 0" (fun x ->
      Float.is_finite x && x >= 0.)

let positive_float =
  checked Arg.float ~expected:"a finite number > 0" (fun x ->
      Float.is_finite x && x > 0.)

let probability =
  checked Arg.float ~expected:"a probability in [0,1)" (fun p ->
      p >= 0. && p < 1.)

let open_probability =
  checked Arg.float ~expected:"a probability in (0,1)" (fun p ->
      p > 0. && p < 1.)

let mode_conv =
  let parse = function
    | "raft" -> Ok (Raft.Config.static ())
    | "raft-low" -> Ok (Raft.Config.raft_low ())
    | "dynatune" -> Ok (Raft.Config.dynatune ())
    | "fix-k" -> Ok (Raft.Config.fix_k ~k:10 ())
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S" s))
  in
  let print fmt c = Format.fprintf fmt "%s" (Raft.Config.mode_name c) in
  Arg.conv (parse, print)

let mode =
  Arg.(
    value
    & opt mode_conv (Raft.Config.dynatune ())
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:"Raft variant: raft, raft-low, dynatune or fix-k.")

let seed =
  Arg.(
    value & opt int64 42L
    & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (runs are deterministic).")

let servers =
  Arg.(
    value & opt positive_int 5
    & info [ "n"; "servers" ] ~docv:"N" ~doc:"Cluster size (odd).")

let rtt =
  Arg.(
    value & opt non_negative_float 100.
    & info [ "rtt" ] ~docv:"MS" ~doc:"Link round-trip time in milliseconds.")

let jitter =
  Arg.(
    value & opt non_negative_float 0.02
    & info [ "jitter" ] ~docv:"SIGMA"
        ~doc:"Relative delay jitter (lognormal sigma).")

let loss =
  Arg.(
    value & opt probability 0.
    & info [ "loss" ] ~docv:"P" ~doc:"Packet loss probability in [0,1).")

(* [--trace-out FILE]: run [f] with [attach], which bridges a cluster's
   probes into one Chrome trace as process [i + 1] (pid 0 is reserved,
   so Perfetto shows one collapsible track group each) named
   "[kind] [i]"; then close every bridge, write FILE and report the
   event count. *)
let with_trace_out path f =
  let sink = Telemetry.Chrome_trace.create () in
  let bridges = ref [] in
  let attach ~kind i cluster =
    let name = Printf.sprintf "%s %d" kind i in
    bridges :=
      Harness.Tracing.attach ~pid:(i + 1) ~name cluster sink :: !bridges
  in
  let result = f attach in
  List.iter Harness.Tracing.finish !bridges;
  Telemetry.Chrome_trace.write sink path;
  Format.fprintf ppf "@.wrote %d trace events to %s@."
    (Telemetry.Chrome_trace.event_count sink)
    path;
  result

(* {2 failover} *)

let failover_cmd =
  let failures =
    Arg.(
      value & opt positive_int 100
      & info [ "failures" ] ~docv:"K" ~doc:"Number of leader kills.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON file of the campaign (open in \
             Perfetto or chrome://tracing): election spans per node, tuner \
             decisions, per-link counters.  Implies full instrumentation.")
  in
  let record_every =
    Arg.(
      value
      & opt (some positive_float) None
      & info [ "record" ] ~docv:"MS"
          ~doc:
            "Sample every counter and gauge each MS of virtual time \
             (implies instrumentation).  Export the series with \
             --record-csv and/or --record-openmetrics; defaults to 1000 \
             when either export flag is given without --record.")
  in
  let record_csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "record-csv" ] ~docv:"FILE"
          ~doc:"Write the recorded time series as wide CSV.")
  in
  let record_om =
    Arg.(
      value
      & opt (some string) None
      & info [ "record-openmetrics" ] ~docv:"FILE"
          ~doc:"Write the recorded time series as OpenMetrics text.")
  in
  let run config n failures rtt_ms jitter seed trace_out record_every
      record_csv record_om =
    let record =
      match (record_every, record_csv, record_om) with
      | Some ms, _, _ -> Some (Des.Time.of_ms_f ms)
      | None, None, None -> None
      | None, _, _ -> Some (Des.Time.sec 1)
    in
    let instrument = trace_out <> None || record <> None in
    let campaign ?on_cluster () =
      let result =
        Scenarios.Fig4.run ~seed ~n ~failures ~rtt_ms ~jitter ~config
          ~instrument ?record ?on_cluster ()
      in
      Scenarios.Fig4.print ppf [ result ];
      if instrument then
        Format.fprintf ppf "@.telemetry:@.%a" Telemetry.Metrics.pp
          result.Scenarios.Fig4.metrics;
      result
    in
    let result =
      match trace_out with
      | None -> campaign ()
      | Some path ->
          with_trace_out path (fun attach ->
              campaign
                ~on_cluster:(fun ~shard -> attach ~kind:"shard" shard)
                ())
    in
    let dump = result.Scenarios.Fig4.recorder in
    let export label render path =
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (render dump));
      Format.fprintf ppf "@.wrote %d recorded series (%s) to %s@."
        (List.length dump) label path
    in
    Option.iter (export "CSV" Telemetry.Recorder.to_csv) record_csv;
    Option.iter
      (export "OpenMetrics" Telemetry.Recorder.to_openmetrics)
      record_om
  in
  Cmd.v
    (Cmd.info "failover" ~doc:"Leader-failure campaign (Fig 4 style)")
    Term.(
      const run $ mode $ servers $ failures $ rtt $ jitter $ seed $ trace_out
      $ record_every $ record_csv $ record_om)

(* {2 reconfig} *)

let reconfig_cmd =
  let rounds =
    Arg.(
      value & opt positive_int 2
      & info [ "rounds" ] ~docv:"K"
          ~doc:"Rolling-replace rounds (each replaces all 5 servers).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON file of the campaign (open in \
             Perfetto or chrome://tracing): election spans per node plus \
             leadership-transfer and learner catch-up spans on the \
             per-node reconfig threads.  Implies full instrumentation.")
  in
  let run config rounds seed trace_out =
    match trace_out with
    | None ->
        Scenarios.Reconfig.print ppf
          [ Scenarios.Reconfig.run ~seed ~rounds ~config () ]
    | Some path ->
        with_trace_out path (fun attach ->
            let result =
              Scenarios.Reconfig.run ~seed ~rounds ~config ~instrument:true
                ~on_cluster:(fun ~shard -> attach ~kind:"shard" shard)
                ()
            in
            Scenarios.Reconfig.print ppf [ result ];
            Format.fprintf ppf "@.telemetry:@.%a" Telemetry.Metrics.pp
              result.Scenarios.Reconfig.metrics)
  in
  Cmd.v
    (Cmd.info "reconfig"
       ~doc:"Rolling-replace membership campaign (dynamic reconfiguration)")
    Term.(const run $ mode $ rounds $ seed $ trace_out)

(* {2 watch} *)

let watch_cmd =
  let rtts =
    Arg.(
      value
      & opt (list non_negative_float) [ 50.; 100.; 200.; 100.; 50. ]
      & info [ "rtts" ] ~docv:"MS,MS,..." ~doc:"RTT schedule, one step each.")
  in
  let losses =
    Arg.(
      value
      & opt (list probability) []
      & info [ "losses" ] ~docv:"P,P,..."
          ~doc:"Loss schedule (overrides a constant --loss).")
  in
  let hold =
    Arg.(
      value & opt positive_int 15
      & info [ "hold" ] ~docv:"SEC" ~doc:"Seconds per schedule step.")
  in
  let run config n rtts losses hold jitter seed =
    let hold = Des.Time.sec hold in
    let profiles =
      match losses with
      | [] -> List.map (fun rtt_ms -> Netsim.Conditions.profile ~rtt_ms ~jitter ()) rtts
      | losses ->
          List.concat_map
            (fun rtt_ms ->
              List.map
                (fun loss ->
                  Netsim.Conditions.profile ~rtt_ms ~jitter ~loss ())
                losses)
            rtts
    in
    let conditions = Netsim.Conditions.staircase ~hold profiles in
    let cluster =
      Harness.Cluster.create ~seed ~n ~config ~conditions ()
    in
    ignore
      (Harness.Cluster.boot ~timeout:(Des.Time.sec 60) cluster ~label:"watch"
        : Raft.Node.t);
    Format.fprintf ppf "  %6s %10s %8s %16s %8s@." "t(s)" "rtt(ms)" "loss"
      "majority-rTO(ms)" "leader";
    let duration = List.length profiles * hold in
    let samples =
      Harness.Monitor.watch cluster ~every:(Des.Time.sec 2) ~duration (fun c ->
          ( Harness.Monitor.gap (Harness.Monitor.majority_randomized_ms c),
            Harness.Monitor.has_leader c ))
    in
    List.iter
      (fun (t, (v, led)) ->
        let p = Netsim.Conditions.at conditions (Des.Time.of_sec_f t) in
        Format.fprintf ppf "  %6.0f %10.0f %7.1f%% %16.0f %8s@." t
          p.Netsim.Conditions.rtt_ms
          (100. *. p.Netsim.Conditions.loss)
          v
          (if led then "yes" else "NO"))
      samples
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Watch election parameters adapt to an RTT/loss schedule")
    Term.(const run $ mode $ servers $ rtts $ losses $ hold $ jitter $ seed)

(* {2 throughput} *)

let throughput_cmd =
  let max_rps =
    Arg.(
      value & opt positive_int 17000
      & info [ "max-rps" ] ~docv:"RPS" ~doc:"Top of the offered-load ramp.")
  in
  let step =
    Arg.(
      value & opt positive_int 1000
      & info [ "step" ] ~docv:"RPS" ~doc:"Ramp increment per level.")
  in
  let hold =
    Arg.(
      value & opt positive_int 5
      & info [ "hold" ] ~docv:"SEC" ~doc:"Seconds per load level.")
  in
  let run config max_rps step hold rtt_ms seed =
    let rates =
      List.init (max_rps / step) (fun i -> float_of_int ((i + 1) * step))
    in
    let result =
      Scenarios.Fig5.run ~seed ~rates ~hold:(Des.Time.sec hold) ~rtt_ms
        ~config ()
    in
    Scenarios.Fig5.print ppf [ result ]
  in
  Cmd.v
    (Cmd.info "throughput" ~doc:"Open-loop RPS ramp (Fig 5 style)")
    Term.(const run $ mode $ max_rps $ step $ hold $ rtt $ seed)

(* {2 calc} *)

let calc_cmd =
  let x =
    Arg.(
      value & opt open_probability 0.999
      & info [ "x" ] ~docv:"X" ~doc:"Target heartbeat arrival probability.")
  in
  let s =
    Arg.(
      value & opt non_negative_float 2.
      & info [ "s" ] ~docv:"S" ~doc:"Safety factor in Et = mu + s*sigma.")
  in
  let sigma =
    Arg.(
      value & opt non_negative_float 5.
      & info [ "sigma" ] ~docv:"MS" ~doc:"RTT standard deviation (ms).")
  in
  let run rtt_ms sigma s x loss =
    let et = rtt_ms +. (s *. sigma) in
    let k = Dynatune.Tuner.required_heartbeats_for ~p:loss ~x in
    Format.fprintf ppf "inputs: mu_RTT=%.1fms sigma=%.1fms s=%.1f p=%.3f x=%.4f@."
      rtt_ms sigma s loss x;
    Format.fprintf ppf "Et = mu + s*sigma           = %.1f ms@." et;
    Format.fprintf ppf "K  = ceil(log_p(1-x))       = %d heartbeats@." k;
    Format.fprintf ppf "h  = Et / K                 = %.1f ms (%.1f heartbeats/s per follower)@."
      (et /. float_of_int k)
      (1000. /. (et /. float_of_int k));
    Format.fprintf ppf
      "guarantee: P(at least one heartbeat within Et) = %.6f >= %.4f@."
      (1. -. (loss ** float_of_int k))
      x
  in
  Cmd.v
    (Cmd.info "calc" ~doc:"Evaluate the tuning formulas (Section III-D)")
    Term.(const run $ rtt $ sigma $ s $ x $ loss)

(* {2 explain} *)

let explain_cmd =
  let failures =
    Arg.(
      value & opt positive_int 3
      & info [ "failures" ] ~docv:"K"
          ~doc:"Leader kills (each recovered before the next).")
  in
  let raw =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:"Also dump every retained forensics record, unanalyzed.")
  in
  let run config seed failures raw =
    let records = Scenarios.Explain.run ~seed ~failures ~config () in
    Scenarios.Explain.print ppf (Scenarios.Explain.analyze records);
    if raw then begin
      Format.fprintf ppf "@.forensics ring (%d records):@."
        (List.length records);
      List.iter
        (fun r ->
          Format.fprintf ppf "  %s@."
            (Raft.Forensics.render_record r))
        records
    end
  in
  let seed =
    Arg.(
      value & opt int64 23L
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"PRNG seed (runs are deterministic).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain every leadership change of a pinned geo-WAN failover \
          run: the causal chain from network measurement through tuner \
          decision, timeout, campaign and votes to the new leader, each \
          election classified justified or spurious")
    Term.(const run $ mode $ seed $ failures $ raw)

(* {2 multiraft} *)

let multiraft_cmd =
  let group_counts =
    Arg.(
      value
      & opt (list positive_int) [ 64 ]
      & info [ "groups" ] ~docv:"N,N,..."
          ~doc:"Raft group counts to sweep (one cell each).")
  in
  let replicas =
    Arg.(
      value & opt positive_int 3
      & info [ "replicas" ] ~docv:"R" ~doc:"Servers per group.")
  in
  let rates =
    Arg.(
      value
      & opt (list positive_float) Scenarios.Multiraft.default_rates
      & info [ "rates" ] ~docv:"RPS,RPS,..."
          ~doc:"Aggregate offered rates (spread over the groups by the \
                shard router).")
  in
  let hold =
    Arg.(
      value & opt positive_int 2
      & info [ "hold" ] ~docv:"SEC" ~doc:"Seconds per load level.")
  in
  let jobs =
    Arg.(
      value & opt positive_int 1
      & info [ "j"; "jobs" ] ~docv:"J"
          ~doc:
            "Campaign workers (one cell per worker; results are \
             bit-identical whatever J).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON file of the first group \
             count's run: one Perfetto track group (process) per Raft \
             group, election spans per node.  Implies full \
             instrumentation.")
  in
  let seed =
    Arg.(
      value & opt int64 11L
      & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (runs are deterministic).")
  in
  let run group_counts replicas rates hold jobs seed trace_out =
    let hold = Des.Time.sec hold in
    match trace_out with
    | None ->
        let result =
          Scenarios.Multiraft.sweep ~seed ~replicas ~group_counts ~rates ~hold
            ~jobs ()
        in
        Scenarios.Multiraft.print ppf result;
        Format.fprintf ppf "@.sweep digest: %016Lx@."
          result.Scenarios.Multiraft.digest
    | Some path ->
        let groups =
          match group_counts with g :: _ -> g | [] -> 64
        in
        with_trace_out path (fun attach ->
            Scenarios.Multiraft.print_cell ppf
              (Scenarios.Multiraft.run_one ~seed ~replicas ~rates ~hold ~groups
                 ~telemetry:(Telemetry.Metrics.create ())
                 ~on_manager:(fun m ->
                   Multiraft.Group_manager.iter_groups m (attach ~kind:"group"))
                 ()))
  in
  Cmd.v
    (Cmd.info "multiraft"
       ~doc:
         "Multi-Raft sharding sweep: N consensus groups on one fabric \
          behind a shard-routed KV front door")
    Term.(
      const run $ group_counts $ replicas $ rates $ hold $ jobs $ seed
      $ trace_out)

(* {2 figure} *)

let figure_cmd =
  let figure =
    let names = List.map fst Scenarios.Figures.table in
    Arg.(
      required
      & pos 0 (some (enum Scenarios.Figures.table)) None
      & info [] ~docv:"FIGURE"
          ~doc:(Printf.sprintf "One of: %s." (String.concat ", " names)))
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Paper-scale parameters (slower).")
  in
  let run figure full = figure ~full ~jobs:1 ppf in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate one of the paper's figures")
    Term.(const run $ figure $ full)

let () =
  let default =
    Term.(ret (const (`Help (`Pager, None))))
  in
  let info =
    Cmd.info "dynatune_sim" ~version:"1.0.0"
      ~doc:
        "Simulated evaluation of Dynatune: dynamic tuning of Raft election \
         parameters using network measurement"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            failover_cmd;
            reconfig_cmd;
            watch_cmd;
            throughput_cmd;
            multiraft_cmd;
            calc_cmd;
            figure_cmd;
            explain_cmd;
          ]))
