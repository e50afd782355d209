(* The multiraft scenario: N consensus groups on one fabric behind the
   shard router, driven by an open-loop client ramp an order of
   magnitude beyond fig5's single-group saturation sweep.

   Lives in a file that does not shadow the [Multiraft] library; the
   public name is [Scenarios.Multiraft] (see scenarios.ml). *)

module Gm = Multiraft.Group_manager
module Router = Multiraft.Router

type cell = {
  groups : int;
  replicas : int;
  levels : Kvsm.Workload.level_report list;
      (* aggregate (all groups together), one row per offered level *)
  peak_rps : float;
  saturation_rps : float option;
  leader_distribution : int array;
  hint_hits : int;
  hint_misses : int;
  hint_refreshes : int;
  events : int;  (* DES events processed over the whole cell *)
  digest : int64;  (* Group_manager.digest: per-group digests combined *)
}

type result = {
  cells : cell list;
  digest : int64;
      (* cell digests combined in cell order — the jobs-invariance
         witness for the whole sweep *)
  metrics : Telemetry.Metrics.snapshot;
}

(* Aggregate offered rates: fig5's saturation sweep tops out at 8000
   req/s against one group; the router spreads these over N groups. *)
let default_rates = [ 5000.; 10000.; 20000.; 40000.; 80000. ]

let default_group_counts = [ 16; 64 ]

(* fig5's wire model, and the tuner warm-up before load is offered. *)
let rtt_ms = 50.
let serialization = Des.Time.us 100
let warmup = Des.Time.sec 10

(* One cell: a fixed group count, the full rate ramp.  The replication
   engine runs fig5's best configuration (window 16, priority lanes) on
   top of dynatune, under the same wire model. *)
let default_hold = Des.Time.sec 2

let run_cell ~seed ~replicas ~rates ~hold ~check ~telemetry ~on_manager
    ~groups =
  let config =
    Raft.Config.with_replication ~max_inflight_appends:16
      ~append_backpressure:64 ~max_entries_per_append:64 ~priority_lanes:true
      (Raft.Config.dynatune ())
  in
  let conditions =
    Netsim.Conditions.(constant (profile ~rtt_ms ~jitter:0.05 ()))
  in
  let m =
    Gm.create ~seed ~conditions ~check ~telemetry ~groups ~replicas ~config ()
  in
  Netsim.Fabric.set_uniform_serialization (Gm.fabric m) serialization;
  on_manager m;
  Gm.start m;
  if not (Gm.await_leaders m ~timeout:(Des.Time.sec 30)) then
    failwith "multiraft: initial elections failed";
  (* Let every group's tuner warm before offering load. *)
  Gm.run_for m warmup;
  let router = Router.create m in
  let levels =
    Kvsm.Workload.run_ramp ~engine:(Gm.engine m)
      ~target:(Router.target router) ~route:(Router.route router) ~rates ~hold
      ~client_rtt:(Des.Time.of_ms_f rtt_ms) ()
  in
  Gm.check_now m;
  Gm.collect_metrics m;
  let stats = Des.Engine.stats (Gm.engine m) in
  {
    groups;
    replicas;
    levels;
    peak_rps = Kvsm.Workload.peak_throughput levels;
    saturation_rps = Kvsm.Workload.saturation_rate levels;
    leader_distribution = Gm.leader_distribution m;
    hint_hits = Router.hint_hits router;
    hint_misses = Router.hint_misses router;
    hint_refreshes = Router.hint_refreshes router;
    events = stats.Des.Engine.processed;
    digest = Gm.digest m;
  }

let run_one ?(seed = 11L) ?(replicas = 3) ?(rates = default_rates)
    ?(hold = default_hold) ?(telemetry = Telemetry.Metrics.noop)
    ?(on_manager = ignore) ~groups () =
  run_cell ~seed ~replicas ~rates ~hold ~check:Check.Off ~telemetry
    ~on_manager ~groups

(* The sweep: group count x offered rate, one campaign task per group
   count.  Each cell derives its own seed from the sweep seed and its
   position, builds its own registry, and the per-cell pieces merge in
   cell order — so the merged digest and metrics are independent of
   [jobs]. *)
let sweep ?(seed = 11L) ?(replicas = 3) ?(group_counts = default_group_counts)
    ?(rates = default_rates) ?(hold = default_hold) ?(check = Check.Off)
    ?(instrument = false) ?(jobs = 1) () =
  let outcomes =
    Parallel.Campaign.all ~jobs
      (List.mapi
         (fun i groups () ->
           let telemetry = Telemetry.Metrics.create ~enabled:instrument () in
           let cell =
             run_cell ~seed:(Stats.Rng.derive seed i) ~replicas ~rates ~hold
               ~check ~telemetry ~on_manager:ignore ~groups
           in
           (cell, Telemetry.Metrics.snapshot telemetry))
         group_counts)
  in
  {
    cells = List.map fst outcomes;
    digest =
      Check.Digest.combine (List.map (fun ((c : cell), _) -> c.digest) outcomes);
    metrics = Telemetry.Metrics.merge (List.map snd outcomes);
  }

let pp_distribution ppf dist =
  Array.iteri
    (fun slot count ->
      if slot > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "r%d:%d" slot count)
    dist

let print_cell ppf c =
  Report.subhead ppf
    (Printf.sprintf "%d groups x %d replicas (%d nodes)" c.groups c.replicas
       (c.groups * c.replicas));
  List.iter
    (fun level -> Format.fprintf ppf "  %a@." Kvsm.Workload.pp_report level)
    c.levels;
  Report.kv ppf "peak throughput" (Printf.sprintf "%.0f req/s" c.peak_rps);
  Report.kv ppf "saturation offered rate"
    (match c.saturation_rps with
    | Some v -> Printf.sprintf "%.0f req/s" v
    | None -> "not reached");
  Report.kv ppf "leader distribution"
    (Format.asprintf "%a" pp_distribution c.leader_distribution);
  Report.kv ppf "router hints"
    (Printf.sprintf "%d hits / %d misses / %d refreshes" c.hint_hits
       c.hint_misses c.hint_refreshes);
  Report.kv ppf "DES events" (string_of_int c.events)

let print ppf r =
  Report.banner ppf
    "Multiraft: group count x aggregate offered load behind the shard router";
  List.iter (print_cell ppf) r.cells;
  match (r.cells, List.rev r.cells) with
  | one :: _, widest :: _ when widest.groups > one.groups && one.peak_rps > 0.
    ->
      Report.subhead ppf "scale-out effect";
      Report.kv ppf "sustainable throughput"
        (Printf.sprintf "%.0f -> %.0f req/s (%.1fx at %dx groups)"
           one.peak_rps widest.peak_rps
           (widest.peak_rps /. one.peak_rps)
           (widest.groups / one.groups))
  | _ -> ()
