(** The multiraft scenario (public name: [Scenarios.Multiraft]).

    An open-loop client ramp against {!Multiraft.Group_manager} through
    the shard router ({!Multiraft.Router}), sweeping group count x
    aggregate offered RPS an order of magnitude beyond fig5's
    single-group saturation experiment.  Each cell reports the
    aggregate throughput/latency curve, the per-slot leader
    distribution, router hint-cache statistics, DES event volume and
    the combined per-group trace digest. *)

type cell = {
  groups : int;
  replicas : int;
  ramp : Report.ramp;
      (** aggregate over all groups, one row per offered level *)
  leader_distribution : int array;  (** groups led, by replica slot *)
  hint_hits : int;
  hint_misses : int;
  hint_refreshes : int;
  events : int;  (** DES events processed over the whole cell *)
  digest : int64;  (** per-group trace digests combined in group order *)
}

type result = {
  cells : cell list;
  digest : int64;
      (** cell digests combined in cell order — must be bit-identical
          at [--jobs 1] and [--jobs N] on a pinned sweep *)
  metrics : Telemetry.Metrics.snapshot;
}

val default_rates : float list

val run_one :
  ?seed:int64 ->
  ?replicas:int ->
  ?rates:float list ->
  ?hold:Des.Time.span ->
  ?telemetry:Telemetry.Metrics.t ->
  ?on_manager:(Multiraft.Group_manager.t -> unit) ->
  groups:int ->
  unit ->
  cell
(** One cell: [groups] dynatune groups of [replicas] (default 3) under
    fig5's wire model (50 ms RTT, 100 µs per-message serialization), the
    replication engine at window 16 with priority lanes, warmed for
    10 s, then ramped through [rates] (aggregate req/s) held [hold]
    (default 2 s) each, with the checker off.  [on_manager] runs after construction, before [start] — the
    hook the CLI uses to attach per-group Perfetto tracks. *)

val sweep :
  ?seed:int64 ->
  ?replicas:int ->
  ?group_counts:int list ->
  ?rates:float list ->
  ?hold:Des.Time.span ->
  ?check:Check.mode ->
  ?instrument:bool ->
  ?jobs:int ->
  unit ->
  result
(** The sweep: one campaign task per group count, run on the domain
    pool.  Cell seeds derive from [(seed, cell index)], each cell owns
    its registry, and digests and metrics merge in cell order — all
    independent of [jobs]. *)

val print : Format.formatter -> result -> unit
val print_cell : Format.formatter -> cell -> unit
