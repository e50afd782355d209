(** Rolling-replace campaign on the geo WAN: dynamic membership under
    client load, measuring client-perceived unavailability with the
    tuner on vs off.

    Every round replaces each member of the 5-region cluster with a
    fresh server in the same region slot, make-before-break (learner
    catch-up, promotion, removal).  The round's first replacement
    crash-replaces the current leader — downtime bounded by failure
    detection, which Dynatune shrinks — and the rest drain gracefully
    through leadership transfer.  Downtime is sampled in 1 ms slices: a
    slice is down when no live leader can accept proposals. *)

type raw = {
  rounds : int;  (** rolling-replace rounds completed *)
  replacements : int;  (** servers replaced *)
  stalls : int;  (** waits that hit their timeout *)
  sampled_ms : float;  (** sampled replacement activity *)
  reactive_down_ms : float;  (** down slices after un-announced failures *)
  graceful_down_ms : float;  (** down slices in planned transfer windows *)
  offered : int;
  completed : int;
  rejected : int;
  redirected : int;
  abandoned : int;
}

val merge_raw : raw list -> raw

type result = {
  mode : string;
  rounds : int;
  replacements : int;
  stalls : int;
  sampled_ms : float;
  reactive_down_ms : float;
  graceful_down_ms : float;
  total_down_ms : float;
  unavailability : float;  (** total downtime / sampled time *)
  offered : int;
  completed : int;
  rejected : int;
  redirected : int;
  abandoned : int;
  digest : int64;
  metrics : Telemetry.Metrics.snapshot;
}

val run :
  ?seed:int64 ->
  ?rounds:int ->
  ?jitter:float ->
  ?loss:float ->
  ?rate:float ->
  ?jobs:int ->
  ?shards:int ->
  ?check:Check.mode ->
  ?instrument:bool ->
  ?on_cluster:(shard:int -> Harness.Cluster.t -> unit) ->
  config:Raft.Config.t ->
  unit ->
  result
(** Run [rounds] rolling-replace rounds (default 4), sharded like the
    failover campaigns: [shards] pins the plan independently of [jobs],
    so the merged metrics snapshot and digest are functions of [(seed,
    shards, rounds)] alone.  [rate] is the open-loop client request rate
    (default 20/s); the client follows leader redirects.  Each shard
    warms its tuners for 30 s before the first round and holds 15 s,
    unsampled, between rounds — the config churn re-warms every tuner,
    and the hold lets measurement finish before the next round's
    un-announced failure.  [on_cluster]
    fires once per shard cluster before it starts (trace bridges). *)

val compare_modes :
  ?rounds:int -> ?seed:int64 -> ?jobs:int -> unit -> result list
(** [static] then [dynatune], same seeds — the tuner-off/on pair.  The
    plan is pinned to two shards, so the comparison is a function of
    [(seed, rounds)] alone, independent of [jobs]. *)

val print : Format.formatter -> result list -> unit
