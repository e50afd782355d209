(** Rolling-replace campaign on the geo WAN: dynamic membership under
    client load, measuring client-perceived unavailability with the
    tuner on vs off.

    Every round replaces each member of the 5-region cluster with a
    fresh server in the same region slot, make-before-break (learner
    catch-up, promotion, removal).  The round's first replacement
    crash-replaces the current leader — downtime bounded by failure
    detection, which Dynatune shrinks — and the rest drain gracefully
    through leadership transfer.  Downtime is exact: it is the
    out-of-service time of {!Harness.Monitor.observe} windows around
    every wait — the spans when no live leader can accept proposals. *)

type result = {
  mode : string;
  rounds : int;  (** rolling-replace rounds completed *)
  replacements : int;  (** servers replaced *)
  stalls : int;  (** waits that hit their timeout *)
  sampled_ms : float;  (** simulated time spent waiting on the cluster *)
  reactive_down_ms : float;  (** downtime after un-announced failures *)
  graceful_down_ms : float;  (** downtime in planned transfer windows *)
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
    shards, rounds)] alone.  The open-loop client offers 20 requests/s
    and follows leader redirects.  Each shard
    warms its tuners for 30 s before the first round and holds 15 s,
    unsampled, between rounds — the config churn re-warms every tuner,
    and the hold lets measurement finish before the next round's
    un-announced failure.  [on_cluster]
    fires once per shard cluster before it starts (trace bridges). *)

val compare_modes : ?rounds:int -> ?jobs:int -> unit -> result list
(** [static] then [dynatune], both at {!run}'s default seed 42 — the
    tuner-off/on pair.  The plan is pinned to two shards, so the
    comparison is a function of [rounds] alone, independent of
    [jobs]. *)

val print : Format.formatter -> result list -> unit
