(** Shared leader-failure measurement loop for the failover campaigns.

    Every shard of the Fig 4 campaign (and so of Fig 8, which is Fig 4
    on the geo WAN) and the ablation's safety-factor and estimator
    sweeps all drive the same loop: kill the leader, measure
    detection / out-of-service / election metrics, repeat until a quota
    of successful measurements is reached.  The loop returns the
    outcomes themselves rather than summaries, so shards run on
    separate domains concatenate exactly ({!Stats.Summary.of_list}
    sorts, so a summary is independent of shard interleaving). *)

val failures :
  ?metrics:Telemetry.Metrics.t ->
  Harness.Cluster.t ->
  quota:int ->
  Harness.Fault.failure_outcome list
(** Run the kill/measure loop on a started, warmed-up cluster until
    [quota] failovers have been measured (giving up after [2 * quota]
    attempts, matching the paper campaigns' retry budget), and return
    the measured outcomes in order.  Failed measurements re-stabilise
    the cluster for 5 s before retrying.  [metrics] (default
    {!Telemetry.Metrics.noop}) receives the loop's
    attempt/measured/error tallies under scope ["measure"]. *)
