(** Shared leader-failure measurement loop for the failover campaigns.

    Every shard of the Fig 4 campaign (and so of Fig 8, which is Fig 4
    on the geo WAN) and the ablation's safety-factor and estimator
    sweeps all drive the same loop: kill the leader, measure
    detection / out-of-service / election metrics, repeat until a quota
    of successful measurements is reached.  The loop returns the raw
    samples rather than summaries so that shards run on separate
    domains can be merged exactly ({!merge} concatenates sample lists;
    {!Stats.Summary.of_list} sorts, so the result is independent of
    shard interleaving). *)

type raw = {
  measured : int;  (** successful failover measurements *)
  detection : float list;  (** ms *)
  majority : float list;  (** ms; (f+1)-th expiry *)
  ots : float list;  (** ms *)
  randomized : float list;  (** ms; randomizedTimeout at detection *)
  rounds : float list;  (** election rounds per failover *)
}

val failures : ?metrics:Telemetry.Metrics.t -> Harness.Cluster.t -> quota:int -> raw
(** Run the kill/measure loop on a started, warmed-up cluster until
    [quota] failovers have been measured (giving up after [2 * quota]
    attempts, matching the paper campaigns' retry budget).  Failed
    measurements re-stabilise the cluster for 5 s before retrying.
    [metrics] (default {!Telemetry.Metrics.noop}) receives the loop's
    attempt/measured/error tallies under scope ["measure"]. *)

val merge : raw list -> raw
(** Concatenate shard results in order; counts add, sample lists
    append.  [merge [r]] is [r] itself, field for field. *)
