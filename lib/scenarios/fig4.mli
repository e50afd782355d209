(** Figure 4 — election performance under stable conditions.

    The Section IV-B1 campaign: a 5-server cluster on 100 ms RTT lossless
    links; the leader is killed repeatedly and the failure-detection and
    out-of-service (OTS) times are measured for default Raft and for
    Dynatune.  Also produces the Section IV-E decomposition (election time
    = OTS − detection; split-vote rate). *)

type result = {
  mode : string;
  n : int;  (** cluster size *)
  rtt_ms : float;  (** the uniform link RTT the cluster was created with *)
  failures : int;  (** measured failovers *)
  detection : Stats.Summary.t;  (** ms *)
  majority_detection : Stats.Summary.t;  (** ms; (f+1)-th expiry *)
  ots : Stats.Summary.t;  (** ms *)
  election : Stats.Summary.t;  (** ms; OTS − detection *)
  randomized : Stats.Summary.t;  (** ms; randomizedTimeout at detection *)
  rounds : Stats.Summary.t;  (** real campaigns per failover *)
  split_vote_rate : float;  (** fraction of failovers needing > 1 round *)
  digest : int64;
      (** {!Check.Digest.combine} of every shard's probe-trace digest,
          in shard order — the determinism sanitizer's witness: two runs
          of the same [(seed, failures)] must agree on it, whatever the
          worker count. *)
  metrics : Telemetry.Metrics.snapshot;
      (** Merged per-shard telemetry, empty unless [run ~instrument:true].
          Merged in shard order, so — like [digest] — it is a function of
          [(seed, failures)] alone: [--jobs 1] and [--jobs n] runs agree
          bit-for-bit. *)
  recorder : Telemetry.Recorder.dump;
      (** Merged per-shard time series ({!Telemetry.Recorder.merge},
          keys prefixed by shard), empty unless [run ~record].  Same
          determinism as [metrics]. *)
}

val run :
  ?seed:int64 ->
  ?n:int ->
  ?failures:int ->
  ?rtt_ms:float ->
  ?jitter:float ->
  ?warmup:Des.Time.span ->
  ?jobs:int ->
  ?check:Check.mode ->
  ?instrument:bool ->
  ?record:Des.Time.span ->
  ?on_cluster:(shard:int -> Harness.Cluster.t -> unit) ->
  config:Raft.Config.t ->
  unit ->
  result
(** Defaults match the paper: [n = 5], [rtt_ms = 100.], no injected loss,
    small residual jitter (0.02 — a physical link is never exactly
    noiseless, and the tuner needs a non-degenerate σ), 30 s warm-up.
    [failures] defaults to 1000 as in the paper.

    The campaign is split into [min 4 failures] shards, each an
    independent cluster seeded by {!Parallel.Campaign.plan}; [jobs]
    (default 1) is the number of domains that run them.  The result —
    including [digest] — is a function of [(seed, failures)] alone,
    never of [jobs] or of scheduling.  [check] (default {!Check.Off})
    runs the safety-invariant checker inside every shard's cluster and
    a full check at the end of its campaign.

    [instrument] (default false) gives every shard an enabled telemetry
    registry — filling [result.metrics] — and turns on tuner-decision
    probes, which the digest skips, so [digest] is the same with it on
    or off.  [record] attaches a per-shard {!Telemetry.Recorder} with
    the given sampling period (use with [instrument], which populates
    the registry it samples) — filling [result.recorder]; the sampling
    events draw no randomness, so [digest] is unchanged by it.
    [on_cluster] is invoked with each shard's cluster right
    after creation (before [start]); {!Fig8} uses it to install the geo
    WAN, and the [--trace-out] exporter to attach a {!Harness.Tracing}
    bridge per shard. *)

val compare_modes : ?failures:int -> ?jobs:int -> unit -> result list
(** The paper's comparison: default Raft vs Dynatune, at {!run}'s
    default seed 42. *)

val print_comparison :
  Format.formatter -> paper:string * string -> result list -> unit
(** The part of the report {!Fig8} shares: for a two-mode pair, the
    mean detection and OTS reductions next to the [paper]'s
    (detection, OTS) figures; then both CDFs. *)

val print : Format.formatter -> result list -> unit
(** The full report; its banner names the first result's [n] and
    [rtt_ms]. *)
