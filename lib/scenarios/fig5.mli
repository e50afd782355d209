(** Figure 5 — peak throughput and latency without failures.

    The Section IV-B2 open-loop RPS ramp with the CPU cost model active:
    Dynatune pays measurement/tuning overhead per heartbeat plus n−1
    heartbeat timers, which shows up as a slightly lower peak throughput
    than default Raft (the paper measures −6.4%). *)

type result = { mode : string; ramp : Report.ramp }

val run :
  ?seed:int64 ->
  ?rates:float list ->
  ?hold:Des.Time.span ->
  ?rtt_ms:float ->
  config:Raft.Config.t ->
  unit ->
  result
(** Always 5 servers with 4 cores each (the paper's container
    allocation).  Defaults: seed 7, RTT 100 ms links, +1000 rps levels
    up to 17k, 10 s per level. *)

val compare_modes : ?hold:Des.Time.span -> ?jobs:int -> unit -> result list
(** {!run}'s defaults (seed 7) for both modes.  [jobs > 1] runs the two
    modes on parallel domains.  Each mode's
    ramp is a self-contained deterministic simulation, so the results
    are identical at any [jobs] — only the wall-clock changes. *)

val print : Format.formatter -> result list -> unit

(** {2 Saturation sweep — replication engine v2}

    The fig5 extension: the same open-loop ramp, but with a wire model
    (per-message serialization delay) on every link and no CPU costs, so
    the bottleneck is the leader's egress.  Four variants cross the
    pipelining window ([1] = strict request/response, one batch per RTT)
    with the priority lanes (off = heartbeats queue FIFO behind the
    replication burst, inflating the tuner's RTT estimate). *)

type sat_result = {
  sat_label : string;  (** e.g. ["window=16 lanes=on"] *)
  sat_window : int;  (** [max_inflight_appends] of the variant *)
  sat_lanes : bool;
  sat_ramp : Report.ramp;
  sat_rtt_err : float;
      (** Mean relative error of the followers' tuned RTT estimate
          against the configured base RTT, sampled after the last
          (saturating) level.  [nan] if no follower had samples. *)
}

val saturation : ?hold:Des.Time.span -> ?jobs:int -> unit -> sat_result list
(** Seed 11, 5 servers, 50 ms RTT, 100 us/unit serialization, levels
    250..8000 rps held [hold] (default 3 s) each; variants (window, lanes) in
    [(1,off); (1,on); (16,off); (16,on)].  Each variant is its own
    deterministic simulation, so results are identical at any [jobs]. *)

val print_saturation : Format.formatter -> sat_result list -> unit
