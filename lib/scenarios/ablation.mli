(** Ablation studies over Dynatune's runtime parameters — the design
    choices Section III-D leaves to the practitioner ([s], [x],
    [minListSize]).  Not in the paper's figures, but called out in its
    design discussion; these quantify the trade-offs it describes. *)

type safety_row = {
  s : float;
  detection_mean_ms : float;
  ots_mean_ms : float;
  et_mean_ms : float;  (** tuned Et under jittery links *)
  false_timeouts : int;  (** timer expiries with a healthy leader *)
}

val safety_factor_sweep :
  ?failures:int -> ?quiet:Des.Time.span -> ?jobs:int -> unit -> safety_row list
(** For each safety factor [s] in 0..4 (seed 31): tuned Et, detection/OTS
    means over a failure campaign, and false detections during a quiet
    (failure-free) period on a 100 ms link with 15% jitter.  Small [s] detects fast but false-triggers;
    large [s] is safe but slow — the trade-off of Section III-D1. *)

type arrival_row = {
  x : float;
  k : int;  (** required heartbeats under the measured loss *)
  h_ms : float;
  heartbeat_rate_hz : float;  (** per-path sending rate (1000/h) *)
  false_timeouts : int;
}

val arrival_probability_sweep :
  ?quiet:Des.Time.span -> ?jobs:int -> unit -> arrival_row list
(** For each target arrival probability [x] in 0.9, 0.99, 0.999 and
    0.9999 under 10% link loss (seed 37): the
    K/h the tuner converges to and the false detections observed — the
    resource-vs-safety trade-off of Section III-D2. *)

type list_size_row = {
  min_list_size : int;
  warmup_ms : float;  (** leader election -> tuner leaves Step 0 *)
  adaptation_ms : float;
      (** RTT step 50 -> 150 ms -> majority timeout exceeds the new RTT *)
}

val list_size_sweep : ?jobs:int -> unit -> list_size_row list
(** Responsiveness cost of larger measurement windows (Section III-E):
    [minListSize] 5, 20, 50 and 100 (seed 41). *)

type estimator_row = {
  estimator : string;
  et_steady_ms : float;  (** mean tuned Et on a jittery steady link *)
  et_jitter_ms : float;  (** std of the tuned Et over that period *)
  adaptation_up_ms : float;  (** RTT step 50→150: time to re-accommodate *)
  false_timeouts : int;
  detection_mean_ms : float;  (** small failover campaign *)
}

val estimator_sweep : ?jobs:int -> unit -> estimator_row list
(** Compare the paper's sliding-window statistics against EWMA
    (Jacobson/Karels) backends: stability vs. adaptation lag, with a
    40-failure campaign per backend (seed 47). *)

val print :
  Format.formatter ->
  safety_row list * arrival_row list * list_size_row list
  * estimator_row list ->
  unit
