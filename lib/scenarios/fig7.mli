(** Figure 7 — adaptivity to packet-loss fluctuations (Section IV-C2).

    RTT fixed at 200 ms; the loss rate climbs 0 → 30% in 5-point steps and
    back down, each level held for three minutes.  Dynatune (auto-tuned
    [h]) is compared against Fix-K ([K = 10] fixed, [h = Et/10]) for
    cluster sizes N ∈ {5, 17, 65}:

    - Fig 7a: the applied heartbeat interval [h] over time;
    - Fig 7b: leader and follower CPU utilization (docker-stats style,
      5-second windows, percent of one core on two-core nodes). *)

type result = {
  mode : string;
  n : int;
  loss : (float * float) list;  (** (second, loss %) — the stimulus *)
  h : (float * float) list;
      (** (second, applied heartbeat interval ms toward one follower) *)
  leader_cpu : (float * float) list;  (** (second, percent) *)
  follower_cpu : (float * float) list;
  elections : int;  (** unnecessary elections during the run (paper: 0) *)
  timer_expiries : int;
}

val loss_schedule : float list
(** 0, 5, 10, 15, 20, 25, 30, 25, 20, 15, 10, 5, 0 (percent). *)

val run :
  ?seed:int64 ->
  ?hold:Des.Time.span ->
  n:int ->
  config:Raft.Config.t ->
  unit ->
  result
(** [hold] defaults to the paper's 180 s per loss level.  Nodes have 2
    cores (the paper's Fig 7 allocation).  [h] and CPU utilization are sampled
    every 5 s. *)

val compare_modes :
  ?hold:Des.Time.span -> ?jobs:int -> ns:int list -> unit -> result list
(** Dynatune and Fix-K(10) at each cluster size, seed 19.  [jobs > 1] runs the
    legs on parallel domains; results are identical at any [jobs]. *)

val print : Format.formatter -> result list -> unit
