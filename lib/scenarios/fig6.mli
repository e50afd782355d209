(** Figure 6 — adaptivity to RTT fluctuations.

    Two patterns from Section IV-C1, each run for Dynatune, default Raft
    and Raft-Low (parameters ÷ 10):

    - {e gradual}: RTT 50 → 200 → 50 ms in 10 ms steps, one minute per
      step (Fig 6a);
    - {e radical}: 50 ms for a minute, jump to 500 ms for a minute, back
      (Fig 6b).

    The observable is the (f+1)-th smallest randomizedTimeout sampled once
    per second, with out-of-service intervals (leaderless periods caused
    by unnecessary elections) as background shading. *)

type series = {
  mode : string;
  rtt : (float * float) list;  (** (second, link RTT ms) — the stimulus *)
  majority_timeout : (float * float) list;
      (** (second, (f+1)-th smallest randomizedTimeout ms) *)
  ots : (Des.Time.t * Des.Time.t) list;  (** leaderless intervals *)
  ots_total_ms : float;
  false_timeouts : int;  (** election-timer expiries while the leader was alive *)
  pre_vote_aborts : int;
  elections : int;  (** real (term-bumping) campaigns *)
}

type pattern = Gradual | Radical

val rtt_schedule : pattern -> hold:Des.Time.span -> float list
(** The RTT step values of each pattern. *)

val run :
  ?seed:int64 ->
  ?hold:Des.Time.span ->
  pattern:pattern ->
  config:Raft.Config.t ->
  unit ->
  series
(** [hold] is the duration of each RTT step (paper: 60 s); the majority
    randomized timeout is sampled once a second. *)

val compare_modes :
  ?hold:Des.Time.span -> ?jobs:int -> pattern:pattern -> unit -> series list
(** Dynatune vs Raft vs Raft-Low, seed 11.  [jobs > 1] runs the three modes on
    parallel domains; results are identical at any [jobs]. *)

val print : Format.formatter -> pattern -> series list -> unit
