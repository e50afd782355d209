(** Evaluation of the Section IV-E proposed extensions (left as future
    work in the paper, implemented here):

    1. {e heartbeat suppression}: skip a follower's heartbeat when
       replication traffic already reset its election timer;
    2. {e consolidated timer}: drive all followers from one heartbeat
       timer at the minimum tuned [h].

    Both target the throughput/CPU cost that Fig 5 and Fig 7b measure, so
    the evaluation reuses those benches across the four variants and adds
    a failover campaign to show detection quality is not sacrificed. *)

type variant = { label : string; config : Raft.Config.t }

val variants : unit -> variant list
(** dynatune, +suppress, +single-timer, +both. *)

type row = {
  label : string;
  peak_rps : float;  (** fig5-style peak throughput *)
  leader_cpu_pct : float;
      (** fig7b-style leader CPU at N = 17, 10% loss, steady state *)
  heartbeats_sent : int;  (** during the CPU window *)
  detection_ms : float;  (** failover campaign mean *)
  ots_ms : float;
}

val run :
  ?seed:int64 ->
  ?rates:float list ->
  ?hold:Des.Time.span ->
  ?jobs:int ->
  unit ->
  row list
(** Each variant's failover probe is a 50-failure {!Fig4.run}.
    [jobs > 1] evaluates the four variants on parallel domains; each
    variant is a self-contained simulation, so results are identical at
    any [jobs]. *)

val print : Format.formatter -> row list -> unit
