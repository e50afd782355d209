(** Evaluation of the Section IV-E {e consolidated timer} extension
    (left as future work in the paper, implemented here): drive all
    followers from one heartbeat timer at the minimum tuned [h].

    It targets the throughput/CPU cost that Fig 5 and Fig 7b measure, so
    the evaluation reuses those benches on both variants and adds a
    failover campaign to measure detection quality. *)

type variant = { label : string; config : Raft.Config.t }

val variants : unit -> variant list
(** dynatune, +single-timer. *)

type row = {
  label : string;
  peak_rps : float;  (** fig5-style peak throughput *)
  leader_cpu_pct : float;
      (** fig7b-style leader CPU at N = 17, 10% loss, steady state *)
  msgs_per_sec : float;
      (** every message the fabric sent during the CPU window, per
          second *)
  false_timeouts : int;
      (** election-timer expiries during the CPU window, counted with
          {!Harness.Monitor.observe} *)
  detection_ms : float;  (** failover campaign mean *)
  ots_ms : float;
}

val run : ?hold:Des.Time.span -> ?jobs:int -> unit -> row list
(** Seed 29 throughout; the throughput probe is {!Fig5.run}'s default
    ramp.  Each variant's failover probe is a 50-failure {!Fig4.run}.
    [jobs > 1] evaluates the variants on parallel domains; each
    variant is a self-contained simulation, so results are identical at
    any [jobs]. *)

val print : Format.formatter -> row list -> unit
