(** Time-varying link conditions.

    The OCaml equivalent of the paper's [tc netem] scripts: each link has a
    schedule mapping simulation time to a {!profile} (RTT, jitter, loss,
    duplication).  Builders cover the exact patterns of Section IV:
    constant conditions, gradual ramps (Fig 6a), radical steps (Fig 6b) and
    symmetric up-then-down staircases (Fig 7). *)

type profile = {
  rtt_ms : float;  (** Mean round-trip time in milliseconds. *)
  jitter : float;
      (** Relative delay jitter: sigma of a mean-preserving lognormal
          multiplier applied to each one-way delay.  [0.] = no jitter. *)
  loss : float;  (** Per-message Bernoulli loss probability, [0, 1]. *)
  duplicate : float;
      (** Probability that a datagram is delivered twice. *)
}

val profile :
  ?jitter:float -> ?loss:float -> ?duplicate:float -> rtt_ms:float -> unit ->
  profile
(** Profile with defaults [jitter = 0.], [loss = 0.], [duplicate = 0.]. *)

type t
(** A schedule of profiles over simulation time. *)

val constant : profile -> t

val piecewise : (Des.Time.t * profile) list -> t
(** Segments as [(start_time, profile)]; the profile in force at time [x]
    is that of the last segment with [start_time <= x].  The list must be
    sorted ascending and start at or before time zero (a leading segment
    at time zero is required). *)

val staircase : hold:Des.Time.span -> profile list -> t
(** Profiles held for [hold] each, starting at time zero; the final
    profile persists forever.  Fig 6/7's step patterns. *)

val rtt_staircase :
  base:profile -> hold:Des.Time.span -> rtts_ms:float list -> t
(** [staircase] varying only the RTT over [base]. *)

val loss_staircase :
  base:profile -> hold:Des.Time.span -> losses:float list -> t
(** [staircase] varying only the loss rate over [base]. *)

val at : t -> Des.Time.t -> profile
(** Profile in force at an instant. *)
