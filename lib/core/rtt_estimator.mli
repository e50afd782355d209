(** RTT statistics over the follower's [RTTs] list (Section III-C1).

    The leader measures each heartbeat's RTT with its own clock and ships
    the measurement to the follower inside the next heartbeat; the
    follower stores it here.  The election timeout is derived as
    [Et = μ_RTT + s·σ_RTT] (Section III-D1) once at least [min_size]
    samples are present. *)

type t

val create : min_size:int -> max_size:int -> t
(** Requires [0 < min_size <= max_size]. *)

val observe : t -> Des.Time.span -> unit
(** Record one measured RTT. *)

val length : t -> int

val warmed_up : t -> bool
(** At least [min_size] samples recorded (Step 0 complete). *)

val mean : t -> Des.Time.span
(** Mean RTT of the window; [0] when empty. *)

val std : t -> Des.Time.span
(** Population standard deviation of the window. *)

val election_timeout : t -> s:float -> Des.Time.span
(** [μ + s·σ] over the samples held, whether warmed up or not: callers
    check {!warmed_up} first.  No option, so the tuner's per-heartbeat
    refresh allocates nothing. *)

val clear : t -> unit
(** Discard all samples (leader change / timer expiry fallback). *)
