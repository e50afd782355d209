(** Restartable one-shot timers.

    The idiom Raft needs everywhere: a timer that is re-armed on every
    heartbeat, fires at most once per arming, and can be disarmed.
    Re-arming cancels the previous deadline's event (the engine never
    fires a cancelled event, so no stale callback can slip through);
    while that event is still parked in the timing wheel, it is moved
    to the new deadline instead ({!Engine.reschedule_timer_op}), with
    the same firing order and counters.  The arm path allocates nothing
    beyond the engine's own event record — the fire closure is built
    once per timer. *)

type t

val create : Engine.t -> (unit -> unit) -> t
(** A disarmed timer whose expiry runs the callback. *)

val arm : t -> Time.span -> unit
(** (Re)arm to fire after [span].  Any previous arming is cancelled. *)

val disarm : t -> unit
(** Cancel without firing; no-op when disarmed. *)

val is_armed : t -> bool

val remaining : t -> Time.span option
(** Time left until expiry, when armed. *)

val armed_span : t -> Time.span option
(** The span the timer was last armed with (even after firing) — this is
    the [randomizedTimeout] value the paper samples. *)
