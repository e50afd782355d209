(** Simulated time.

    Instants and spans are integer nanoseconds.  Integer time keeps the
    event queue ordering exact (no floating-point ties) and comfortably
    covers multi-day simulations in 63 bits.  A span is also an [int] of
    nanoseconds; the two aliases exist only for documentation. *)

type t = int
(** An instant, in nanoseconds since the start of the simulation. *)

type span = int
(** A duration in nanoseconds. *)

val zero : t
val us : int -> span
val ms : int -> span
val sec : int -> span

val of_ms_f : float -> span
(** Milliseconds (fractional) to span, rounded to the nearest ns.
    Raises [Invalid_argument] naming the function unless the rounded
    value is finite and fits an [int]. *)

val of_sec_f : float -> span
(** Seconds to span, as {!of_ms_f}. *)

val to_ms_f : span -> float
val to_sec_f : span -> float
val to_us_f : span -> float

val add : t -> span -> t
val diff : t -> t -> span
(** [diff a b] is [a - b]. *)

val scale : span -> float -> span
(** [scale s k] is [s·k], rounded; raises as {!of_ms_f} does. *)

val min_span : span -> span -> span
val max_span : span -> span -> span

val clamp : span -> lo:span -> hi:span -> span
(** [min_span], [max_span] and [clamp] are int-only: they compile to
    inline integer compares, never OCaml's polymorphic compare, so the
    event path (every [Engine.schedule_*_after]) can call them freely. *)

val pp : Format.formatter -> t -> unit
(** Render as seconds with millisecond precision, e.g. ["12.345s"]. *)

val pp_ms : Format.formatter -> span -> unit
(** Render as milliseconds, e.g. ["237.1ms"]. *)

val add_ms_to_buffer : Buffer.t -> span -> unit
(** Append the {!pp_ms} text. *)
