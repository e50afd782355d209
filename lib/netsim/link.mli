(** A directed network link.

    Samples per-message outcomes (delay, loss, duplication) from the link's
    current {!Conditions.profile}.  One-way delay is [RTT/2] scaled by a
    mean-preserving lognormal jitter multiplier, so the configured RTT is
    the long-run mean RTT observed by request/response exchanges. *)

type t

type counters = {
  sent : int;  (** messages offered to the link *)
  delivered : int;  (** at least one copy arrived *)
  lost : int;  (** datagrams dropped by the loss draw *)
  duplicated : int;  (** datagrams delivered twice *)
  retransmissions : int;  (** reliable-stream loss events *)
}
(** Per-link transmission statistics.  The link keeps them in its own
    record, maintained unconditionally (one field increment per sample,
    on a path that draws from the PRNG).  Reliable sends always count as
    delivered — loss becomes retransmission delay, tallied
    separately. *)

val create : Des.Engine.t -> rng:Stats.Rng.t -> Conditions.t -> t
val set_conditions : t -> Conditions.t -> unit

val counters : t -> counters
(** A snapshot of the link's counters: later samples do not change it. *)

val sample_datagram : t -> int
(** Unreliable (UDP-like) transmission: loss and duplication apply.
    Returns [-1] for a lost datagram or the one-way latency otherwise,
    and parks a duplicate copy's latency for {!dup_latency}, so the
    fabric's hot path boxes nothing per message. *)

val dup_latency : t -> int
(** Second-copy latency of the last {!sample_datagram} ([-1] when it
    produced no duplicate).  Overwritten by the next sample. *)

val sample_reliable : t -> Des.Time.span
(** Reliable (TCP-like) transmission latency: message loss is converted to
    retransmission delay with exponential RTO backoff (minimum RTO 200 ms,
    initial RTO [max(200ms, 2·RTT)]), so the message always arrives but
    late under loss.

    {b Bound.}  A message gets at most 8 retransmissions, the RTO
    doubling each time, after which it is delivered regardless.  The
    worst-case penalty is therefore [255·RTO] on top of the one-way
    delay: 102.1 s at RTT 200 ms (RTO 400 ms), 51 s on any link with
    RTT ≤ 100 ms (RTO 200 ms).  No cap on the backed-off RTO applies
    (TCP's RTO max is not modelled). *)
