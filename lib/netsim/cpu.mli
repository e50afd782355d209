(** Per-node CPU model: a FIFO server with utilization accounting.

    Message handling and request processing charge a service time; work is
    serialized (divided by the core count) so a node saturates like the
    paper's containers do in Fig 5 (peak throughput) and Fig 7b (leader CPU
    under heartbeat load).  Utilization is reported like [docker stats]:
    percent of one core, so values above 100% mean more than one core
    busy. *)

type t

val create : Des.Engine.t -> cores:float -> t
(** A CPU with [cores] cores (fractional allowed).  Requires
    [cores > 0.]. *)

val passthrough : Des.Engine.t -> t
(** A free CPU: [execute] runs work immediately and accounts nothing.
    Used by election-timing experiments where processing cost is
    irrelevant. *)

val is_passthrough : t -> bool

val execute : t -> cost:Des.Time.span -> (unit -> unit) -> unit
(** Enqueue work costing [cost]; the continuation runs when the work
    completes (after queueing behind earlier work).  With [cost = 0] the
    work still passes through the queue and completes at the current
    backlog horizon. *)

val charge : t -> cost:Des.Time.span -> unit
(** Account cost with no continuation (fire-and-forget work such as
    sending a message). *)

val backlog : t -> Des.Time.span
(** Work currently queued ahead of a new arrival, in time units. *)

val busy_total : t -> Des.Time.span
(** Total service time charged since creation. *)

val utilization_in : t -> lo_sec:float -> hi_sec:float -> float
(** Mean utilization percent over a window of simulated seconds. *)
