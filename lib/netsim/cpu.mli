(** Per-node CPU model: a FIFO server with utilization accounting.

    Message handling and request processing charge a service time; work is
    serialized (divided by the core count) so a node saturates like the
    paper's containers do in Fig 5 (peak throughput) and Fig 7b (leader CPU
    under heartbeat load).  Utilization is reported like [docker stats]:
    percent of one core, so values above 100% mean more than one core
    busy. *)

type t

val create : Des.Engine.t -> cores:float -> t
(** A CPU with [cores] cores (fractional allowed).  Raises
    [Invalid_argument], naming [cores], unless it is finite and positive
    (NaN is rejected). *)

val passthrough : Des.Engine.t -> t
(** A free CPU: [execute] runs work immediately and accounts nothing.
    Used by election-timing experiments where processing cost is
    irrelevant. *)

val execute :
  t -> cost:Des.Time.span -> ('a, 'b) Des.Engine.op -> 'a -> 'b -> int -> unit
(** Enqueue work costing [cost]; [op]'s handler runs with the given
    operands when the work completes (after queueing behind earlier
    work), like {!Des.Engine.schedule_op_at}: one event, no closure.
    With [cost = 0] the work still passes through the queue and
    completes at the current backlog horizon.  A passthrough CPU runs
    the handler immediately, before [execute] returns. *)

val charge : t -> cost:Des.Time.span -> unit
(** Account cost with no continuation (fire-and-forget work such as
    sending a message). *)

val backlog : t -> Des.Time.span
(** Work currently queued ahead of a new arrival, in time units. *)

val busy_total : t -> Des.Time.span
(** Total service time charged since creation. *)

val utilization_in : t -> lo_sec:float -> hi_sec:float -> float
(** Mean utilization percent over a window of simulated seconds: the
    cost charged to each whole second whose start lies in
    [\[lo_sec, hi_sec)], over the window's length.  Work is charged to
    the seconds its service window spans, in proportion.  The
    accounting costs one int per simulated second up to the last one
    charged, grown by doubling; a passthrough CPU keeps none. *)
