(** In-simulation trace recorder.

    Components emit typed events against the virtual clock; monitors
    consume the trace afterwards to measure detection time, out-of-service
    intervals, election rounds, etc.  This replaces the paper's practice of
    parsing etcd log files: the shared virtual clock makes the timestamps
    exact.

    {b Retention contract.}  A trace keeps every event since creation or
    the last {!clear}, and replay monitors rely on that:
    [Harness.Monitor.leaderless_intervals] replays every retained event,
    so its results are only exact if the trace was not {!clear}ed during
    the window being measured (the failover harness honours this by
    measuring each failure before clearing).  Whole-run consumers
    (metrics, digests, the tracing bridge) are live {!subscribe}
    observers, so clears do not affect them. *)

type 'a t

val create : Engine.t -> 'a t

val engine : 'a t -> Engine.t

val emit : 'a t -> 'a -> unit
(** Record an event at the current simulation time. *)

val events : 'a t -> (Time.t * 'a) list
(** Retained events, oldest first. *)

val iter : 'a t -> f:(Time.t -> 'a -> unit) -> unit

val find_first : 'a t -> after:Time.t -> f:('a -> bool) -> (Time.t * 'a) option
(** First retained event strictly after [after] satisfying the
    predicate. *)

val clear : 'a t -> unit
(** Drop all retained events.  Observers stay subscribed. *)

val subscribe : 'a t -> (Time.t -> 'a -> unit) -> unit
(** Register a live observer called on every subsequent [emit] (after the
    event is recorded).  Monitors use this to react during the run. *)
