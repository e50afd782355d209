(** In-simulation probe bus.

    Components emit typed events against the virtual clock; observers
    receive each one, stamped with the current simulation time, the
    moment it is emitted.  This replaces the paper's practice of parsing
    etcd log files: the shared virtual clock makes the timestamps exact.

    {b Retention contract.}  A trace retains nothing: an event reaches
    the observers subscribed when it is emitted and is then gone.  A
    measurement over a window of the run is therefore a scoped observer
    ({!during}) that folds what it needs as the window runs, and
    whole-run consumers (metrics, digests, the checker, the tracing
    bridge) are permanent {!subscribe} observers. *)

type 'a t

val create : Engine.t -> 'a t

val emit : 'a t -> 'a -> unit
(** Deliver an event, stamped with the current simulation time, to every
    observer in subscription order.  Allocates nothing itself. *)

val subscribe : 'a t -> (Time.t -> 'a -> unit) -> unit
(** Register an observer for every subsequent [emit], for the life of
    the trace. *)

val during : 'a t -> (Time.t -> 'a -> unit) -> (unit -> 'b) -> 'b
(** [during t f body] subscribes [f] while [body] runs and returns its
    result.  [f] is unsubscribed when [body] returns or raises. *)
