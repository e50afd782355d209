(** Discrete-event simulation engine.

    A virtual clock plus a priority queue of scheduled callbacks.  Events
    scheduled at the same instant fire in scheduling order (a strictly
    increasing sequence number breaks ties), so runs are deterministic.
    The engine owns the root PRNG stream from which all components derive
    named substreams.

    Two scheduling forms share one queue and one firing order:

    - {b Closure form} ({!schedule_at} and friends): the traditional
      [unit -> unit] callback.  Allocates the closure at the call site;
      right for cold paths and one-off work.
    - {b Opcode form} ({!register_op} + {!schedule_op_at} and friends):
      the callback is a handler registered once per engine, and each
      schedule passes it two operand words plus an immediate int.  After
      the event pool warms up, scheduling allocates {e zero} minor
      words — this is what the delivery and timer hot paths use.

    {b One path, and what it costs.}  Every entry point queues its
    event the same way: a pooled record parked in the timing wheel's
    slot for its deadline (O(1) link), moved into the heap when its
    tick comes up, and popped from a heap that holds about one tick's
    events.  An event due in the tick being drained, or more than
    ~4.9 h ahead, goes to the heap directly.  Cancelling a parked event
    unlinks it at once; cancelling one already in the heap leaves a
    tombstone.  So the entry points differ only in what the call site
    allocates: the closure form, its closure; the op forms, nothing. *)

type t

type handle
(** A cancellation handle for a scheduled event.  Handles are pooled:
    after the event fires or is cancelled, the handle may be recycled
    for an unrelated event — a timer-wheel cancel recycles it at once.
    Holders must forget a handle (overwrite it with {!never}) once they
    learn it fired, and must not retain handles they have cancelled —
    {!Timer} is the reference implementation of this discipline. *)

val create : ?seed:int64 -> unit -> t
(** Fresh engine at time zero.  [seed] initializes the root PRNG. *)

val now : t -> Time.t
val rng : t -> Stats.Rng.t
(** Root PRNG stream; split it rather than drawing from it directly. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> handle
(** Schedule a callback at an absolute instant.  Scheduling in the past
    raises [Invalid_argument]. *)

val schedule_after : t -> Time.span -> (unit -> unit) -> handle
(** Schedule after a relative delay (clamped to be non-negative). *)

type ('a, 'b) op
(** A handler-table index for the opcode scheduling form: the handler
    receives the two operand values and the immediate int passed at
    schedule time.  Ops are engine-specific — registering on one engine
    and scheduling on another is unchecked and wrong. *)

val register_op : t -> ('a -> 'b -> int -> unit) -> ('a, 'b) op
(** Register a dispatch handler, once per engine (typically at component
    creation).  The per-schedule cost of the returned op is two operand
    stores and an int store — no closure. *)

val cached_op : t -> slot:int -> (unit -> ('a, 'b) op) -> ('a, 'b) op
(** Memoize an op registration in one of a small number of per-engine
    slots, for components (like {!Timer}) that are instantiated many
    times per engine but need only one shared handler.  The slot
    registry is a fixed convention: slot {!slot_timer} belongs to
    {!Timer}, slots {!slot_node_deliver} and {!slot_node_work} to
    [Raft.Node], slot {!slot_client_arrival} to [Kvsm.Client]; slots
    above them are unassigned.  The thunk runs on first
    use only.  Callers must ensure a slot is always used at one type —
    the memoization is untyped. *)

val slot_timer : int
(** {!cached_op} slot owned by {!Timer}'s shared fire handler. *)

val slot_node_deliver : int
(** {!cached_op} slot owned by [Raft.Node]'s message-delivery handler. *)

val slot_node_work : int
(** {!cached_op} slot owned by [Raft.Node]'s client-request handler. *)

val slot_client_arrival : int
(** {!cached_op} slot owned by [Kvsm.Client]'s open-loop arrival
    handler. *)

val schedule_op_at : t -> Time.t -> ('a, 'b) op -> 'a -> 'b -> int -> unit
(** Opcode form of {!schedule_at}: fire [op]'s handler with the given
    operands.  Returns no handle (the common case never cancels);
    allocation-free once the event pool is warm. *)

val call_op : t -> ('a, 'b) op -> 'a -> 'b -> int -> unit
(** Run [op]'s handler now, with the given operands: what the event
    would do when it fires, without scheduling one.  For callers that
    take an op and sometimes have no reason to defer it. *)

val schedule_op_after : t -> Time.span -> ('a, 'b) op -> 'a -> 'b -> int -> unit
(** Opcode form of {!schedule_after}. *)

val schedule_timer_op : t -> Time.span -> ('a, 'b) op -> 'a -> 'b -> int -> handle
(** {!schedule_op_after} returning a handle, because timer deadlines are
    routinely cancelled. *)

val reschedule_timer_op : t -> handle -> Time.span -> bool
(** [reschedule_timer_op t h span] moves a handle still parked in the
    timing wheel to [now + span], keeping its payload and its handle:
    exactly what {!cancel} followed by {!schedule_timer_op} with the
    same payload would do, counted as that cancel.  [false], changing
    nothing, when [h] is not parked (in the heap, fired or cancelled);
    the caller then cancels and schedules. *)

val cancel : handle -> unit
(** Cancel a scheduled event; cancelling a fired or already-cancelled
    event is a no-op (as long as its record has not been reused).
    Events still parked in the timing wheel are unlinked and recycled
    at once, without ever touching the heap. *)

val is_pending : handle -> bool

val never : handle
(** A permanently-cancelled handle: a null object for handle-typed
    fields, so holders (e.g. {!Timer}) need no [handle option].
    [cancel] is a no-op on it and [is_pending] is [false]. *)

val run : t -> unit
(** Run until the event queue is empty. *)

val run_until : t -> Time.t -> unit
(** Process all events with timestamp [<= limit], then set the clock to
    [limit].  Events scheduled beyond [limit] remain queued. *)

val run_for : t -> Time.span -> unit
(** [run_until] the current time plus a span. *)

val await : t -> slice:Time.span -> timeout:Time.span -> (unit -> bool) -> bool
(** [await t ~slice ~timeout cond] runs the engine until [cond ()] holds
    or the clock reaches [now + timeout]; [true] when [cond] held.
    [cond] is evaluated first, then after each {!run_until} step of
    [slice] (the last step clamped to the deadline) — but only after a
    step that executed at least one event, since nothing else changes
    simulation state.  Slices that hold no event are not stepped one by
    one: the wait advances straight to the end of the slice, on the same
    grid, that holds the next live event.  On [false] the clock is
    exactly at the deadline.  This is the harness's one wait loop; it
    allocates nothing per slice.  Raises [Invalid_argument] unless
    [slice > 0]. *)

val step : t -> bool
(** Process the single next event; [false] if the queue was empty. *)

val set_post_hook : t -> (unit -> unit) option -> unit
(** Install (or clear, with [None]) a callback invoked after every
    processed event.  At most one hook is installed at a time; the
    online invariant checker uses it to inspect all servers' states
    between events.  An exception raised by the hook propagates out of
    [run] / [run_until] / [step]. *)

val pending_events : t -> int
(** Number of queued non-cancelled events. *)

val processed_events : t -> int
(** Total events executed since creation. *)

type stats = {
  processed : int;  (** events executed ({!processed_events}) *)
  pending : int;  (** queued non-cancelled events ({!pending_events}) *)
  cancelled : int;  (** lifetime [cancel] marks on scheduled events *)
  compactions : int;  (** lazy-cancel heap sweeps performed *)
  heap_high_water : int;  (** deepest the event heap has ever been *)
  cancelled_in_place : int;
      (** cancels absorbed by the timing wheel: the event was unlinked
          from its slot without a heap push, sift, or tombstone *)
  cascades : int;  (** wheel slot redistributions between levels *)
  wheel_occupancy : int;  (** events currently parked in the wheel *)
  wheel_high_water : int;  (** peak wheel occupancy *)
  pool_size : int;
      (** event records ever allocated; never exceeds
          [heap_high_water + wheel_high_water] *)
}
(** Engine self-instrumentation.  [cancelled] vs [processed] shows how
    much timer churn (heartbeat re-arming, election resets) the workload
    generates relative to events that actually fire;
    [cancelled_in_place] is the share of that churn the timing wheel
    absorbed for free, while [compactions] and [heap_high_water]
    characterize the residual load on the lazy-cancellation heap.
    Maintained unconditionally — each is a plain field mutation on a
    path that already mutates the structure. *)

val stats : t -> stats
(** Snapshot of the counters at this instant. *)

val global_processed : unit -> int
(** Events executed by every engine in the process so far, across all
    domains.  Updated in batches at the end of [run] / [run_until], so
    read it between runs, not mid-run.  Used by the benchmark harness to
    report events-per-figure. *)
