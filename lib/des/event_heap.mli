(** Monomorphic event queue for the DES engine.

    A binary min-heap on [(at, seq)] lexicographic order, a hierarchical
    timing wheel in front of it for timer deadlines, and the record pool
    behind both.

    Events are {e flattened} and {e pooled}: instead of a
    [unit -> unit] closure per schedule, an event carries an int opcode
    plus two uniform operand words and one immediate word, dispatched
    through the engine's handler table ([op] = 0 keeps the closure form,
    stored in [a]).  Fired and cancelled events return to a free list
    and are recycled by {!alloc}, so steady-state scheduling allocates
    zero minor words.

    {b Barrier-free layout.}  Pooled records live in the major heap,
    where a pointer store costs a write-barrier call.  So each record
    has a fixed int [id] and the queue holds ids only: the heap is three
    parallel unboxed [int array]s ([at], [seq], [id]) with hole-based
    sifts, and the wheel-slot chains and the free list are doubly or
    singly linked through int fields.  A record pointer is stored once,
    in [by_id], when the record is first allocated.

    {b Timing wheel.}  3 levels x 256 slots at 2^20 ns (~1.05 ms) per
    tick: level 0 spans ~268 ms, level 1 ~68.7 s, level 2 ~4.9 h.
    {!push_timer} parks an event in the slot its deadline selects;
    deeper deadlines, and deadlines behind the wheel's cursor (the tick
    being drained), go to the heap.  Parked events are pushed into the
    heap with their original [(at, seq)] just before they come due
    ({!flush_next}), so the heap alone decides firing order whether or
    not an event took the wheel.  The engine queues every event through
    {!push_timer}, so the heap holds about one tick's events.  Finding
    the earliest occupied slot is O(1): a summary word per level marks
    its non-empty occupancy words, and two [ctz]s pick the slot.

    Cancellation: a heap-resident event is marked dead in place, and
    the heap compacts once more than 64 entries are dead and the dead
    outnumber the live (amortized O(1) per event), so re-arming timers
    at a high rate cannot grow it without bound.  A wheel-resident
    event is unlinked from its slot and recycled at once.  The pool
    therefore never holds more records than
    [high_water + wheel_high_water].

    Not thread-safe: each simulation runs single-domain. *)

type stats = {
  mutable dead : int;  (** cancelled-but-still-queued entries, right now *)
  mutable cancelled : int;  (** lifetime {!cancel}s of pending events *)
  mutable compactions : int;  (** lifetime count of lazy-cancel sweeps *)
  mutable high_water : int;  (** deepest the heap has ever been *)
  mutable cancelled_in_place : int;
      (** cancels that hit a wheel slot — the event was unlinked without
          ever being pushed into the heap *)
  mutable cascades : int;  (** wheel slot redistributions between levels *)
  mutable wheel_occupancy : int;
      (** events parked in wheel slots; every one is pending *)
  mutable wheel_high_water : int;  (** peak wheel occupancy *)
}
(** Self-instrumentation counters, maintained unconditionally — they are
    single field mutations on paths that already mutate the structure,
    too cheap to be worth gating.  Read them via {!stats}. *)

type t

type event = private {
  id : int;  (** fixed index of this record in its queue's pool *)
  mutable at : Time.t;
  mutable seq : int;  (** tie-break: strictly increasing scheduling order *)
  mutable op : int;
      (** handler-table index; 0 = [a] holds a [unit -> unit] closure *)
  mutable a : Obj.t;  (** first operand word (uniform representation) *)
  mutable b : Obj.t;  (** second operand word *)
  mutable arg : int;  (** immediate operand (packed ints, cause IDs) *)
  mutable state : int;
      (** pending iff [>= 0]: queued in the heap, parked in a wheel slot,
          or allocated and not yet queued *)
  mutable next : int;  (** wheel-slot chain or free list, by id; -1 ends *)
  mutable prev : int;  (** wheel-slot chain, by id; -1 at the head *)
  owner : t;
}
(** Private: {!Engine} reads the payload; only this module writes a
    record, except the payload fields {!Engine} fills through
    {!set_payload}. *)

val create : unit -> t

val never : event
(** A shared event that is never pending: a null object for handle
    fields that would otherwise be [event option].  {!cancel} is a
    no-op on it and {!is_pending} is [false]; it is never stored. *)

val alloc : t -> at:Time.t -> seq:int -> event
(** A recycled record from the free list (or a fresh one), live and not
    yet queued.  Compacts the heap first when dead entries dominate.
    The caller must set the payload ({!set_payload}) before the event
    fires. *)

val set_payload : event -> int -> Obj.t -> Obj.t -> int -> unit
(** [set_payload ev op a b arg] fills an allocated event's payload.  An
    operand word physically equal to the one the record already holds
    is not stored again (no write barrier). *)

val make : t -> at:Time.t -> seq:int -> (unit -> unit) -> event
(** {!alloc} an event carrying a closure payload ([op] = 0) {e without}
    queueing it — the caller hands it to {!push_timer} (or, bypassing
    the wheel, {!push_event}). *)

val push_event : t -> event -> unit
(** Push an event obtained from {!make}/{!alloc} straight into the
    heap.  The wheel's flush uses it; outside this module only tests and
    the heap's microbenchmark do. *)

val push_timer : t -> now:Time.t -> event -> unit
(** Queue an event obtained from {!make}/{!alloc} through the timing
    wheel: parked in a slot when its deadline is in the wheel's range,
    pushed into the heap when it falls in the tick being drained or past
    level 2's horizon.  [now] is the clock, a lower bound on every
    deadline still to come: an empty wheel moves its cursor up to it.
    The engine's one way in. *)

val cancel : event -> unit
(** Cancel a pending event.  A heap-resident event becomes a dead entry
    that is skipped and later reclaimed; a wheel-resident one is
    unlinked from its slot and recycled at once (counted as
    cancelled-in-place).  Cancelling an event that is not pending —
    fired, already cancelled, or {!never} — is a no-op. *)

val repark : event -> now:Time.t -> at:Time.t -> seq:int -> bool
(** Re-queue a wheel-parked event in place under a new [(at, seq)],
    keeping its payload, as {!push_timer} would file it.  This is the
    same as a {!cancel} followed by {!alloc} and {!push_timer}, which
    would hand the same record straight back, and it is counted as that
    cancel (in-place).  [false], changing nothing, when the event is not
    parked in a slot (heap-resident, fired, cancelled or {!never}). *)

val is_pending : event -> bool

val top_live : t -> event
(** The heap's earliest live event without removing it, or {!never}
    when the heap is empty.  Discards (and recycles) dead entries from
    the top.  Allocation-free: the engine's hot loop.  Wheel events are
    not considered; see {!next_due_ns}. *)

val pop_top : t -> unit
(** Remove the top event and return it to the pool.  Only call right
    after {!top_live} returned it.  Its fields stay readable until the
    next {!alloc}. *)

val next_due_ns : t -> int
(** Lower bound on the earliest instant any parked event could be due
    (its slot's tick start), or [max_int] when the wheel is empty.  The
    heap top may fire only while it is strictly below this bound;
    otherwise call {!flush_next} and look again. *)

val flush_next : t -> unit
(** Advance the wheel to its earliest occupied slot and process it:
    cascade it to a finer level, or (at level 0) push its events into
    the heap.  Requires a non-empty wheel.  Repeated calls make
    progress: every parked event eventually reaches the heap. *)

val live_length : t -> int
(** Heap entries that are still scheduled to fire (parked wheel events
    are counted by [wheel_occupancy]). *)

val pool_size : t -> int
(** Event records ever allocated by this queue. *)

val stats : t -> stats
(** The queue's live counter record (not a copy). *)

val tick_bits : int
(** log2 of the wheel's tick size in ns (for tests). *)

val cursor_tick : t -> int
(** The wheel's position, in ticks: every parked event's tick is at or
    after it (for diagnostics). *)
