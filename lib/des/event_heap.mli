(** Monomorphic event queue for the DES engine.

    A binary min-heap specialized to the engine's event records: the
    [(at, seq)] lexicographic comparison is inlined into the sift loops
    instead of going through a boxed ['a -> 'a -> int] closure, which is
    worth ~1.6x on push/pop throughput (the hottest loop in every
    campaign).

    Events are {e flattened} and {e pooled}: instead of a
    [unit -> unit] closure per schedule, an event carries an int opcode
    plus two uniform operand words and one immediate word, dispatched
    through the engine's handler table ([op] = 0 keeps the closure form,
    stored in [a]).  Fired and discarded events return to a per-heap
    free list ({!release}) and are recycled by {!alloc}, so steady-state
    scheduling allocates zero minor words.

    Cancellation is lazy — [cancel] only marks the event — but the heap
    counts its dead entries and compacts itself once they pass a
    threshold, so workloads that cancel and re-arm timers at a high rate
    (heartbeat churn over long holds) cannot grow the queue without
    bound.

    The heap is also the overflow store and final arbiter for {!Wheel}:
    near-deadline events park in wheel slots and are pushed here (with
    their original [at]/[seq]) just before they come due, so firing
    order is decided by this heap alone whether or not an event took the
    wheel shortcut.  Not thread-safe: each simulation runs
    single-domain. *)

type stats = {
  mutable dead : int;  (** cancelled-but-still-queued entries, right now *)
  mutable cancelled : int;  (** lifetime count of {!cancel} marks *)
  mutable compactions : int;  (** lifetime count of lazy-cancel sweeps *)
  mutable high_water : int;  (** deepest the heap has ever been *)
  mutable cancelled_in_place : int;
      (** cancels that hit a wheel slot — the event was dropped without
          ever being pushed into the heap *)
  mutable cascades : int;  (** wheel slot redistributions between levels *)
  mutable wheel_occupancy : int;  (** live events parked in wheel slots *)
  mutable wheel_high_water : int;  (** peak live wheel occupancy *)
}
(** Self-instrumentation counters, maintained unconditionally — they are
    single field mutations on paths that already mutate the structure,
    too cheap to be worth gating.  Shared between a heap and the wheel
    layered on top of it, because {!cancel} takes only the event and
    must be able to account for both residencies.  Read them via
    {!stats}. *)

type event = {
  mutable at : Time.t;
  mutable seq : int;  (** tie-break: strictly increasing scheduling order *)
  mutable op : int;
      (** handler-table index; 0 = [a] holds a [unit -> unit] closure *)
  mutable a : Obj.t;  (** first operand word (uniform representation) *)
  mutable b : Obj.t;  (** second operand word *)
  mutable arg : int;  (** immediate operand (packed ints, cause IDs) *)
  mutable cancelled : bool;
  mutable queued : bool;  (** currently stored in the heap *)
  mutable w_next : event;
      (** intrusive chain: wheel slot when parked, free list when
          recycled; self-linked when in neither *)
  stats : stats;  (** owning heap's counters *)
}
(** The record is exposed (not private) so {!Wheel} can link events into
    its slots and {!Engine} can dispatch without an indirection layer;
    outside [lib/des], treat it as an abstract handle and only construct
    via {!make}/{!schedule}. *)

type t

val create : unit -> t

val never : event
(** A shared, permanently-cancelled event: a null object for handle
    fields that would otherwise be [event option].  {!cancel} and
    {!is_pending} treat it as already fired; it is never stored. *)

val alloc : t -> at:Time.t -> seq:int -> event
(** Pop a recycled event from the free list (or allocate a fresh one),
    live and unqueued.  The caller must set [op]/[a]/[b]/[arg] before
    the event fires. *)

val release : t -> event -> unit
(** Return an event to the free list for reuse.  The caller must have
    removed it from the heap and any wheel slot; the engine releases at
    execution, the heap at tombstone discard, the wheel at slot visit.
    Releasing {!never} is a no-op. *)

val make : t -> at:Time.t -> seq:int -> (unit -> unit) -> event
(** {!alloc} an event carrying a closure payload ([op] = 0) {e without}
    queueing it — the caller either parks it in a wheel slot or hands it
    to {!push_event}. *)

val push_event : t -> event -> unit
(** Push an event obtained from {!make}/{!alloc} (or one the wheel is
    flushing back).  May trigger compaction first. *)

val schedule : t -> at:Time.t -> seq:int -> (unit -> unit) -> event
(** [make] + [push_event]. *)

val run_closure : event -> unit
(** Execute a closure-form event's payload ([op] = 0) — for direct heap
    users (tests, microbenchmarks) that drive the queue themselves.
    Raises [Invalid_argument] on an opcode event: those belong to an
    engine's handler table. *)

val cancel : event -> unit
(** Mark the event dead; it will be skipped and eventually reclaimed.
    Wheel-resident events are accounted as cancelled-in-place (their
    slot drops them on its next visit).  Cancelling a fired or
    already-cancelled event is a no-op. *)

val is_pending : event -> bool
(** [not cancelled] — mirrors the seed engine's handle semantics. *)

val pop_live : t -> event option
(** Remove and return the earliest non-cancelled event, discarding any
    cancelled entries encountered on the way.  The returned event is
    {e not} released — callers outside the engine own it (and may simply
    drop it; unreleased events are garbage-collected normally). *)

val peek_live : t -> event option
(** Earliest non-cancelled event without removing it; discards cancelled
    entries from the top as a side effect. *)

val top_live : t -> event
(** Allocation-free {!peek_live}: returns {!never} when empty.  The
    engine's hot loop uses this to avoid boxing an option per event. *)

val drop_top : t -> unit
(** Remove the top event.  Only call immediately after {!top_live}
    returned it (the top must be live). *)

val length : t -> int
(** Entries currently stored, including cancelled ones. *)

val live_length : t -> int
(** Entries that are still scheduled to fire. *)

val stats : t -> stats
(** The heap's live counter record (not a copy). *)

val compact_min_dead : int
(** Compaction triggers when more than [compact_min_dead] entries are
    dead AND the dead outnumber the live (amortized O(1) per push). *)
