(** The forensics ring: a bounded buffer of structured transition
    records with causal provenance.

    One ring serves a whole cluster (like the probe trace): every node
    appends its transitions — timer fires, campaigns, votes, role and
    tuner changes, injected faults — each stamped with the {!Cause.t}
    that triggered it and, where known, that cause's parent.  The ring
    is the raw material for the [explain] CLI and the flight-recorder
    dump attached to invariant violations.

    Contract mirrors {!Metrics}:

    - {b Dead when disabled.}  {!noop} (and [create ~enabled:false])
      never mutates shared state; callers gate their instrumentation on
      {!enabled} so the disabled path stays allocation-free.
    - {b Deterministic.}  Records are appended in DES event order and
      cause sequence numbers are drawn from a per-ring counter.  A ring
      belongs to one cluster, which runs inside one campaign shard, so
      for a fixed (seed, shard plan) its rendered records are
      byte-identical at [--jobs 1] and [--jobs N]. *)

(** One structured transition.  Node ids are plain ints and roles /
    reasons are strings: this library sits below [lib/raft] and cannot
    name its types. *)
type event =
  | Timeout of {
      randomized : Des.Time.span;  (** the drawn randomizedTimeout *)
      et : Des.Time.span;
          (** base Et in force once the expiry was processed.  A tuned
              follower falls back to defaults on suspicion, so after a
              real leader loss this reads the post-reset default;
              [randomized] preserves the tuned draw that actually
              expired. *)
      h : Des.Time.span;  (** heartbeat interval in force *)
      k : int;  (** required heartbeats K *)
    }
  | Campaign of { pre : bool }
  | Role of { role : string }
  | Vote of { from : int; granted : bool; pre : bool }
  | Tuner of {
      rtt_ms : float;
      loss : float;
      et : Des.Time.span;
      h : Des.Time.span;
      k : int;
      reason : string;
    }
  | Tuner_reset
  | Prevote_abort
  | Paused
  | Resumed
  | Transfer of { target : int }
  | Config of { change : string; committed : bool }

type record = {
  at : Des.Time.t;
  node : int;
  term : int;
  cause : Cause.t;  (** the causal token this transition belongs to *)
  parent : Cause.t;  (** what triggered that cause ({!Cause.none} if unknown) *)
  ev : event;
}

type t

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** A fresh ring retaining the last [capacity] (default 8192) records;
    older records are evicted in insertion order (count them with
    {!dropped}).  Raises [Invalid_argument] if [capacity <= 0]. *)

val noop : t
(** A shared disabled ring: {!record} and {!new_cause} are no-ops
    touching no shared state, so it is safe across campaign domains. *)

val enabled : t -> bool

val new_cause : t -> kind:Cause.kind -> node:int -> term:int -> Cause.t
(** Allocate a fresh cause (next ring-local sequence number).  Returns
    {!Cause.none} on a disabled ring. *)

val record :
  t ->
  at:Des.Time.t ->
  node:int ->
  term:int ->
  cause:Cause.t ->
  parent:Cause.t ->
  event ->
  unit
(** Append one record (evicting the oldest beyond capacity).  No-op on a
    disabled ring. *)

val length : t -> int
val dropped : t -> int

val records : t -> record list
(** Retained records, oldest first. *)

val render_record : record -> string
(** One deterministic line:
    ["<time> n<id> t<term> <cause><-<parent> <event>"]. *)

val tail : t -> int -> string list
(** The last [n] retained records, rendered, oldest first (the flight
    recorder's window). *)
