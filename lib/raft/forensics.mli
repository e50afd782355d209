(** The forensics ring: a bounded buffer of causally stamped probes.

    One ring serves a whole cluster (like the probe trace).  {!Node}
    records every {!Probe.t} it emits, stamped with the
    {!Telemetry.Cause.t} of the event being processed and, for a timeout
    or campaign, the cause that armed the election timer.  Vote replies
    are recorded at delivery.  The ring is the raw material for the
    [explain] CLI and the flight-recorder dump attached to invariant
    violations.

    - {b Dead when disabled.}  [create ~enabled:false] never mutates;
      callers gate their instrumentation on {!enabled} so the disabled
      path stays allocation-free.
    - {b Deterministic.}  Records are appended in DES event order and
      cause sequence numbers are drawn from a per-ring counter.  A ring
      belongs to one cluster, which runs inside one campaign shard, so
      for a fixed (seed, shard plan) its rendered records are
      byte-identical at [--jobs 1] and [--jobs N]. *)

type ev =
  | Probe of Probe.t  (** a transition the node also emitted to its trace *)
  | Vote of { from : Netsim.Node_id.t; granted : bool; pre : bool }
      (** a (pre-)vote reply delivered to the candidate *)

type record = {
  at : Des.Time.t;
  node : Netsim.Node_id.t;  (** the node that recorded it *)
  term : Types.term;
      (** the probe's own term where it carries one, else the node's
          current term *)
  cause : Telemetry.Cause.t;  (** the causal token this transition belongs to *)
  parent : Telemetry.Cause.t;
      (** what triggered that cause ({!Telemetry.Cause.none} if unknown) *)
  ev : ev;
}

type t

val capacity : int
(** Records retained per ring (8192); older ones are evicted in
    insertion order and counted by {!dropped}. *)

val create : ?enabled:bool -> unit -> t
(** A fresh ring, enabled unless [enabled] is [false]. *)

val enabled : t -> bool

val new_cause :
  t -> kind:Telemetry.Cause.kind -> node:int -> term:int -> Telemetry.Cause.t
(** Allocate a fresh cause (next ring-local sequence number).  Returns
    {!Telemetry.Cause.none} on a disabled ring. *)

val record :
  t ->
  at:Des.Time.t ->
  node:Netsim.Node_id.t ->
  term:Types.term ->
  cause:Telemetry.Cause.t ->
  parent:Telemetry.Cause.t ->
  ev ->
  unit
(** Append one record (evicting the oldest beyond {!capacity}).  No-op
    on a disabled ring. *)

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
