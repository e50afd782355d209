(** Online correctness analyses for the simulated Raft cluster.

    Three tools in one module:

    - an {e invariant checker} that, hooked after every delivered DES
      event, asserts the five machine-checkable safety properties of the
      Raft paper (Election Safety, Leader Append-Only, Log Matching,
      Leader Completeness, State Machine Safety) plus monotonic
      [currentTerm] / [commitIndex], single-vote-per-term, pre-vote
      non-disruption, and the reconfiguration invariants (at most one
      pending config change, valid single-server steps with overlapping
      quorums between consecutive configs, no electoral power for
      learners), across all servers' observable states;
    - a {e trace digest} ({!Digest}): an order-sensitive FNV-1a hash of
      a cluster's probe trace, used as a determinism sanitizer for the
      domain-sharded campaign runner — identical [(seed, shard plan)]
      must produce bit-identical digests whatever the worker count;
    - structured {!Violation} reporting carrying the invariant name, the
      offending node and term, and the context the installed dump hook
      returns ({!set_flight_recorder}: a checked cluster's forensics ring
      tail) so failures are diagnosable without re-running.

    The checker never mutates the cluster: it reads server state through
    the {!node_view} closures, so a deliberately broken state (or a toy
    node fabricated by a test) is checkable without a live cluster. *)

(** {1 Trace digests} *)

module Digest : sig
  type t
  (** A mutable FNV-1a (64-bit) accumulator. *)

  val create : unit -> t

  val feed_string : t -> string -> unit

  val feed_buffer : t -> Buffer.t -> unit
  (** Same as [feed_string t (Buffer.contents b)], without a fresh
      string: the bytes are copied into a scratch the digest keeps, so
      a feed allocates only when the buffer outgrows it. *)

  val feed_int : t -> int -> unit
  (** Folded in as 8 little-endian bytes. *)

  val feed_int64 : t -> int64 -> unit
  val value : t -> int64

  val of_string : string -> int64

  val combine : int64 list -> int64
  (** Order-sensitive fold of sub-digests (e.g. one per campaign shard,
      in shard order) into one digest. *)
end

(** {1 Checking modes} *)

type mode =
  | Off  (** no checker is built: no per-event overhead *)
  | Always
      (** cheap checks after every delivered event, deep (pairwise log
          matching) checks every 512th.  Transition-sensitive checks
          (pre-vote non-disruption) need every intermediate state, which
          this cadence observes. *)

(** {1 Node views} *)

type node_view = {
  id : Netsim.Node_id.t;
  alive : unit -> bool;  (** not paused / crashed *)
  incarnation : unit -> int;
      (** bumped on crash-recovery; volatile baselines reset with it *)
  role : unit -> Raft.Types.role;
  term : unit -> Raft.Types.term;
  commit_index : unit -> Raft.Types.index;
  voted_for : unit -> Netsim.Node_id.t option;
  last_index : unit -> Raft.Types.index;
  snapshot_index : unit -> Raft.Types.index;
  term_at : Raft.Types.index -> Raft.Types.term option;
  entry_at : Raft.Types.index -> Raft.Log.entry option;
  voters : unit -> Netsim.Node_id.t list;
      (** voting members of the server's live configuration *)
  learners : unit -> Netsim.Node_id.t list;
  votes : unit -> Netsim.Node_id.t list;
      (** votes gathered in the current campaign (empty outside one) *)
}
(** What the checker can observe of one server, as closures so that the
    state is re-read at every check (and so tests can fabricate broken
    servers without a cluster). *)

val view_of_node : Raft.Node.t -> node_view
(** The view of a live simulated node; closures follow the node through
    crash-recovery (they always read the current server). *)

(** {1 Violations} *)

type violation = {
  invariant : string;
      (** e.g. ["election-safety"], ["log-matching"]; see DESIGN.md for
          the full list *)
  node : Netsim.Node_id.t option;  (** offending node, when one exists *)
  term : Raft.Types.term;  (** term in which the violation was observed *)
  detail : string;
  flight : string list;
      (** the flight-recorder dump ({!set_flight_recorder}) captured at
          the instant of the violation: rendered forensics records and
          recorder window, empty when no hook is installed *)
}

exception Violation of violation

val pp_violation : Format.formatter -> violation -> unit

(** {1 The checker} *)

type t

val create : nodes:node_view list -> unit -> t
(** A checker over an initial set of servers ({!add_view} grows it).
    The first view's [voters] at creation time seed the configuration
    history replayed by the config invariants.  A checker always checks:
    under {!Off} a cluster builds none. *)

val add_view : t -> node_view -> unit
(** Track one more server (a node added to the cluster at runtime).
    Subsequent checks cover it like any other. *)

val set_flight_recorder : t -> (unit -> string list) -> unit
(** Install the flight-recorder dump: called (lazily, only when a
    violation is actually raised) to capture the forensics ring tail and
    the recorder window into {!violation.flight}.  Defaults to
    [fun () -> []]. *)

val observe_trace : t -> Raft.Probe.t Des.Mtrace.t -> unit
(** Subscribe to a cluster trace: role-change probes feed the historical
    election-safety registry, which sees {e every} leadership transition,
    including those between two checked events. *)

val step : t -> unit
(** The per-event hook (install via {!Des.Engine.set_post_hook}):
    counts the event, runs the cheap checks and, on every 512th event,
    the deep ones.  Raises {!Violation} on the first broken
    invariant. *)

val check_now : t -> unit
(** Run the full battery (cheap + deep) immediately, whatever the event
    count — call at the end of a scenario for a final verdict.  Raises
    {!Violation}. *)

val events_seen : t -> int
(** Events observed through {!step}. *)

val checks_run : t -> int
(** Cheap check passes actually executed. *)
