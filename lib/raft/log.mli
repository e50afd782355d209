(** The replicated log, with snapshot-based compaction.

    Indices are 1-based.  A snapshot boundary [(snapshot_index,
    snapshot_term)] replaces the committed prefix once the log is
    compacted: entries at or below the boundary are gone (their effect
    lives in the state-machine snapshot), and the boundary acts as the
    sentinel for consistency checks.  A fresh log has boundary [(0, 0)].

    The log enforces the Raft log-matching property at the append
    boundary: [try_append] verifies the predecessor entry and truncates
    conflicting suffixes before appending. *)

type change =
  | Add_learner of Netsim.Node_id.t
      (** join as a non-voting learner that receives replication only *)
  | Promote of Netsim.Node_id.t  (** grant a caught-up learner its vote *)
  | Remove of Netsim.Node_id.t  (** drop a voter or learner entirely *)
[@@deriving show, eq] [@@protocol]
(** A single-server membership change (Raft dissertation §4): each entry
    alters the configuration by exactly one server, which keeps the
    quorums of consecutive configurations overlapping.  [[@@protocol]]:
    matches over these constructors may not use a catch-all arm
    (bin/analyze.exe, protocol-wildcard). *)

type command =
  | Noop  (** the empty entry a new leader commits to establish its term *)
  | Data of { payload : string; client_id : int; seq : int }
  | Config of change
      (** a membership change, effective as soon as it is {e appended} *)
[@@deriving show, eq] [@@protocol]

type entry = { term : Types.term; index : Types.index; command : command }
[@@deriving show, eq]

type t

val create : unit -> t

val length : t -> int
(** Number of entries currently stored (after the snapshot boundary). *)

val mutations : t -> int
(** Counter bumped whenever stored entries are retroactively invalidated
    (suffix truncation, snapshot install).  Configuration state derived
    from a log scan is stale once this changes. *)

val last_index : t -> Types.index
val last_term : t -> Types.term

val snapshot_index : t -> Types.index
(** The compaction boundary; 0 when never compacted. *)

val snapshot_term : t -> Types.term
val first_available : t -> Types.index
(** Lowest index still present as an entry ([snapshot_index + 1]). *)

val term_at : t -> Types.index -> Types.term option
(** [Some] for the boundary and every stored entry; [None] beyond the
    last index {e or below the boundary} (compacted away). *)

val entry_at : t -> Types.index -> entry option

val append_new : t -> term:Types.term -> command -> entry
(** Leader-side append of a fresh entry at [last_index + 1]. *)

val try_append :
  t ->
  prev_index:Types.index ->
  prev_term:Types.term ->
  entries:entry array ->
  [ `Ok of Types.index  (** new last index covered by this append *)
  | `Conflict of Types.index  (** hint: retry from at most this index *) ]
(** Follower-side append with the AppendEntries consistency check.
    On success, conflicting suffixes are truncated and missing entries
    appended (duplicates of already-matching entries are ignored;
    entries below the snapshot boundary are treated as matching — they
    were committed before being compacted). *)

val compact : t -> upto:Types.index -> unit
(** Move the snapshot boundary to [upto], discarding the entries at or
    below it.  Only call for indices known committed and applied.
    Raises [Invalid_argument] if [upto > last_index]; indices at or
    below the current boundary are a no-op. *)

val install_snapshot : t -> index:Types.index -> term:Types.term -> unit
(** Replace the whole log with a received snapshot boundary (the
    follower-side effect of InstallSnapshot): all entries are dropped
    and the boundary set to [(index, term)]. *)

val slice : t -> from:Types.index -> max:int -> entry array
(** Up to [max] entries starting at [from] (inclusive), as a fresh array
    copied straight out of contiguous storage (a single [Array.sub]; the
    empty slice allocates nothing).  Entries below [first_available]
    cannot be served and are silently skipped — use {!snapshot_index} to
    detect that a snapshot is needed instead. *)

val up_to_date : t -> last_index:Types.index -> last_term:Types.term -> bool
(** Raft's voting rule: is a candidate log described by
    [(last_index, last_term)] at least as complete as ours? *)
