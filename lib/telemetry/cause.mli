(** Compact causal identifiers for the forensics layer.

    A cause names the root event a chain of state transitions descends
    from: a timer fire, a client request, an injected fault.  It packs
    into a single immediate integer (like {!Netsim.Fabric}'s directed
    pair keys) so it can ride through hot paths — passed to
    {!Netsim.Fabric.send}, stored in mutable fields — without
    allocating.

    Layout (63 usable bits, zero is reserved for {!none}):

    {v
      bits 59-61  kind        (3 bits, 1-based so a valid cause is never 0)
      bits 47-58  origin node (12 bits, truncated)
      bits 32-46  term        (15 bits, truncated)
      bits  0-31  sequence    (32 bits, the minting ring's counter)
    v}

    Node and term are identification aids, not authoritative values: a
    cluster larger than 4095 nodes or a term beyond 32767 wraps within
    its field.  The sequence number disambiguates: causes are minted by
    a cluster's forensics ring ([Raft.Forensics.new_cause]) from one
    counter, so within a cluster's run each is unique.  This library
    sits below [lib/raft], so the ring itself lives there. *)

type t = int
(** Causes travel through layers (netsim) that cannot depend on this
    library, so the representation is deliberately transparent: an
    opaque-by-convention immediate int. *)

type kind =
  | Election_timer  (** an election timer fired *)
  | Heartbeat_timer  (** a heartbeat / broadcast timer fired *)
  | Client  (** a client submitted a command or read *)
  | Fault  (** the harness injected a fault (pause/crash/restart) *)
  | Internal  (** everything else (startup, transfers) *)

val none : t
(** The absent cause; renders as ["-"]. *)

val is_none : t -> bool

val make : kind:kind -> node:int -> term:int -> seq:int -> t
(** Pack a cause.  [node] and [term] are truncated to their fields;
    [seq] to 32 bits. *)

val kind : t -> kind
(** The packed kind.  Meaningless on {!none}. *)

val node : t -> int
val term : t -> int
val seq : t -> int

val kind_name : kind -> string
(** Two-letter tag: ["et"], ["hb"], ["cl"], ["ft"], ["in"]. *)

val to_string : t -> string
(** ["et:n2/t7#1234"], or ["-"] for {!none}.  Deterministic — digests
    and golden files rely on it. *)
