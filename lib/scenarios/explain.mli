(** The [explain] analysis: reconstruct, from the forensics ring, the
    causal chain behind every leadership change.

    Each election is traced end to end — the tuner decision that set the
    parameters in force ({e measurement → estimator → tuner}), the
    election-timer arm and expiry those parameters produced ({e timeout}),
    the campaign, the votes that crossed the network carrying the
    election's cause, and the resulting role change — and classified:

    - {e justified}: the previous leader really was down (a fault record
      precedes the timeout with no recovery in between), or there was no
      leader to begin with;
    - {e spurious}: a live leader was deposed — the timeout fired on a
      healthy cluster, the disruption Dynatune's [K]-of-[h] suspicion
      threshold exists to prevent.

    {!analyze} is pure (a fold over records), so tests can feed it
    synthetic rings; {!run} produces a real ring from a pinned
    deterministic geo-WAN failover scenario. *)

type election = {
  term : int;  (** the term the winner established *)
  winner : int;  (** node id that became leader *)
  won_at : Des.Time.t;
  cause : Telemetry.Cause.t;
      (** the cause the winning role change belongs to — normally the
          election-timer expiry that started the campaign, propagated to
          the voters and back on the deciding vote *)
  justified : bool;
  prior_leader : int option;
      (** the leader deposed (or succeeded), [None] for the first
          election *)
  provenance : Raft.Forensics.record option;
      (** the winner's last tuner decision before the win: where the
          [Et]/[h]/[K] in force came from ([None] = defaults) *)
  chain : Raft.Forensics.record list;
      (** every record sharing [cause], oldest first: timeout, campaign,
          votes, role changes *)
}

val analyze : Raft.Forensics.record list -> election list
(** Walk a ring dump (oldest first, as {!Raft.Forensics.records}
    returns it) and reconstruct one {!election} per record of a node
    becoming leader. *)

val run :
  ?seed:int64 ->
  ?failures:int ->
  ?config:Raft.Config.t ->
  unit ->
  Raft.Forensics.record list
(** The pinned scenario the CLI replays: a 5-server cluster on the
    Fig 8 geo WAN (default [config]: Dynatune, [seed = 23], [failures =
    3] leader kills with recovery), forensics ring and telemetry
    enabled, no CPU cost model (so causal context is never deferred).
    Returns the retained records. *)

val print : Format.formatter -> election list -> unit
(** Deterministic rendering: a summary line (justified vs spurious
    counts), then one block per election with its provenance and causal
    chain. *)
