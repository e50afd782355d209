(** Fault injection: the paper's leader-failure campaigns.

    The fault model is the experiment's container sleep: a paused node's
    timers stop acting and all traffic to it is dropped; on recovery it
    rejoins with its state intact (and, if it still believes it is the
    leader, it is deposed by higher-term responses — exactly what a woken
    container experiences). *)

val pause : Cluster.t -> Netsim.Node_id.t -> unit
val recover : Cluster.t -> Netsim.Node_id.t -> unit

val crash_and_restart :
  Cluster.t -> Netsim.Node_id.t -> downtime:Des.Time.span -> unit
(** Crash-recovery fault (Section III-A's second failure model): the node
    loses all volatile state and its KV replica, stays down for
    [downtime], then restarts from its persisted term/vote/log and
    rebuilds the state machine by replaying committed entries. *)

val kill_leader : Cluster.t -> (Netsim.Node_id.t * Des.Time.t) option
(** Pause the current leader; returns its id and the failure instant.
    [None] when no leader exists. *)

type failure_outcome = {
  failed : Netsim.Node_id.t;
  failed_at : Des.Time.t;
  detection_ms : float;
      (** failure → first follower election-timer expiry *)
  majority_detection_ms : float;
      (** failure → (f+1)-th distinct follower expiry (the pre-vote
          quorum point the paper's Fig 6 reasoning uses) *)
  randomized_at_detection_ms : float;
      (** the randomizedTimeout that expired first *)
  ots_ms : float;  (** failure → new leader established *)
  new_leader : Netsim.Node_id.t;
  election_rounds : int;
      (** real campaigns started before one won (>1 ⟹ split votes) *)
}

val fail_and_measure : Cluster.t -> unit -> (failure_outcome, string) result
(** One iteration of the Section IV-B1 campaign: kill the current leader,
    run until a new leader is established (up to 60 s, by
    {!Des.Engine.await} in 1 ms slices), measure, then recover the old
    leader and let it rejoin.
    Every field comes from the {!Monitor.observe} window around that
    wait, opened right after the kill with the failed leader paused:
    the failover ends where the window's first leaderless interval
    ends, and only the expiries and campaigns stamped up to that
    instant count.  Other trace observers are unaffected. *)

(** {1 Fault plans}

    A chaos run as data: the actions {!run} applies to a cluster, in
    order.  Nodes are plain ints, so a printed plan is a literal. *)

type action =
  | Run of Des.Time.span
  | Pause of int  (** as {!pause} *)
  | Resume of int  (** as {!recover} *)
  | Crash of int  (** volatile state lost; down until [Restart] *)
  | Restart of int
      (** reset the KV replica, recover from the persisted state *)
  | Partition of int list list
  | Heal
  | Add_server
  | Remove_server of int
      (** once the removal commits (awaited up to 20 s) and the leader's
          configuration drops the node, {!Cluster.retire} it *)
  | Write of { seq : int; key : string; value : string }  (** one [Put] *)

type plan = action list

val pp_plan : Format.formatter -> plan -> unit
(** The OCaml list literal of the plan, one action per line. *)

type writer = seq:int -> key:string -> value:string -> unit

val submit : Cluster.t -> client_id:int -> acked:(string -> unit) -> writer
(** Writes through {!Cluster.submit_target}; [acked] gets each committed
    key. *)

val run : Cluster.t -> write:writer -> plan -> plan
(** Apply the plan, [Write]s through [write]; returns the actions
    applied.  An action the cluster's state does not admit is skipped:
    [Pause] or [Crash] of a paused node, [Resume] or [Restart] of a
    running one, any action naming a non-member.  A {!Check.Violation}
    escapes. *)

val verify : Cluster.t -> acked:string list -> (unit, string) result
(** The end-of-run verdict: {!Cluster.check_now} (raising
    {!Check.Violation}), the checker ran, every replica holds the same
    store, and each [acked] key is in it. *)

val fingerprint : Cluster.t list -> string
(** The trace digest (several clusters' combined in order, as the
    multiraft group manager's digest is), each checker's pass count
    and a digest of every replica's store: what a pinned run records
    and its replay must reproduce. *)
