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
    The measurements come from a scoped observer ({!Des.Mtrace.during})
    on the cluster trace that lives from the kill until the new leader
    is found; other observers are unaffected. *)
