(** Observable protocol events emitted into the shared trace.

    The cluster monitor reconstructs the paper's measurements from these:
    detection time (timer expiries after a failure), OTS time (leadership
    establishment), split votes (repeated campaigns per term), and
    Dynatune's fallback behaviour (tuner resets, pre-vote aborts). *)

type decision_reason =
  | Warmed  (** first tuned values after leaving Step 0 (warming) *)
  | Retuned  (** a subsequent measurement window changed [Et]/[H]/[k] *)
  | Reconfigured
      (** first tuned values after a committed membership change forced
          the tuner back into warm-up (stale link measurements) *)

type t =
  | Role_change of { id : Netsim.Node_id.t; role : Types.role; term : Types.term }
  | Timeout_expired of {
      id : Netsim.Node_id.t;
      term : Types.term;
      randomized : Des.Time.span;  (** the randomizedTimeout that expired *)
      et : Des.Time.span;
          (** the base [Et] the expired timer was drawn from: the tuned
              value, sampled before the fallback to defaults *)
      h : Des.Time.span;
          (** the heartbeat interval in force (the configured one while
              warming or untuned) *)
      k : int;  (** required heartbeats [K]; [0] when no tuner exists *)
    }
      (** {!add_to_buffer} omits [et]/[h]/[k]: trace digests do not
          depend on them. *)
  | Pre_vote_aborted of { id : Netsim.Node_id.t; term : Types.term }
      (** leader contact arrived during a pre-campaign *)
  | Tuner_reset of { id : Netsim.Node_id.t }
  | Tuner_decision of {
      id : Netsim.Node_id.t;
      rtt_ms : float;  (** mean heartbeat RTT the tuner measured *)
      rtt_std_ms : float;
      loss : float;  (** estimated heartbeat loss rate, [0, 1] *)
      k : int;  (** required consecutive misses before suspicion *)
      et : Des.Time.span;  (** chosen election timeout *)
      h : Des.Time.span;  (** chosen heartbeat interval *)
      reason : decision_reason;
    }
      (** A follower's tuner adopted new parameters.  Emitted only by
          instrumented servers ([Server.create ~instrument]) when
          [(et, h, k)] changes; [et] is in nanoseconds, so nearly every
          RTT sample moves it: two decisions per three heartbeats. *)
  | Election_started of { id : Netsim.Node_id.t; term : Types.term }
      (** a real (post-pre-vote) campaign began *)
  | Node_paused of { id : Netsim.Node_id.t }
      (** fault injection froze the node (container sleep) *)
  | Node_resumed of { id : Netsim.Node_id.t }
  | Config_change of {
      id : Netsim.Node_id.t;
      term : Types.term;
      index : Types.index;
      change : Log.change;
      committed : bool;
          (** [false] when the leader appends the entry (the change is
              already effective), [true] on every node whose commit index
              passes it *)
    }
  | Transfer_started of {
      id : Netsim.Node_id.t;
      term : Types.term;
      target : Netsim.Node_id.t;
    }  (** the leader began a leadership transfer ([TimeoutNow] pending) *)
  | Transfer_aborted of { id : Netsim.Node_id.t; term : Types.term }
      (** the transfer window elapsed without the target taking over *)

val reason_name : decision_reason -> string
(** ["warmed"] / ["retuned"] / ["reconfigured"]. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Append the event's one-line rendering.  Trace digests hash exactly
    these bytes, so the text is part of every pinned digest. *)

val node : t -> Netsim.Node_id.t
