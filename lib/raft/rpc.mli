(** Raft wire messages, including the Dynatune heartbeat metadata.

    Heartbeats are a distinct lightweight message (as in etcd's
    [MsgHeartbeat]) rather than empty AppendEntries: they carry the leader
    commit index plus the Dynatune measurement metadata, and under
    Dynatune they travel over the datagram transport while everything
    else uses the reliable one.

    The four steady-state payloads (appends and heartbeats, both
    directions) have mutable fields so {!Pool} can recycle the records.
    Their [*_gen] field is the pool generation stamp: [0] marks a
    hand-built record that the pool will never adopt; pool allocations
    carry a positive, strictly increasing stamp.  Code outside the pool
    treats the fields as immutable — construct with the pool (or a
    literal at gen 0), never mutate in place. *)

type vote_request = {
  term : Types.term;
      (** For a pre-vote this is the term the candidate {e would} start
          (current + 1); the candidate's own term is not bumped. *)
  last_log_index : Types.index;
  last_log_term : Types.term;
  pre_vote : bool;
  force : bool;
      (** Leadership-transfer campaign: voters skip the stickiness lease
          (etcd's campaignTransfer). *)
}

type vote_response = {
  term : Types.term;  (** echo of the request term on grants *)
  granted : bool;
  pre_vote : bool;
}

type append_request = {
  mutable term : Types.term;
  mutable prev_index : Types.index;
  mutable prev_term : Types.term;
  mutable entries : Log.entry array;
      (** a zero-copy-sliced window of the leader's log; receivers must
          not mutate it *)
  mutable commit : Types.index;
  mutable ar_gen : int;  (** pool generation; 0 = never pooled *)
}

type append_response = {
  mutable term : Types.term;
  mutable success : bool;
  mutable match_index : Types.index;  (** meaningful when [success] *)
  mutable conflict_hint : Types.index;  (** meaningful when not [success] *)
  mutable req_prev : Types.index;
      (** The request's [prev_index], echoed back.  With pipelined
          appends the leader uses it to tell a conflict for the probe it
          has in flight from a stale nack answering a send it already
          rewound past (which must not trigger another resend). *)
  mutable ap_gen : int;  (** pool generation; 0 = never pooled *)
}

type install_snapshot = {
  term : Types.term;
  last_index : Types.index;  (** the snapshot covers entries up to here *)
  last_term : Types.term;
  voters : Netsim.Node_id.t array;
      (** the voting membership as of [last_index] — config entries at or
          below the boundary are folded into the snapshot, so the wire
          must carry the resulting configuration (flat arrays: receivers
          only ever iterate them) *)
  learners : Netsim.Node_id.t array;
  data : string;  (** opaque serialized state-machine contents *)
}

type install_snapshot_response = {
  term : Types.term;
  match_index : Types.index;  (** the follower now holds state up to here *)
}

type message =
  | Vote_request of vote_request
  | Vote_response of vote_response
  | Append_request of append_request
  | Append_response of append_response
  | Heartbeat of {
      mutable term : Types.term;
      mutable commit : Types.index;
      mutable hb_id : int;  (** sequential per-path id for loss measurement *)
      mutable sent_at : Des.Time.t;
          (** leader local send time, echoed back *)
      mutable measured_rtt : Des.Time.span option;
          (** the most recent RTT the leader measured on this path *)
      mutable hb_gen : int;  (** pool generation; 0 = never pooled *)
    }
  | Heartbeat_response of {
      mutable term : Types.term;
      mutable hb_id : int;
      mutable echo_sent_at : Des.Time.t;
          (** the leader timestamp, verbatim *)
      mutable tuned_h : Des.Time.span option;
          (** the follower's piggybacked heartbeat interval (Step 3) *)
      mutable hr_gen : int;  (** pool generation; 0 = never pooled *)
    }
      (** Heartbeat and its echo use inline records: the whole message is
          one flat block (no nested meta/echo records), which matters
          because these two dominate message volume in steady state. *)
  | Install_snapshot of install_snapshot
  | Install_snapshot_response of install_snapshot_response
  | Timeout_now of { term : Types.term }
      (** leadership transfer: the leader orders the target to campaign
          immediately (skipping pre-vote and leases) *)

val pp : Format.formatter -> message -> unit

val kind_name : message -> string
(** Short tag for counters/cost accounting: ["vote_req"], ["hb"], ... *)

(** Free lists for the hot payloads.

    A pool is single-domain (one per cluster; parallel campaign runs
    each build their own).  The lifecycle contract: {!Pool.release} may
    be called exactly once per delivered message, after the receiving
    server is completely done with it — in this codebase that is the end
    of the [Server.handle] call that consumed it.  Messages that are
    lost, dropped at a paused node, or hand-built (gen 0) are simply
    GC'd; double release of a pooled record is a correctness bug (the
    record would alias two future messages).  Duplicated datagrams must
    deliver {!Pool.clone_for_dup} copies on the second leg (the fabric's
    dup hook): the primary delivery's release must not recycle a record
    the duplicate still references. *)
module Pool : sig
  type t

  val create : unit -> t

  val heartbeat :
    t ->
    term:Types.term ->
    commit:Types.index ->
    hb_id:int ->
    sent_at:Des.Time.t ->
    measured_rtt:Des.Time.span option ->
    message

  val heartbeat_response :
    t ->
    term:Types.term ->
    hb_id:int ->
    echo_sent_at:Des.Time.t ->
    tuned_h:Des.Time.span option ->
    message

  val append_request :
    t ->
    term:Types.term ->
    prev_index:Types.index ->
    prev_term:Types.term ->
    entries:Log.entry array ->
    commit:Types.index ->
    message

  val append_response :
    t ->
    term:Types.term ->
    success:bool ->
    match_index:Types.index ->
    conflict_hint:Types.index ->
    req_prev:Types.index ->
    message

  val release : t -> message -> unit
  (** Return a delivered message's record to the free list.  No-op for
      unpooled variants and gen-0 records, so it is always safe to call
      on whatever arrived — but never twice on the same delivery. *)

  val generation : message -> int
  (** Current pool generation of a poolable message ([-1] for variants
      the pool does not manage).  A record observed at generation [g]
      has been recycled iff its generation later differs from [g]. *)

  val clone_for_dup : message -> message
  (** Value-identical unpooled copy (gen 0) for the second delivery of a
      duplicated datagram; identity on unpooled variants. *)

  val sizes : t -> int * int * int * int
  (** Free-list depths (hb, hb_resp, append_req, append_resp), for the
      pool-safety tests. *)
end
