(* etcd-style two-state replication flow: a follower whose log position
   is unknown is probed one append at a time; once an append succeeds the
   leader switches to pipelined replication, streaming up to the
   configured window of optimistic batches before the first ack.  A
   conflict (or a silent stall detected via the response clock) rewinds
   [next], forgets the in-flight window, and drops back to probing —
   responses to sends from before the rewind are recognized by their
   echoed request position and discarded instead of re-triggering
   resends. *)

type state = Probing | Replicating

type t = {
  mutable next : Types.index;
  mutable matched : Types.index;
  mutable state : state;
  mutable inflight : int;
      (* entry-carrying appends (and snapshots) sent but not yet
         acknowledged; cleared wholesale by a rewind *)
  mutable last_response_at : Des.Time.t;
  mutable last_append_sent_at : Des.Time.t;
  mutable reads_confirmed : int;
      (* registration number of the newest pending read this follower
         has confirmed; -1 before its first confirmation *)
  mutable acked_round : int;
      (* the leader's CheckQuorum round in which this follower last
         acknowledged it as a voter; -1 before any *)
  path : Dynatune.Leader_path.t;
}

let create ~last_index ~path =
  {
    next = last_index + 1;
    matched = 0;
    state = Probing;
    inflight = 0;
    last_response_at = Des.Time.zero;
    last_append_sent_at = Des.Time.zero;
    reads_confirmed = -1;
    acked_round = -1;
    path;
  }

let path t = t.path

let note_append_sent t ~at = t.last_append_sent_at <- at
let last_append_sent_at t = t.last_append_sent_at
let reads_confirmed t = t.reads_confirmed

let set_reads_confirmed t n = t.reads_confirmed <- n
let note_ack t ~round = t.acked_round <- round
let acked_in t ~round = Int.equal t.acked_round round

let note_response t ~at = t.last_response_at <- at
let last_response_at t = t.last_response_at
let next_index t = t.next
let match_index t = t.matched
let inflight t = t.inflight

let record_sent t ~upto =
  if upto + 1 > t.next then t.next <- upto + 1;
  t.inflight <- t.inflight + 1

let record_success t ~upto =
  if upto > t.matched then t.matched <- upto;
  if upto + 1 > t.next then t.next <- upto + 1;
  t.state <- Replicating;
  if t.inflight > 0 then t.inflight <- t.inflight - 1

let record_conflict t ~hint =
  t.next <- Int.max 1 (Int.min hint t.next);
  t.state <- Probing;
  t.inflight <- 0

let record_conflict_response t ~req_prev ~hint =
  (* A conflict for a request probing position [req_prev + 1].  If the
     window has already been rewound below that position, this response
     belongs to a send made before the rewind: the probe in flight at
     [next] supersedes it, and resending here would only re-append the
     same entries again (the nack/rewind churn). *)
  if req_prev + 1 > t.next then `Stale
  else begin
    record_conflict t ~hint;
    `Rewound
  end

let may_send t ~window =
  match t.state with
  | Probing -> t.inflight = 0
  | Replicating -> t.inflight < window

let needs_entries t ~last_index = t.next <= last_index
