type vote_request = {
  term : Types.term;
  last_log_index : Types.index;
  last_log_term : Types.term;
  pre_vote : bool;
  force : bool;
}

type vote_response = { term : Types.term; granted : bool; pre_vote : bool }

(* The four steady-state message payloads (appends both ways, heartbeats
   both ways) have mutable fields so {!Pool} can recycle the records: in
   a long DES run they dominate allocation volume, and their lifetime is
   exact — allocated at send, dead once the receiver's [Server.handle]
   returns.  [*_gen] is the pool generation stamp: 0 marks a record that
   was built by hand (never pooled, never recycled), and every pool
   allocation bumps it, which is what the pool-safety property observes
   to prove a record cannot be recycled while still in flight. *)

type append_request = {
  mutable term : Types.term;
  mutable prev_index : Types.index;
  mutable prev_term : Types.term;
  mutable entries : Log.entry array;
  mutable commit : Types.index;
  mutable ar_gen : int;
}

type append_response = {
  mutable term : Types.term;
  mutable success : bool;
  mutable match_index : Types.index;
  mutable conflict_hint : Types.index;
  mutable req_prev : Types.index;
      (* the request's [prev_index], echoed back: with pipelined appends
         the leader must tell a conflict for the probe it has in flight
         from a conflict for a send it already rewound past *)
  mutable ap_gen : int;
}

type install_snapshot = {
  term : Types.term;
  last_index : Types.index;
  last_term : Types.term;
  voters : Netsim.Node_id.t array;
  learners : Netsim.Node_id.t array;
  data : string;
}

type install_snapshot_response = {
  term : Types.term;
  match_index : Types.index;
}

type message =
  | Vote_request of vote_request
  | Vote_response of vote_response
  | Append_request of append_request
  | Append_response of append_response
  | Heartbeat of {
      mutable term : Types.term;
      mutable commit : Types.index;
      mutable hb_id : int;
      mutable sent_at : Des.Time.t;
      mutable measured_rtt : Des.Time.span option;
      mutable hb_gen : int;
    }
  | Heartbeat_response of {
      mutable term : Types.term;
      mutable hb_id : int;
      mutable echo_sent_at : Des.Time.t;
      mutable tuned_h : Des.Time.span option;
      mutable hr_gen : int;
    }
  | Install_snapshot of install_snapshot
  | Install_snapshot_response of install_snapshot_response
  | Timeout_now of { term : Types.term }

let kind_name = function
  | Vote_request { pre_vote = true; _ } -> "prevote_req"
  | Vote_request _ -> "vote_req"
  | Vote_response { pre_vote = true; _ } -> "prevote_resp"
  | Vote_response _ -> "vote_resp"
  | Append_request _ -> "append_req"
  | Append_response _ -> "append_resp"
  | Heartbeat _ -> "hb"
  | Heartbeat_response _ -> "hb_resp"
  | Install_snapshot _ -> "snap"
  | Install_snapshot_response _ -> "snap_resp"
  | Timeout_now _ -> "timeout_now"

let pp ppf = function
  | Vote_request r ->
      Format.fprintf ppf "%s(term=%d last=%d/%d)"
        (if r.pre_vote then "PreVote" else "Vote")
        r.term r.last_log_index r.last_log_term
  | Vote_response r ->
      Format.fprintf ppf "%sResp(term=%d granted=%b)"
        (if r.pre_vote then "PreVote" else "Vote")
        r.term r.granted
  | Append_request r ->
      Format.fprintf ppf "Append(term=%d prev=%d/%d n=%d commit=%d)" r.term
        r.prev_index r.prev_term (Array.length r.entries) r.commit
  | Append_response r ->
      Format.fprintf ppf "AppendResp(term=%d ok=%b match=%d hint=%d)" r.term
        r.success r.match_index r.conflict_hint
  | Heartbeat { term; commit; hb_id; measured_rtt; _ } -> (
      match measured_rtt with
      | Some rtt ->
          Format.fprintf ppf "Heartbeat(term=%d commit=%d id=%d rtt=%a)" term
            commit hb_id Des.Time.pp_ms rtt
      | None ->
          Format.fprintf ppf "Heartbeat(term=%d commit=%d id=%d)" term commit
            hb_id)
  | Heartbeat_response { term; hb_id; _ } ->
      Format.fprintf ppf "HeartbeatResp(term=%d id=%d)" term hb_id
  | Install_snapshot r ->
      Format.fprintf ppf "Snapshot(term=%d upto=%d/%d voters=%d bytes=%d)"
        r.term r.last_index r.last_term (Array.length r.voters)
        (String.length r.data)
  | Install_snapshot_response r ->
      Format.fprintf ppf "SnapshotResp(term=%d match=%d)" r.term r.match_index
  | Timeout_now { term } -> Format.fprintf ppf "TimeoutNow(term=%d)" term

(* {2 Message pooling}

   Free lists for the hot payloads, keyed by constructor.  The DES gives
   messages exact lifetimes: a message is born at a [Send] action and is
   dead the moment the receiving [Server.handle] call returns (nothing
   in the protocol retains a request or response record — entry records
   are shared, but the array and the wrapper record are not).  The
   server therefore releases every delivered pooled message back, and
   allocation pops the free list instead of the minor heap.

   Safety invariant: a record enters a free list only after its sole
   delivery has been fully processed.  Lost messages, messages dropped
   at a paused/removed node, and hand-built records (gen 0) never enter
   a pool — they fall back to the GC.  A duplicated datagram delivers
   two references to one send; the fabric's dup hook replaces the second
   with {!Pool.clone_for_dup}'s unpooled copy so the primary's release
   cannot recycle a record the duplicate still holds. *)

module Pool = struct
  (* Array-backed stack: push/pop allocate nothing (a list free-list
     would pay a cons per release, a third of the record it recycles).
     Each stack owns its slot filler — a pool is single-domain, and
     keeping the filler off the toplevel keeps the whole module free of
     shared mutable state (the mutable-global analyzer rule checks). *)
  type stack = {
    mutable items : message array;
    mutable len : int;
    filler : message;  (* dead-slot marker, never handed out *)
  }

  let new_stack () =
    let filler = Timeout_now { term = 0 } in
    { items = Array.make 16 filler; len = 0; filler }

  let push s m =
    let cap = Array.length s.items in
    if s.len = cap then begin
      let items = Array.make (2 * cap) s.filler in
      Array.blit s.items 0 items 0 cap;
      s.items <- items
    end;
    s.items.(s.len) <- m;
    s.len <- s.len + 1

  let pop s =
    s.len <- s.len - 1;
    let m = s.items.(s.len) in
    s.items.(s.len) <- s.filler;
    m

  type t = { hb : stack; hbr : stack; areq : stack; aresp : stack }

  let create () =
    {
      hb = new_stack ();
      hbr = new_stack ();
      areq = new_stack ();
      aresp = new_stack ();
    }

  (* Each allocator pops a dead record and overwrites every field (so
     [release] need not clear them) — or builds a fresh one at gen 1 if
     the pool is dry.  The popped constructor is guaranteed by which
     stack it sits on; fragile-match (warning 4) still wants the other
     arms spelled out. *)

  let[@hot] heartbeat p ~term ~commit ~hb_id ~sent_at ~measured_rtt =
    if p.hb.len = 0 then
      Heartbeat { term; commit; hb_id; sent_at; measured_rtt; hb_gen = 1 }
    else begin
      let m = pop p.hb in
      (match m with
      | Heartbeat h ->
          h.term <- term;
          h.commit <- commit;
          h.hb_id <- hb_id;
          h.sent_at <- sent_at;
          h.measured_rtt <- measured_rtt;
          h.hb_gen <- h.hb_gen + 1
      | Vote_request _ | Vote_response _ | Append_request _
      | Append_response _ | Heartbeat_response _ | Install_snapshot _
      | Install_snapshot_response _ | Timeout_now _ ->
          assert false);
      m
    end

  let[@hot] heartbeat_response p ~term ~hb_id ~echo_sent_at ~tuned_h =
    if p.hbr.len = 0 then
      Heartbeat_response { term; hb_id; echo_sent_at; tuned_h; hr_gen = 1 }
    else begin
      let m = pop p.hbr in
      (match m with
      | Heartbeat_response h ->
          h.term <- term;
          h.hb_id <- hb_id;
          h.echo_sent_at <- echo_sent_at;
          h.tuned_h <- tuned_h;
          h.hr_gen <- h.hr_gen + 1
      | Vote_request _ | Vote_response _ | Append_request _
      | Append_response _ | Heartbeat _ | Install_snapshot _
      | Install_snapshot_response _ | Timeout_now _ ->
          assert false);
      m
    end

  let[@hot] append_request p ~term ~prev_index ~prev_term ~entries ~commit =
    if p.areq.len = 0 then
      Append_request { term; prev_index; prev_term; entries; commit; ar_gen = 1 }
    else begin
      let m = pop p.areq in
      (match m with
      | Append_request r ->
          r.term <- term;
          r.prev_index <- prev_index;
          r.prev_term <- prev_term;
          r.entries <- entries;
          r.commit <- commit;
          r.ar_gen <- r.ar_gen + 1
      | Vote_request _ | Vote_response _ | Append_response _ | Heartbeat _
      | Heartbeat_response _ | Install_snapshot _
      | Install_snapshot_response _ | Timeout_now _ ->
          assert false);
      m
    end

  let[@hot] append_response p ~term ~success ~match_index ~conflict_hint ~req_prev =
    if p.aresp.len = 0 then
      Append_response
        { term; success; match_index; conflict_hint; req_prev; ap_gen = 1 }
    else begin
      let m = pop p.aresp in
      (match m with
      | Append_response r ->
          r.term <- term;
          r.success <- success;
          r.match_index <- match_index;
          r.conflict_hint <- conflict_hint;
          r.req_prev <- req_prev;
          r.ap_gen <- r.ap_gen + 1
      | Vote_request _ | Vote_response _ | Append_request _ | Heartbeat _
      | Heartbeat_response _ | Install_snapshot _
      | Install_snapshot_response _ | Timeout_now _ ->
          assert false);
      m
    end

  let[@hot] release p m =
    match m with
    | Heartbeat h -> if h.hb_gen > 0 then push p.hb m
    | Heartbeat_response h -> if h.hr_gen > 0 then push p.hbr m
    | Append_request r ->
        if r.ar_gen > 0 then begin
          (* Do not pin the batch window in the pool: the array may be
             the leader log's current window and may be large. *)
          r.entries <- [||];
          push p.areq m
        end
    | Append_response r -> if r.ap_gen > 0 then push p.aresp m
    | Vote_request _ | Vote_response _ | Install_snapshot _
    | Install_snapshot_response _ | Timeout_now _ ->
        ()

  let generation = function
    | Heartbeat h -> h.hb_gen
    | Heartbeat_response h -> h.hr_gen
    | Append_request r -> r.ar_gen
    | Append_response r -> r.ap_gen
    | Vote_request _ | Vote_response _ | Install_snapshot _
    | Install_snapshot_response _ | Timeout_now _ ->
        -1

  (* An unpooled (gen-0) copy for the second delivery of a duplicated
     datagram; value-identical, so digests cannot see the difference. *)
  let clone_for_dup m =
    match m with
    | Heartbeat { term; commit; hb_id; sent_at; measured_rtt; hb_gen = _ } ->
        Heartbeat { term; commit; hb_id; sent_at; measured_rtt; hb_gen = 0 }
    | Heartbeat_response { term; hb_id; echo_sent_at; tuned_h; hr_gen = _ } ->
        Heartbeat_response { term; hb_id; echo_sent_at; tuned_h; hr_gen = 0 }
    | Append_request { term; prev_index; prev_term; entries; commit; ar_gen = _ }
      ->
        Append_request
          { term; prev_index; prev_term; entries; commit; ar_gen = 0 }
    | Append_response
        { term; success; match_index; conflict_hint; req_prev; ap_gen = _ } ->
        Append_response
          { term; success; match_index; conflict_hint; req_prev; ap_gen = 0 }
    | Vote_request _ | Vote_response _ | Install_snapshot _
    | Install_snapshot_response _ | Timeout_now _ ->
        m

  (* Free-list depths, for the pool-safety tests. *)
  let sizes p = (p.hb.len, p.hbr.len, p.areq.len, p.aresp.len)
end
