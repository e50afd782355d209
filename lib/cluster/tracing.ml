module Node_id = Netsim.Node_id
module Chrome = Telemetry.Chrome_trace

type t = {
  cluster : Cluster.t;
  sink : Chrome.t;
  pid : int;
  (* The span currently open on each node's Chrome thread, if any.  The
     trace-event format requires B/E pairs to nest per (pid, tid), so a
     role change always closes the previous span before opening the
     next. *)
  open_spans : string Node_id.Table.t;
  (* Reconfiguration spans live on synthetic threads (tid 1000 + node)
     so they can overlap the role spans without breaking B/E nesting:
     an in-flight leadership transfer keyed by the old leader, and a
     learner's catch-up window keyed by the learner. *)
  xfer_spans : unit Node_id.Table.t;
  catchup_spans : unit Node_id.Table.t;
  named : unit Node_id.Table.t;  (* threads named so far (nodes join late) *)
  mutable finished : bool;
}

(* The election lifecycle as nested-free spans: a follower is "idle"
   (no span), everything else is a phase of seeking or holding
   leadership. *)
let span_of_role = function
  | Raft.Types.Follower -> None
  | Raft.Types.Pre_candidate -> Some "pre-vote"
  | Raft.Types.Candidate -> Some "campaign"
  | Raft.Types.Leader -> Some "leader"

let tid id = Node_id.to_int id
let reconfig_tid id = 1000 + Node_id.to_int id

let ensure_named t id =
  if not (Node_id.Table.mem t.named id) then begin
    Node_id.Table.add t.named id ();
    Chrome.thread_name t.sink ~pid:t.pid ~tid:(tid id)
      ("node " ^ string_of_int (Node_id.to_int id));
    Chrome.thread_name t.sink ~pid:t.pid ~tid:(reconfig_tid id)
      ("reconfig n" ^ string_of_int (Node_id.to_int id))
  end

let open_reconfig_span t table ~at id name ~args =
  if not (Node_id.Table.mem table id) then begin
    ensure_named t id;
    Node_id.Table.add table id ();
    Chrome.duration_begin t.sink ~name ~pid:t.pid ~tid:(reconfig_tid id) ~at
      ~args ()
  end

let close_reconfig_span t table ~at id name =
  if Node_id.Table.mem table id then begin
    Node_id.Table.remove table id;
    Chrome.duration_end t.sink ~name ~pid:t.pid ~tid:(reconfig_tid id) ~at ()
  end

let close_span t ~at id =
  match Node_id.Table.find_opt t.open_spans id with
  | None -> ()
  | Some name ->
      Node_id.Table.remove t.open_spans id;
      Chrome.duration_end t.sink ~name ~pid:t.pid ~tid:(tid id) ~at ()

let open_span t ~at id name ~args =
  Node_id.Table.replace t.open_spans id name;
  Chrome.duration_begin t.sink ~name ~pid:t.pid ~tid:(tid id) ~at ~args ()

let on_probe t at probe =
  if not t.finished then begin
    let id = Raft.Probe.node probe in
    ensure_named t id;
    let instant name args =
      Chrome.instant t.sink ~name ~pid:t.pid ~tid:(tid id) ~at ~args ()
    in
    match probe with
    | Raft.Probe.Role_change { role; term; _ } -> begin
        (* Any role change on the old leader ends its transfer window
           (on success it steps down when the successor's term
           arrives). *)
        close_reconfig_span t t.xfer_spans ~at id "transfer";
        close_span t ~at id;
        match span_of_role role with
        | None -> ()
        | Some name -> open_span t ~at id name ~args:[ ("term", Chrome.Int term) ]
      end
    | Raft.Probe.Timeout_expired { term; randomized; _ } ->
        instant "timeout_expired"
          [
            ("term", Chrome.Int term);
            ("randomized_ms", Chrome.Float (Des.Time.to_ms_f randomized));
          ]
    | Raft.Probe.Pre_vote_aborted { term; _ } ->
        instant "pre_vote_aborted" [ ("term", Chrome.Int term) ]
    | Raft.Probe.Tuner_reset _ -> instant "tuner_reset" []
    | Raft.Probe.Tuner_decision { rtt_ms; rtt_std_ms; loss; k; et; h; reason; _ }
      ->
        instant "tuner_decision"
          [
            ("reason", Chrome.Str (Raft.Probe.reason_name reason));
            ("rtt_ms", Chrome.Float rtt_ms);
            ("rtt_std_ms", Chrome.Float rtt_std_ms);
            ("loss", Chrome.Float loss);
            ("et_ms", Chrome.Float (Des.Time.to_ms_f et));
            ("h_ms", Chrome.Float (Des.Time.to_ms_f h));
            ("k", Chrome.Int k);
          ]
    | Raft.Probe.Election_started { term; _ } ->
        instant "election_started" [ ("term", Chrome.Int term) ]
    | Raft.Probe.Node_paused _ -> instant "node_paused" []
    | Raft.Probe.Node_resumed _ -> instant "node_resumed" []
    | Raft.Probe.Transfer_started { term; target; _ } ->
        open_reconfig_span t t.xfer_spans ~at id "transfer"
          ~args:
            [
              ("term", Chrome.Int term);
              ("target", Chrome.Int (Node_id.to_int target));
            ]
    | Raft.Probe.Transfer_aborted { term; _ } ->
        close_reconfig_span t t.xfer_spans ~at id "transfer";
        instant "transfer_aborted" [ ("term", Chrome.Int term) ]
    | Raft.Probe.Config_change { index; change; committed; _ } -> (
        instant "config_change"
          [
            ("change", Chrome.Str (Raft.Log.show_change change));
            ("index", Chrome.Int index);
            ("committed", Chrome.Str (if committed then "yes" else "no"));
          ];
        (* The catch-up window runs from the leader appending
           [Add_learner] (committed:false, emitted once) to it
           appending the [Promote] that ends the learner phase. *)
        match (change, committed) with
        | Raft.Log.Add_learner l, false ->
            open_reconfig_span t t.catchup_spans ~at l "catch-up"
              ~args:[ ("index", Chrome.Int index) ]
        | (Raft.Log.Promote l | Raft.Log.Remove l), false ->
            close_reconfig_span t t.catchup_spans ~at l "catch-up"
        | (Raft.Log.Add_learner _ | Raft.Log.Promote _ | Raft.Log.Remove _), _
          ->
            ())
  end

let attach ?(pid = 1) ?name cluster sink =
  let t =
    {
      cluster;
      sink;
      pid;
      open_spans = Node_id.Table.create 8;
      xfer_spans = Node_id.Table.create 4;
      catchup_spans = Node_id.Table.create 4;
      named = Node_id.Table.create 8;
      finished = false;
    }
  in
  (match name with
  | Some n -> Chrome.process_name sink ~pid n
  | None -> ());
  List.iter (ensure_named t) (Cluster.node_ids cluster);
  Des.Mtrace.subscribe (Cluster.trace cluster) (fun at probe ->
      on_probe t at probe);
  t

let finish t =
  if not t.finished then begin
    t.finished <- true;
    let at = Cluster.now t.cluster in
    let keys table = Node_id.Table.fold (fun id _ acc -> id :: acc) table [] in
    List.iter (fun id -> close_span t ~at id) (keys t.open_spans);
    List.iter
      (fun id -> close_reconfig_span t t.xfer_spans ~at id "transfer")
      (keys t.xfer_spans);
    List.iter
      (fun id -> close_reconfig_span t t.catchup_spans ~at id "catch-up")
      (keys t.catchup_spans);
    (* Fabric- and link-level tallies as counter tracks, so the trace
       shows where messages were dropped alongside the election spans.
       Link tracks cover this cluster's own pairs: a fabric shared with
       other clusters lists theirs too. *)
    let own = Node_id.Table.create 8 in
    List.iter
      (fun id -> Node_id.Table.replace own id ())
      (Cluster.node_ids t.cluster);
    let own_pairs pairs =
      List.filter
        (fun ((src, dst), _) ->
          Node_id.Table.mem own (Node_id.of_int src)
          && Node_id.Table.mem own (Node_id.of_int dst))
        pairs
    in
    let fc = Netsim.Fabric.counters (Cluster.fabric t.cluster) in
    Chrome.counter t.sink ~name:"fabric" ~pid:t.pid ~tid:0 ~at
      ~values:
        [
          ("sent", float_of_int fc.Netsim.Fabric.sent);
          ("delivered", float_of_int fc.Netsim.Fabric.delivered);
          ("lost", float_of_int fc.Netsim.Fabric.lost);
          ("dropped_paused", float_of_int fc.Netsim.Fabric.dropped_paused);
          ("duplicated", float_of_int fc.Netsim.Fabric.duplicated);
        ]
      ();
    List.iter
      (fun ((src, dst), (lc : Netsim.Link.counters)) ->
        Chrome.counter t.sink
          ~name:(Printf.sprintf "link n%d->n%d" src dst)
          ~pid:t.pid ~tid:0 ~at
          ~values:
            [
              ("sent", float_of_int lc.Netsim.Link.sent);
              ("lost", float_of_int lc.Netsim.Link.lost);
              ("duplicated", float_of_int lc.Netsim.Link.duplicated);
              ("retransmissions", float_of_int lc.Netsim.Link.retransmissions);
            ]
          ())
      (own_pairs (Netsim.Fabric.link_counters (Cluster.fabric t.cluster)));
    (* Replication-engine tallies: the high-water egress queue depth per
       link (only links that ever queued appear) and each node's
       append window occupancy at trace end. *)
    List.iter
      (fun ((src, dst), depth) ->
        Chrome.counter t.sink
          ~name:(Printf.sprintf "egress n%d->n%d" src dst)
          ~pid:t.pid ~tid:0 ~at
          ~values:[ ("queue_depth_hw", float_of_int depth) ]
          ())
      (own_pairs (Netsim.Fabric.link_queue_depths (Cluster.fabric t.cluster)));
    Chrome.counter t.sink ~name:"appends_inflight" ~pid:t.pid ~tid:0 ~at
      ~values:
        (List.map
           (fun id ->
             ( Printf.sprintf "n%d" (Node_id.to_int id),
               float_of_int
                 (Raft.Server.appends_inflight
                    (Raft.Node.server (Cluster.node t.cluster id))) ))
           (Cluster.node_ids t.cluster))
      ()
  end
