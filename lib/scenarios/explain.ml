module Cluster = Harness.Cluster
module Fault = Harness.Fault
module Forensics = Raft.Forensics
module Probe = Raft.Probe

type election = {
  term : int;
  winner : int;
  won_at : Des.Time.t;
  cause : Telemetry.Cause.t;
  justified : bool;
  prior_leader : int option;
  provenance : Forensics.record option;
  chain : Forensics.record list;
}

(* A fold over the ring, oldest first.  Liveness bookkeeping (who is
   paused at each instant) decides justified vs spurious; the per-cause
   index reassembles each election's chain — the election-timer cause
   propagates through vote requests to the voters and back on their
   responses, so every record it stamps belongs to one campaign. *)
let analyze records =
  let by_cause : (Telemetry.Cause.t, Forensics.record list) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (r : Forensics.record) ->
      if not (Telemetry.Cause.is_none r.cause) then
        Hashtbl.replace by_cause r.cause
          (r :: Option.value ~default:[] (Hashtbl.find_opt by_cause r.cause)))
    records;
  let chain_of c =
    List.rev (Option.value ~default:[] (Hashtbl.find_opt by_cause c))
  in
  let down = Hashtbl.create 8 in
  let last_tuner = Hashtbl.create 8 in
  let cur_leader = ref None in
  let out = ref [] in
  List.iter
    (fun (r : Forensics.record) ->
      let node = Netsim.Node_id.to_int r.node in
      match r.ev with
      | Forensics.Probe (Probe.Node_paused _) -> Hashtbl.replace down node ()
      | Forensics.Probe (Probe.Node_resumed _) -> Hashtbl.remove down node
      | Forensics.Probe (Probe.Tuner_decision _) ->
          Hashtbl.replace last_tuner node r
      | Forensics.Probe (Probe.Role_change { role = Raft.Types.Leader; _ }) ->
          let prior = !cur_leader in
          let justified =
            match prior with None -> true | Some l -> Hashtbl.mem down l
          in
          cur_leader := Some node;
          out :=
            {
              term = r.term;
              winner = node;
              won_at = r.at;
              cause = r.cause;
              justified;
              prior_leader = prior;
              provenance = Hashtbl.find_opt last_tuner node;
              chain = chain_of r.cause;
            }
            :: !out
      | Forensics.Probe
          ( Probe.Role_change
              { role = Raft.Types.(Follower | Pre_candidate | Candidate); _ }
          | Probe.Timeout_expired _
          | Probe.Election_started _ | Probe.Tuner_reset _
          | Probe.Pre_vote_aborted _ | Probe.Transfer_started _
          | Probe.Transfer_aborted _ | Probe.Config_change _ )
      | Forensics.Vote _ ->
          ())
    records;
  List.rev !out

let run ?(seed = 23L) ?(failures = 3) ?(config = Raft.Config.dynatune ()) () =
  let forensics = Forensics.create () in
  let telemetry = Telemetry.Metrics.create ~enabled:true () in
  let cluster =
    Cluster.create ~seed ~n:5 ~config ~telemetry ~forensics ()
  in
  Geo.apply cluster;
  ignore
    (Cluster.boot ~timeout:(Des.Time.sec 60) cluster ~label:"explain"
      : Raft.Node.t);
  Cluster.run_for cluster (Des.Time.sec 30);
  for _ = 1 to failures do
    match Fault.kill_leader cluster with
    | Some (failed, _) ->
        (match Cluster.await_leader cluster ~timeout:(Des.Time.sec 120) with
        | Some _ -> ()
        | None -> failwith "explain: no re-election after a leader kill");
        Cluster.run_for cluster (Des.Time.sec 5);
        Fault.recover cluster failed;
        Cluster.run_for cluster (Des.Time.sec 10)
    | None -> failwith "explain: no leader to kill"
  done;
  Forensics.records forensics

let verdict e =
  if e.justified then
    match e.prior_leader with
    | None -> "justified (no prior leader)"
    | Some l -> Printf.sprintf "justified (leader n%d was down)" l
  else
    match e.prior_leader with
    | Some l -> Printf.sprintf "spurious (leader n%d was live)" l
    | None -> "justified (no prior leader)"

let print ppf elections =
  Report.banner ppf "explain: causal forensics of every leadership change";
  let justified =
    List.length (List.filter (fun e -> e.justified) elections)
  in
  Report.kv ppf "leadership changes"
    (Printf.sprintf "%d (%d justified, %d spurious)" (List.length elections)
       justified
       (List.length elections - justified));
  List.iteri
    (fun i e ->
      Report.subhead ppf
        (Format.asprintf "election %d: n%d won term %d at %a — %s" (i + 1)
           e.winner e.term Des.Time.pp e.won_at (verdict e));
      Report.kv ppf "cause" (Telemetry.Cause.to_string e.cause);
      Report.kv ppf "provenance"
        (match e.provenance with
        | Some r -> Forensics.render_record r
        | None -> "defaults (no tuner decision recorded)");
      List.iter
        (fun r -> Report.kv ppf "chain" (Forensics.render_record r))
        e.chain)
    elections
