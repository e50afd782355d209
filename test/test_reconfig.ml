(* Dynamic membership: single-server reconfiguration end-to-end,
   leadership transfer, the client's redirect loop bound, the checker's
   membership invariants, and the tuner's re-warm reason. *)

module Cluster = Harness.Cluster
module Node_id = Netsim.Node_id
module Time = Des.Time

let nid = Node_id.of_int

let lan ?(rtt_ms = 10.) () =
  Netsim.Conditions.(constant (profile ~rtt_ms ~jitter:0.02 ()))

let make ?(seed = 17L) ?(n = 3) ?(config = Raft.Config.static ())
    ?(check = Check.Always) ?telemetry () =
  let c =
    Cluster.create ~seed ~n ~config ~conditions:(lan ()) ~check ?telemetry ()
  in
  Cluster.start c;
  c

let await_leader_exn c =
  match Cluster.await_leader c ~timeout:(Time.sec 30) with
  | Some l -> l
  | None -> Alcotest.fail "no leader elected"

(* {2 Config entries retracted by truncation} *)

(* A follower applies a config entry as soon as it is appended; when a
   new leader's conflicting suffix truncates it away, the membership
   reverts to what the surviving log implies. *)
let test_truncation_retracts_config () =
  let s =
    Raft.Server.create ~instrument:false ~congestion:(fun _ -> 0) ~id:(nid 0)
      ~peers:[ nid 1; nid 2 ]
      ~config:(Raft.Config.static ())
      ~rng:(Stats.Rng.create ~seed:3L ())
      ()
  in
  ignore (Raft.Server.start s : Raft.Server.action list);
  let append ~from ~term ~prev_index ~prev_term entries =
    ignore
      (Raft.Server.handle s ~now:(Time.ms 1)
         (Raft.Server.Message
            {
              from = nid from;
              msg =
                Raft.Rpc.Append_request
                  {
                    term;
                    prev_index;
                    prev_term;
                    entries;
                    commit = 0;
                    ar_gen = 0;
                  };
            })
        : Raft.Server.action list)
  in
  let members () = List.map Node_id.to_int (Raft.Server.members s) in
  append ~from:1 ~term:1 ~prev_index:0 ~prev_term:0
    [|
      { Raft.Log.term = 1; index = 1; command = Raft.Log.Noop };
      {
        Raft.Log.term = 1;
        index = 2;
        command = Raft.Log.Config (Raft.Log.Add_learner (nid 3));
      };
    |];
  Alcotest.(check (list int)) "learner applied on append" [ 0; 1; 2; 3 ]
    (members ());
  append ~from:2 ~term:2 ~prev_index:1 ~prev_term:1
    [| { Raft.Log.term = 2; index = 2; command = Raft.Log.Noop } |];
  Alcotest.(check (list int)) "truncation retracts it" [ 0; 1; 2 ]
    (members ());
  Alcotest.(check (list int)) "no learners" []
    (List.map Node_id.to_int (Raft.Server.learners s));
  Alcotest.(check (option int)) "no pending config" None
    (Raft.Server.pending_config s)

(* Compaction folds the config entries at or below the boundary into
   the boundary configuration, and only those: a later entry still in
   the log stays out of it. *)
let test_compaction_folds_configs () =
  let module S = Raft.Server in
  let s =
    S.create ~instrument:false ~congestion:(fun _ -> 0) ~id:(nid 0)
      ~peers:[ nid 1; nid 2 ]
      ~config:(Raft.Config.static ())
      ~rng:(Stats.Rng.create ~seed:4L ())
      ()
  in
  let handle ev = ignore (S.handle s ~now:(Time.ms 1) ev : S.action list) in
  let from p msg = S.Message { from = nid p; msg } in
  ignore (S.start s : S.action list);
  handle S.Election_timeout_fired;
  List.iter
    (fun pre_vote ->
      let term = if pre_vote then S.term s + 1 else S.term s in
      handle
        (from 1 (Raft.Rpc.Vote_response { term; granted = true; pre_vote })))
    [ true; false ];
  let ack () =
    handle
      (from 1
         (Raft.Rpc.Append_response
            {
              term = S.term s;
              success = true;
              match_index = Raft.Log.last_index (S.log s);
              conflict_hint = 0;
              req_prev = 0;
              ap_gen = 0;
            }))
  in
  let change c =
    match S.reconfigure s ~now:(Time.ms 1) c with
    | _, `Ok _ -> ack ()
    | _ -> Alcotest.fail "change refused"
  in
  ack ();
  change (Raft.Log.Add_learner (nid 3));
  change (Raft.Log.Remove (nid 3));
  Alcotest.(check int) "no-op and both changes committed" 3
    (S.commit_index s);
  handle (S.Snapshot_ready { upto = 2; data = "" });
  let p = S.persisted s in
  let ints = List.map Node_id.to_int in
  Alcotest.(check (list int))
    "boundary voters" [ 0; 1; 2 ] (ints p.S.base_voters);
  Alcotest.(check (list int)) "boundary holds the learner" [ 3 ]
    (ints p.S.base_learners);
  Alcotest.(check (list int)) "live config has dropped it" [ 0; 1; 2 ]
    (ints (S.members s))

(* {2 The membership lists against a set model}

   [Server] keeps a configuration as its member list plus the learners
   among them.  [Set_model] is the representation it replaced: voter and
   learner sets beside an insertion-order list.  Random config entries
   go to a follower, some truncated by a conflicting append and some
   compacted into the boundary configuration; after every step the
   server's lists must equal the model's. *)

module Set_model = struct
  module Set = Node_id.Set

  type t = { voters : Set.t; learners : Set.t; order : Node_id.t list }

  let create ids =
    { voters = Set.of_list ids; learners = Set.empty; order = ids }
  let member m n = Set.mem n m.voters || Set.mem n m.learners

  let apply m = function
    | Raft.Log.Add_learner n ->
        if member m n then m
        else { m with learners = Set.add n m.learners; order = m.order @ [ n ] }
    | Raft.Log.Promote n ->
        if not (Set.mem n m.learners) then m
        else
          {
            m with
            voters = Set.add n m.voters;
            learners = Set.remove n m.learners;
          }
    | Raft.Log.Remove n ->
        {
          voters = Set.remove n m.voters;
          learners = Set.remove n m.learners;
          order = List.filter (fun x -> not (Node_id.equal x n)) m.order;
        }

  let voters m = List.filter (fun n -> Set.mem n m.voters) m.order
  let learners m = List.filter (fun n -> Set.mem n m.learners) m.order
end

type config_step =
  | Append of Raft.Log.change option list  (** [None] is a no-op entry *)
  | Overwrite of int * Raft.Log.change option list
      (** conflicting entries from this many entries back, at a new term *)
  | Commit_to_last
  | Compact of int  (** percent of the committed, uncompacted entries *)

let gen_change =
  QCheck.Gen.(
    map2
      (fun kind id ->
        let n = nid id in
        match kind with
        | 0 -> Raft.Log.Add_learner n
        | 1 -> Raft.Log.Promote n
        | _ -> Raft.Log.Remove n)
      (int_bound 2) (int_bound 5))

let gen_entries =
  QCheck.Gen.(
    list_size (int_range 1 4)
      (frequency [ (1, return None); (4, map Option.some gen_change) ]))

let gen_config_step =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun es -> Append es) gen_entries);
        (2, map2 (fun k es -> Overwrite (k, es)) (int_range 1 4) gen_entries);
        (1, return Commit_to_last);
        (1, map (fun p -> Compact p) (int_range 1 100));
      ])

let print_config_step =
  let change = function
    | None -> "noop"
    | Some (Raft.Log.Add_learner n) -> "add " ^ string_of_int (Node_id.to_int n)
    | Some (Raft.Log.Promote n) -> "promote " ^ string_of_int (Node_id.to_int n)
    | Some (Raft.Log.Remove n) -> "remove " ^ string_of_int (Node_id.to_int n)
  in
  let entries es = String.concat "; " (List.map change es) in
  function
  | Append es -> Printf.sprintf "append [%s]" (entries es)
  | Overwrite (k, es) -> Printf.sprintf "overwrite -%d [%s]" k (entries es)
  | Commit_to_last -> "commit"
  | Compact p -> Printf.sprintf "compact %d%%" p

let prop_membership_matches_set_model =
  QCheck.Test.make ~count:300
    ~name:
      "follower membership lists = set model under appends, truncation, \
       compaction"
    (QCheck.make
       ~print:QCheck.Print.(list print_config_step)
       QCheck.Gen.(list_size (int_range 1 30) gen_config_step))
    (fun steps ->
      let module S = Raft.Server in
      let s =
        S.create ~instrument:false ~congestion:(fun _ -> 0) ~id:(nid 0)
          ~peers:[ nid 1; nid 2 ]
          ~config:(Raft.Config.static ())
          ~rng:(Stats.Rng.create ~seed:5L ())
          ()
      in
      ignore (S.start s : S.action list);
      let base = ref (Set_model.create [ nid 0; nid 1; nid 2 ]) in
      (* The model's log: the entries above the snapshot, newest first. *)
      let log = ref [] and term = ref 1 and commit = ref 0 in
      let snap_index = ref 0 and snap_term = ref 0 in
      let last () =
        match !log with e :: _ -> e.Raft.Log.index | [] -> !snap_index
      in
      let term_at i =
        if i = !snap_index then !snap_term
        else (List.find (fun e -> e.Raft.Log.index = i) !log).Raft.Log.term
      in
      let send ~prev_index entries =
        let entries =
          Array.of_list
            (List.mapi
               (fun k c ->
                 {
                   Raft.Log.term = !term;
                   index = prev_index + 1 + k;
                   command =
                     (match c with
                     | Some c -> Raft.Log.Config c
                     | None -> Raft.Log.Noop);
                 })
               entries)
        in
        ignore
          (S.handle s ~now:(Time.ms 1)
             (S.Message
                {
                  from = nid 1;
                  msg =
                    Raft.Rpc.Append_request
                      {
                        term = !term;
                        prev_index;
                        prev_term = term_at prev_index;
                        entries;
                        commit = !commit;
                        ar_gen = 0;
                      };
                })
            : S.action list);
        log :=
          Array.fold_left
            (fun acc e -> e :: acc)
            (List.filter (fun e -> e.Raft.Log.index <= prev_index) !log)
            entries
      in
      let fold_configs m entries =
        List.fold_left
          (fun m e ->
            match e.Raft.Log.command with
            | Raft.Log.Config c -> Set_model.apply m c
            | Raft.Log.Noop | Raft.Log.Data _ -> m)
          m entries
      in
      let ints = List.map Node_id.to_int in
      let check i =
        let current = fold_configs !base (List.rev !log) in
        let p = S.persisted s in
        let same what expected got =
          if ints expected <> ints got then
            QCheck.Test.fail_reportf "step %d: %s [%s], model [%s]" i what
              (String.concat ";" (List.map string_of_int (ints got)))
              (String.concat ";" (List.map string_of_int (ints expected)))
        in
        same "members" current.Set_model.order (S.members s);
        same "voters" (Set_model.voters current) (S.voters s);
        same "learners" (Set_model.learners current) (S.learners s);
        same "base voters" (Set_model.voters !base) p.S.base_voters;
        same "base learners" (Set_model.learners !base) p.S.base_learners
      in
      List.iteri
        (fun i step ->
          (match step with
          | Append es -> send ~prev_index:(last ()) es
          | Overwrite (k, es) ->
              (* Committed entries are never overwritten. *)
              let prev_index = Int.max !commit (last () - k) in
              incr term;
              send ~prev_index es
          | Commit_to_last ->
              commit := last ();
              send ~prev_index:(last ()) []
          | Compact percent ->
              let upto =
                !snap_index + ((!commit - !snap_index) * percent / 100)
              in
              if upto > !snap_index then begin
                ignore
                  (S.handle s ~now:(Time.ms 1)
                     (S.Snapshot_ready { upto; data = "" })
                    : S.action list);
                let folded, kept =
                  List.partition (fun e -> e.Raft.Log.index <= upto) !log
                in
                base := fold_configs !base (List.rev folded);
                snap_term := term_at upto;
                snap_index := upto;
                log := kept
              end);
          check i)
        steps;
      true)

(* {2 Add / promote / remove} *)

let test_add_server_becomes_voter () =
  let c = make () in
  let _ = await_leader_exn c in
  let id, r = Cluster.add_server c in
  (match r with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "add_server must be accepted by a settled leader");
  Alcotest.(check bool) "promoted to voter" true
    (Cluster.await_voter c id ~timeout:(Time.sec 30));
  let s = Raft.Node.server (Option.get (Cluster.leader c)) in
  Alcotest.(check bool) "leader sees the voter" true (Raft.Server.is_voter s id);
  Alcotest.(check (list int))
    "no learners left"
    []
    (List.map Node_id.to_int (Raft.Server.learners s));
  Alcotest.(check int) "four members" 4
    (List.length (Raft.Server.members s));
  Cluster.check_now c

let test_remove_leader_hands_off () =
  let c = make ~n:3 () in
  let l = await_leader_exn c in
  let old = Raft.Node.id l in
  (match Cluster.remove_server c old with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "self-removal must be accepted");
  Alcotest.(check bool) "config settles" true
    (Cluster.await_config_quiet c ~timeout:(Time.sec 30));
  let l' = await_leader_exn c in
  Alcotest.(check bool) "leadership moved" false
    (Node_id.equal (Raft.Node.id l') old);
  Alcotest.(check bool) "removed from the config" false
    (List.exists (Node_id.equal old)
       (Raft.Server.members (Raft.Node.server l')));
  Cluster.retire c old;
  Cluster.run_for c (Time.sec 1);
  Cluster.check_now c

let test_second_change_pending () =
  let c = make ~n:3 () in
  let _ = await_leader_exn c in
  let joiner = Cluster.spawn_joiner c in
  (match Cluster.reconfigure c (Raft.Log.Add_learner joiner) with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "first change must be accepted");
  (* No engine time has passed: the first change cannot have committed,
     so a second one must be refused. *)
  let follower =
    List.find
      (fun id -> not (Node_id.equal id joiner))
      (Cluster.node_ids c)
  in
  (match Cluster.reconfigure c (Raft.Log.Remove follower) with
  | `Pending -> ()
  | `Ok _ -> Alcotest.fail "second change accepted while one is in flight"
  | _ -> Alcotest.fail "expected `Pending");
  Alcotest.(check bool) "settles eventually" true
    (Cluster.await_config_quiet c ~timeout:(Time.sec 30));
  Cluster.check_now c

let test_invalid_changes_rejected () =
  let c = make ~n:3 () in
  let l = await_leader_exn c in
  let member = Raft.Node.id l in
  (match Cluster.reconfigure c (Raft.Log.Add_learner member) with
  | `Invalid _ -> ()
  | _ -> Alcotest.fail "adding an existing member must be invalid");
  (match Cluster.reconfigure c (Raft.Log.Promote member) with
  | `Invalid _ -> ()
  | _ -> Alcotest.fail "promoting a non-learner must be invalid");
  match Cluster.reconfigure c (Raft.Log.Remove (nid 99)) with
  | `Invalid _ -> ()
  | _ -> Alcotest.fail "removing an unknown server must be invalid"

(* {2 Leadership transfer} *)

let test_transfer_leadership () =
  let c = make ~n:3 () in
  let l = await_leader_exn c in
  let target =
    List.find
      (fun id -> not (Node_id.equal id (Raft.Node.id l)))
      (Cluster.node_ids c)
  in
  (match Cluster.transfer_leadership c target with
  | `Ok -> ()
  | `Not_leader -> Alcotest.fail "transfer from the live leader refused");
  Cluster.run_for c (Time.sec 2);
  let l' = await_leader_exn c in
  Alcotest.(check int) "target leads" (Node_id.to_int target)
    (Node_id.to_int (Raft.Node.id l'));
  Cluster.check_now c

(* {2 Client redirect loop bound} *)

(* A service where every server always answers [`Not_leader] with a
   hint: the client must give up after exactly 3 redirect hops, never
   loop. *)
let test_redirect_loop_bound () =
  let engine = Des.Engine.create ~seed:7L () in
  let attempts = ref 0 in
  let bouncing ~payload:_ ~client_id:_ ~seq:_ ~on_result:_ =
    incr attempts;
    `Not_leader (Some (nid 1))
  in
  let client =
    Kvsm.Client.create ~engine ~target:bouncing ~route:(fun _ -> bouncing)
      ~client_id:1 ~rate:10. ()
  in
  Kvsm.Client.start client;
  Des.Engine.run_for engine (Time.sec 2);
  Kvsm.Client.stop client;
  Des.Engine.run_for engine (Time.sec 1);
  let offered = Kvsm.Client.offered client in
  Alcotest.(check bool) "some arrivals" true (offered > 0);
  (* Each request: the initial attempt plus 3 redirect hops. *)
  Alcotest.(check int) "attempts bounded" (4 * offered) !attempts;
  Alcotest.(check int) "every hop counted" (4 * offered)
    (Kvsm.Client.redirected client);
  Alcotest.(check int) "every request abandoned" offered
    (Kvsm.Client.abandoned client);
  Alcotest.(check int) "none completed" 0 (Kvsm.Client.completed client)

let test_redirects_disabled_without_route () =
  let engine = Des.Engine.create ~seed:8L () in
  let attempts = ref 0 in
  let bouncing ~payload:_ ~client_id:_ ~seq:_ ~on_result:_ =
    incr attempts;
    `Not_leader (Some (nid 1))
  in
  let client =
    Kvsm.Client.create ~engine ~target:bouncing ~client_id:1 ~rate:10. ()
  in
  Kvsm.Client.start client;
  Des.Engine.run_for engine (Time.sec 2);
  Kvsm.Client.stop client;
  let offered = Kvsm.Client.offered client in
  Alcotest.(check int) "one attempt per request" offered !attempts;
  Alcotest.(check int) "terminal redirects" offered
    (Kvsm.Client.redirected client)

(* {2 Checker membership invariants} *)

let fixture_view ?(role = Raft.Types.Follower) ?(voters = [ nid 0; nid 1 ])
    ?(learners = []) ?(votes = []) ?(entries = []) ?(commit = 0) id :
    Check.node_view =
  let entry_at i =
    List.find_opt (fun (e : Raft.Log.entry) -> e.Raft.Log.index = i) entries
  in
  {
    Check.id;
    alive = (fun () -> true);
    incarnation = (fun () -> 0);
    role = (fun () -> role);
    term = (fun () -> 1);
    commit_index = (fun () -> commit);
    voted_for = (fun () -> None);
    last_index =
      (fun () ->
        List.fold_left
          (fun acc (e : Raft.Log.entry) -> max acc e.Raft.Log.index)
          0 entries);
    snapshot_index = (fun () -> 0);
    term_at =
      (fun i ->
        if i = 0 then Some 0
        else
          Option.map (fun (e : Raft.Log.entry) -> e.Raft.Log.term) (entry_at i));
    entry_at;
    voters = (fun () -> voters);
    learners = (fun () -> learners);
    votes = (fun () -> votes);
  }

let expect_violation ~invariant nodes =
  let t = Check.create ~nodes () in
  match Check.check_now t with
  | () -> Alcotest.failf "checker missed a %s violation" invariant
  | exception Check.Violation v ->
      Alcotest.(check string) "invariant" invariant v.Check.invariant

let test_checker_learner_no_vote () =
  expect_violation ~invariant:"learner-no-vote"
    [
      fixture_view ~role:Raft.Types.Leader ~voters:[ nid 1 ]
        ~learners:[ nid 0 ] (nid 0);
      fixture_view ~voters:[ nid 1 ] ~learners:[ nid 0 ] (nid 1);
    ]

let test_checker_config_validity () =
  (* A committed Promote of a server that was never a learner. *)
  let entries =
    [
      {
        Raft.Log.term = 1;
        index = 1;
        command = Raft.Log.Config (Raft.Log.Promote (nid 5));
      };
    ]
  in
  expect_violation ~invariant:"config-validity"
    [
      fixture_view ~entries ~commit:1 (nid 0);
      fixture_view ~entries ~commit:1 (nid 1);
    ]

let test_checker_accepts_valid_history () =
  (* Add a learner, promote it, drop an original voter: every
     consecutive pair of configurations shares a quorum. *)
  let change i c =
    { Raft.Log.term = 1; index = i; command = Raft.Log.Config c }
  in
  let entries =
    [
      change 1 (Raft.Log.Add_learner (nid 2));
      change 2 (Raft.Log.Promote (nid 2));
      change 3 (Raft.Log.Remove (nid 1));
    ]
  in
  let t =
    Check.create
      ~nodes:
        [
          fixture_view ~entries ~commit:3 (nid 0);
          fixture_view ~entries ~commit:3 (nid 1);
        ]
      ()
  in
  Check.check_now t;
  Alcotest.(check bool) "checks ran" true (Check.checks_run t > 0)

(* {2 Tuner re-warm} *)

let test_tuner_rewarm_reason () =
  let telemetry = Telemetry.Metrics.create ~enabled:true () in
  let c =
    make ~seed:23L ~config:(Raft.Config.dynatune ()) ~check:Check.Off
      ~telemetry ()
  in
  let saw_reconfigured = ref false in
  Des.Mtrace.subscribe (Cluster.trace c) (fun _t probe ->
      match probe with
      | Raft.Probe.Tuner_decision { reason = Raft.Probe.Reconfigured; _ } ->
          saw_reconfigured := true
      | _ -> ());
  let _ = await_leader_exn c in
  (* Let the tuner reach Tuned before the membership change. *)
  Cluster.run_for c (Time.sec 10);
  let _, r = Cluster.add_server c in
  (match r with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "add_server refused");
  Alcotest.(check bool) "settles" true
    (Cluster.await_config_quiet c ~timeout:(Time.sec 30));
  (* Re-warm needs a window of fresh heartbeat measurements. *)
  Cluster.run_for c (Time.sec 20);
  Alcotest.(check bool) "re-warmed decision tagged Reconfigured" true
    !saw_reconfigured

(* {2 The rolling-replace scenario} *)

let test_scenario_tuner_reduces_downtime () =
  match Scenarios.Reconfig.compare_modes ~rounds:4 () with
  | [ off; on ] ->
      Alcotest.(check string) "off mode" "raft" off.Scenarios.Reconfig.mode;
      Alcotest.(check string) "on mode" "dynatune" on.Scenarios.Reconfig.mode;
      Alcotest.(check int) "all replacements (off)" 20
        off.Scenarios.Reconfig.replacements;
      Alcotest.(check int) "all replacements (on)" 20
        on.Scenarios.Reconfig.replacements;
      Alcotest.(check int) "no stalls (off)" 0 off.Scenarios.Reconfig.stalls;
      Alcotest.(check int) "no stalls (on)" 0 on.Scenarios.Reconfig.stalls;
      Alcotest.(check bool) "tuner strictly reduces downtime" true
        (on.Scenarios.Reconfig.total_down_ms
        < off.Scenarios.Reconfig.total_down_ms)
  | _ -> Alcotest.fail "compare_modes must return the off/on pair"

let test_scenario_jobs_invariant () =
  let run jobs =
    Scenarios.Reconfig.run ~rounds:2 ~jobs ~check:Check.Always
      ~config:(Raft.Config.dynatune ())
      ()
  in
  let a = run 1 and b = run 2 in
  Alcotest.(check int64) "digest jobs-invariant" a.Scenarios.Reconfig.digest
    b.Scenarios.Reconfig.digest;
  Alcotest.(check (float 0.)) "downtime jobs-invariant"
    a.Scenarios.Reconfig.total_down_ms b.Scenarios.Reconfig.total_down_ms

let tests =
  [
    Alcotest.test_case "follower: truncation retracts a config entry" `Quick
      test_truncation_retracts_config;
    Alcotest.test_case "leader: compaction folds configs below the boundary"
      `Quick test_compaction_folds_configs;
    Alcotest.test_case "add_server: learner catches up, becomes voter" `Quick
      test_add_server_becomes_voter;
    Alcotest.test_case "remove_server: removed leader hands off" `Quick
      test_remove_leader_hands_off;
    Alcotest.test_case "reconfigure: second change pending" `Quick
      test_second_change_pending;
    Alcotest.test_case "reconfigure: invalid changes rejected" `Quick
      test_invalid_changes_rejected;
    Alcotest.test_case "transfer_leadership: target takes over" `Quick
      test_transfer_leadership;
    Alcotest.test_case "client: redirect loop bound" `Quick
      test_redirect_loop_bound;
    Alcotest.test_case "client: no route, no redirect loop" `Quick
      test_redirects_disabled_without_route;
    Alcotest.test_case "checker: learner must not lead" `Quick
      test_checker_learner_no_vote;
    Alcotest.test_case "checker: invalid promote caught" `Quick
      test_checker_config_validity;
    Alcotest.test_case "checker: valid history accepted" `Quick
      test_checker_accepts_valid_history;
    Alcotest.test_case "tuner: committed change re-warms" `Quick
      test_tuner_rewarm_reason;
    Alcotest.test_case "scenario: tuner reduces downtime" `Quick
      test_scenario_tuner_reduces_downtime;
    Alcotest.test_case "scenario: digest jobs-invariant" `Quick
      test_scenario_jobs_invariant;
    QCheck_alcotest.to_alcotest prop_membership_matches_set_model;
  ]
