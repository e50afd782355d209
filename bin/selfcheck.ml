(* End-to-end exercise of the correctness analyses (the @check alias):

   1. short hostile runs under [Check.Always] — leader pauses and
      crash-restarts across several seeds must violate no invariant;
   2. a 200-seed reconfiguration sweep — random membership changes and
      leader failures mid-campaign, also under [Check.Always] — plus a
      200-seed pipelined-replication sweep: small windows and batches
      over a lossy, duplicating, serializing wire with nodes sleeping
      through write bursts, ending in store convergence — plus a
      200-seed multi-group sweep: several Raft groups on one shared
      fabric behind the shard router, group leaders pausing and
      crashing mid-burst, ending in per-group store convergence;
   3. the determinism sanitizer — pinned shard plans (failover,
      reconfig and multiraft campaigns) must produce bit-identical
      trace digests and metrics snapshots with one worker and with
      many;
   4. a deliberately broken fixture — two leaders sharing a term — that
      the checker is required to catch.

   `selfcheck --perf` (the @perf alias) instead checks one table of
   host-independent constants: the fig4, multiraft and fig8 trace digests bit
   for bit, and minor words per operation (the Bench_loops hot paths)
   or per DES event (pinned runs) under fixed budgets. *)

module Cluster = Harness.Cluster

let fail fmt =
  Format.kasprintf
    (fun m ->
      prerr_endline ("selfcheck: FAILED: " ^ m);
      exit 1)
    fmt

(* The checks every chaos run shares.  [what] names the sweep (and the
   group, where there is one) in failure messages. *)
let boot what ~seed cluster =
  ignore
    (Cluster.boot cluster ~label:(Printf.sprintf "%s (seed %Ld)" what seed)
      : Raft.Node.t)

(* The checker was installed and actually ran. *)
let checker_ran what ~seed cluster =
  match Cluster.checker cluster with
  | Some c ->
      if Check.checks_run c = 0 then
        fail "%s: checker never ran (seed %Ld)" what seed
  | None -> fail "%s: checker missing despite Check.Always (seed %Ld)" what seed

(* After the quiet period every replica holds the same store. *)
let stores_converged what ~seed cluster =
  match
    List.map
      (fun id -> Kvsm.Store.state_digest (Cluster.store cluster id))
      (Cluster.node_ids cluster)
  with
  | [] -> fail "%s: no stores (seed %Ld)" what seed
  | d :: rest ->
      if not (List.for_all (String.equal d) rest) then
        fail "%s: replicas diverged after quiet period (seed %Ld)" what seed

let mini_chaos ~seed =
  let conditions =
    Netsim.Conditions.(constant (profile ~rtt_ms:50. ~jitter:0.05 ()))
  in
  let cluster =
    Cluster.create ~seed ~n:5 ~config:(Raft.Config.dynatune ()) ~conditions
      ~check:Check.Always ()
  in
  boot "chaos" ~seed cluster;
  Cluster.run_for cluster (Des.Time.sec 10);
  for round = 1 to 3 do
    (match Cluster.leader cluster with
    | Some l when round mod 2 = 0 ->
        Raft.Node.crash l;
        Cluster.run_for cluster (Des.Time.sec 4);
        Raft.Node.restart l
    | Some l ->
        Raft.Node.pause l;
        Cluster.run_for cluster (Des.Time.sec 4);
        Raft.Node.resume l
    | None -> ());
    Cluster.run_for cluster (Des.Time.sec 4)
  done;
  Cluster.check_now cluster;
  checker_ran "chaos" ~seed cluster

(* Random single-server add/remove (plus leader pauses) mid-campaign,
   with every safety and reconfiguration invariant checked after every
   delivered event.  One short hostile run per seed. *)
let reconfig_chaos ~seed =
  let conditions =
    Netsim.Conditions.(constant (profile ~rtt_ms:20. ~jitter:0.05 ()))
  in
  let cluster =
    Cluster.create ~seed ~n:3 ~config:(Raft.Config.dynatune ()) ~conditions
      ~check:Check.Always ()
  in
  boot "reconfig chaos" ~seed cluster;
  Cluster.run_for cluster (Des.Time.sec 2);
  let rng =
    Stats.Rng.split (Des.Engine.rng (Cluster.engine cluster)) "selfcheck-chaos"
  in
  for _op = 1 to 4 do
    (match Stats.Rng.int rng 4 with
    | 0 ->
        (* Grow: spawn a joiner and ask the leader to adopt it. *)
        ignore (Cluster.add_server cluster : Netsim.Node_id.t * _)
    | 1 -> (
        (* Shrink: remove a random member (the leader included — that
           exercises the automatic hand-off; an invalid pick is refused
           by the leader, which is also worth hitting). *)
        let ids = Cluster.node_ids cluster in
        let victim = List.nth ids (Stats.Rng.int rng (List.length ids)) in
        match Cluster.remove_server cluster victim with
        | `Ok _ ->
            if Cluster.await_config_quiet cluster ~timeout:(Des.Time.sec 20)
            then begin
              match Cluster.leader cluster with
              | Some l
                when not
                       (List.exists (Netsim.Node_id.equal victim)
                          (Raft.Server.members (Raft.Node.server l))) ->
                  Cluster.retire cluster victim
              | Some _ | None -> ()
            end
        | `Not_leader | `Pending | `Invalid _ -> ())
    | _ -> (
        (* Unplanned leader failure in the middle of it all. *)
        match Cluster.leader cluster with
        | Some l ->
            Raft.Node.pause l;
            Cluster.run_for cluster (Des.Time.sec 3);
            if List.exists
                 (Netsim.Node_id.equal (Raft.Node.id l))
                 (Cluster.node_ids cluster)
            then Raft.Node.resume l
        | None -> ()));
    Cluster.run_for cluster (Des.Time.sec 3)
  done;
  ignore (Cluster.await_config_quiet cluster ~timeout:(Des.Time.sec 30) : bool);
  Cluster.check_now cluster;
  checker_ran "reconfig chaos" ~seed cluster

(* Replication engine v2 under fire: a small pipelining window and tiny
   batches over a lossy, duplicating, serializing wire, with followers
   sleeping through bursts of writes.  Every delivered event runs the
   full invariant suite ([Check.Always]); at the end the replicas must
   also have converged on one store — the stale-nack rule and the
   stalled-window nudge both sit on this path. *)
let pipelined_chaos ~seed =
  let config =
    Raft.Config.with_replication ~max_inflight_appends:4 ~append_backpressure:8
      ~max_entries_per_append:8
      (Raft.Config.dynatune ())
  in
  let conditions =
    Netsim.Conditions.(
      constant (profile ~rtt_ms:20. ~jitter:0.3 ~loss:0.08 ~duplicate:0.04 ()))
  in
  let cluster =
    Cluster.create ~seed ~n:5 ~config ~conditions ~check:Check.Always ()
  in
  Netsim.Fabric.set_uniform_serialization (Cluster.fabric cluster)
    (Des.Time.us 50);
  boot "pipelined chaos" ~seed cluster;
  Cluster.run_for cluster (Des.Time.sec 2);
  let rng =
    Stats.Rng.split (Des.Engine.rng (Cluster.engine cluster)) "selfcheck-pipe"
  in
  let target = Cluster.submit_target cluster in
  let seq = ref 0 in
  for _round = 1 to 2 do
    (* A follower (or, one time in four, the leader) sleeps through the
       middle of the burst. *)
    let ids = Cluster.node_ids cluster in
    let victim = List.nth ids (Stats.Rng.int rng (List.length ids)) in
    for i = 1 to 15 do
      if i = 5 then Raft.Node.pause (Cluster.node cluster victim);
      if i = 12 then Raft.Node.resume (Cluster.node cluster victim);
      incr seq;
      ignore
        (target
           ~payload:
             (Kvsm.Command.to_payload
                (Kvsm.Command.Put
                   { key = Printf.sprintf "pipe:%d" !seq; value = "v" }))
           ~client_id:7 ~seq:!seq
           ~on_result:(fun ~committed:_ -> ()));
      Cluster.run_for cluster (Des.Time.ms 20)
    done;
    Cluster.run_for cluster (Des.Time.sec 3)
  done;
  Cluster.run_for cluster (Des.Time.sec 8);
  Cluster.check_now cluster;
  checker_ran "pipelined chaos" ~seed cluster;
  stores_converged "pipelined chaos" ~seed cluster

(* Several consensus groups on one shared fabric/clock behind the shard
   router, every delivered event running the full invariant suite in
   every group's checker.  Random group leaders sleep or crash through
   write bursts; after the quiet period each group's replicas must
   agree on that group's store — per-group convergence is also the
   cross-group isolation witness (a misrouted or cross-applied entry
   would diverge some group's digest). *)
let multiraft_chaos ~seed =
  let module Gm = Multiraft.Group_manager in
  let module Router = Multiraft.Router in
  let conditions =
    Netsim.Conditions.(constant (profile ~rtt_ms:20. ~jitter:0.1 ()))
  in
  let m =
    Gm.create ~seed ~conditions ~check:Check.Always ~groups:3 ~replicas:3
      ~config:(Raft.Config.dynatune ())
      ()
  in
  Gm.start m;
  if not (Gm.await_leaders m ~timeout:(Des.Time.sec 30)) then
    fail "multiraft chaos: initial elections incomplete (seed %Ld)" seed;
  Gm.run_for m (Des.Time.sec 2);
  let router = Router.create m in
  let rng = Stats.Rng.split (Des.Engine.rng (Gm.engine m)) "selfcheck-mr" in
  let seq = ref 0 in
  for _round = 1 to 2 do
    (* A random group's leader drops out mid-burst; one time in two it
       crashes (losing volatile state) rather than just sleeping. *)
    let g = Stats.Rng.int rng (Gm.group_count m) in
    let victim = Harness.Cluster.leader (Gm.group m g) in
    let crash = Stats.Rng.int rng 2 = 0 in
    for i = 1 to 12 do
      (match victim with
      | Some l when i = 4 ->
          if crash then Raft.Node.crash l else Raft.Node.pause l
      | Some l when i = 10 ->
          if crash then Raft.Node.restart l else Raft.Node.resume l
      | Some _ | None -> ());
      incr seq;
      ignore
        (Router.dispatch router
           (Router.Write { key = Printf.sprintf "mr:%d" !seq; value = "v" })
           ~client_id:9 ~seq:!seq
           ~on_result:(fun (_ : Router.response) -> ())
          : Kvsm.Client.submit_result);
      Gm.run_for m (Des.Time.ms 50)
    done;
    Gm.run_for m (Des.Time.sec 3)
  done;
  Gm.run_for m (Des.Time.sec 5);
  Gm.check_now m;
  Gm.iter_groups m (fun g cluster ->
      let what = Printf.sprintf "multiraft chaos: group %d" g in
      checker_ran what ~seed cluster;
      stores_converged what ~seed cluster)

(* A pinned shard plan must be a function of the seed alone: the same
   trace digest and a byte-identical merged metrics snapshot (JSON)
   whether one worker runs every shard or two share them.  [run jobs]
   returns both. *)
let jobs_invariant what run =
  let da, ma = run 1 in
  let db, mb = run 2 in
  if not (Int64.equal da db) then
    fail "%s digests differ: jobs=1 %Lx vs jobs=2 %Lx" what da db;
  if not (String.equal ma mb) then
    fail "%s metrics snapshots differ between jobs=1 and jobs=2" what

let determinism () =
  let json = Telemetry.Metrics.to_json in
  jobs_invariant "fig4" (fun jobs ->
      let r =
        Scenarios.Fig4.run ~failures:4 ~jobs ~shards:2 ~check:Check.Sample
          ~config:(Raft.Config.dynatune ()) ()
      in
      (* Uninstrumented: only the digest is compared. *)
      (r.Scenarios.Fig4.digest, ""));
  jobs_invariant "reconfig" (fun jobs ->
      let r =
        Scenarios.Reconfig.run ~rounds:2 ~jobs ~shards:2 ~check:Check.Sample
          ~instrument:true
          ~config:(Raft.Config.dynatune ())
          ()
      in
      (r.Scenarios.Reconfig.digest, json r.Scenarios.Reconfig.metrics));
  jobs_invariant "multiraft" (fun jobs ->
      let r =
        Scenarios.Multiraft.sweep ~seed:7L ~group_counts:[ 2; 3 ] ~replicas:3
          ~rates:[ 300.; 600. ] ~hold:(Des.Time.sec 1) ~check:Check.Sample
          ~instrument:true ~jobs ()
      in
      (r.Scenarios.Multiraft.digest, json r.Scenarios.Multiraft.metrics))

let broken_fixture () =
  let fake id : Check.node_view =
    {
      Check.id;
      alive = (fun () -> true);
      incarnation = (fun () -> 0);
      role = (fun () -> Raft.Types.Leader);
      term = (fun () -> 3);
      commit_index = (fun () -> 0);
      voted_for = (fun () -> None);
      last_index = (fun () -> 0);
      snapshot_index = (fun () -> 0);
      term_at = (fun _ -> None);
      entry_at = (fun _ -> None);
      voters = (fun () -> Netsim.Node_id.range 2);
      learners = (fun () -> []);
      votes = (fun () -> []);
    }
  in
  let checker =
    Check.create ~mode:Check.Always
      ~nodes:(List.map fake (Netsim.Node_id.range 2))
      ()
  in
  match Check.check_now checker with
  | () -> fail "checker missed two concurrent leaders sharing a term"
  | exception Check.Violation v ->
      if v.Check.invariant <> "election-safety" then
        fail "wrong invariant caught: %s" v.Check.invariant

(* --perf mode ---------------------------------------------------------- *)

(* Every row is a constant of the code, whatever the host's speed or
   load: a pinned-seed DES run is deterministic, and so is what it
   allocates.  A digest row must match exactly; a words row fails above
   its budget.  Wall-clock speed is perfbench's job (same-host
   compare.py pairs), never this gate's.

   The words/op budgets are the loops' measured constants.  A whole
   run's words/event reading moves a little between a process's first
   and second run of a plan (lazy initialisation), so its budget is the
   reading, taken in the order below, × 1.10 + 1. *)
type row =
  | Digest of string * (unit -> int64)
  | Budget of float * string * (unit -> float)

let ratchet reading = (reading *. 1.10) +. 1.

let perf_table () =
  let fig4 =
    lazy
      (Bench_loops.words_per_event (fun () ->
           Scenarios.Fig4.run ~seed:42L ~failures:400 ~shards:4 ~jobs:1
             ~config:(Raft.Config.dynatune ()) ()))
  in
  let multiraft =
    lazy
      (Bench_loops.words_per_event (fun () ->
           Scenarios.Multiraft.sweep ~seed:11L ~group_counts:[ 4 ] ~replicas:3
             ~rates:[ 500.; 1000. ] ~jobs:1 ()))
  in
  let per_event plan reading =
    Budget (ratchet reading, "words/event", fun () -> snd (Lazy.force plan))
  in
  [
    ( "fig4 seed=42 failures=400 shards=4 digest",
      Digest
        ( "3a819493db80435d",
          fun () -> (fst (Lazy.force fig4)).Scenarios.Fig4.digest ) );
    ("fig4 plan", per_event fig4 58.01);
    ( "multiraft seed=11 groups=4 rates=500,1000 digest",
      Digest
        ( "536b7e1522590f1d",
          fun () -> (fst (Lazy.force multiraft)).Scenarios.Multiraft.digest ) );
    ("multiraft plan", per_event multiraft 56.59);
    ( "fig8 seed=23 failures=40 shards=4 digest",
      Digest
        ( "243dba1fc941868e",
          fun () ->
            (Scenarios.Fig8.run ~seed:23L ~failures:40 ~shards:4 ~jobs:1
               ~config:(Raft.Config.dynatune ()) ())
              .Scenarios.Fig4.digest ) );
    ( "fig5sat hold=1s",
      per_event
        (lazy
          (Bench_loops.words_per_event (fun () ->
               Scenarios.Fig5.saturation ~hold:(Des.Time.sec 1) ~jobs:1 ())))
        84.48 );
  ]
  @ List.map
      (fun { Bench_loops.name; budget; make } ->
        ( name,
          Budget
            (budget, "words/op", fun () -> Bench_loops.words_per_op (make ()))
        ))
      Bench_loops.loops
  @ [
      ( "steady-state cluster",
        Budget
          (ratchet 41.29, "words/event", fun () ->
            Bench_loops.cluster_words_per_event ()) );
      ( "steady-state cluster, forensics on",
        Budget
          (ratchet 48.40, "words/event", fun () ->
            Bench_loops.cluster_words_per_event
              ~forensics:(Raft.Forensics.create ())
              ()) );
    ]

(* Every row is measured and printed, "!!" marking a failure, so one
   run shows everything that moved. *)
let run_perf () =
  let failed =
    List.filter
      (fun (name, row) ->
        let ok, reading =
          match row with
          | Digest (pinned, measure) ->
              let got = Printf.sprintf "%Lx" (measure ()) in
              (String.equal got pinned, Printf.sprintf "%16s  pinned %s" got pinned)
          | Budget (budget, unit, measure) ->
              let now = measure () in
              ( now <= budget,
                Printf.sprintf "%8.3f %-11s budget %.3f" now unit budget )
        in
        Printf.printf "%s %-48s %s\n%!" (if ok then "  " else "!!") name reading;
        not ok)
      (perf_table ())
  in
  if failed <> [] then
    fail "perf: over budget or drifted: %s"
      (String.concat ", " (List.map fst failed));
  print_endline "selfcheck --perf: every row within budget"

let usage () =
  prerr_endline "usage: selfcheck [--perf]";
  exit 2

let () =
  match Sys.argv with
  | [| _; "--perf" |] -> run_perf ()
  | [| _ |] ->
      List.iter (fun seed -> mini_chaos ~seed) [ 11L; 12L; 13L ];
      for i = 0 to 199 do
        reconfig_chaos ~seed:(Int64.of_int (1000 + i))
      done;
      for i = 0 to 199 do
        pipelined_chaos ~seed:(Int64.of_int (2000 + i))
      done;
      for i = 0 to 199 do
        multiraft_chaos ~seed:(Int64.of_int (3000 + i))
      done;
      broken_fixture ();
      determinism ();
      print_endline
        "selfcheck: invariants hold, digests deterministic, broken fixture \
         caught"
  | _ -> usage ()
