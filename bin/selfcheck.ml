(* End-to-end exercise of the correctness analyses (the @check alias):

   1. four chaos sweeps under [Check.Always], each a fault mix whose
      rounds are [Fault.plan]s run by [Fault.run] and checked by
      [Fault.verify]: leader pauses and crash-restarts (3 seeds); random
      membership changes and leader pauses (200 seeds); small pipelining
      windows over a lossy, duplicating, serializing wire with nodes
      sleeping through write bursts (200 seeds); several Raft groups
      behind the shard router, group leaders sleeping or crashing
      mid-burst (200 seeds).  One seed of each is pinned and replayed;
   2. the determinism sanitizer — failover, reconfig and multiraft
      campaigns, whose shard plans do not depend on the worker count,
      must produce bit-identical trace digests and metrics snapshots
      with one worker and with many;
   3. a deliberately broken fixture — two leaders sharing a term — that
      the checker is required to catch.

   `selfcheck --perf` (the @perf alias) instead checks one table of
   host-independent constants: the fig4, multiraft and fig8 trace digests bit
   for bit, digests of the printed fig5, fig7 and extensions text at
   short holds, and minor words per operation (the Bench_loops hot
   paths) or per DES event (pinned runs) under fixed budgets.  README.md
   shows the same table; a digest or budget cell there that differs
   from this file's fails the run too. *)

module Cluster = Harness.Cluster
module Fault = Harness.Fault
module Gm = Multiraft.Group_manager
module Router = Multiraft.Router

let fail fmt =
  Format.kasprintf
    (fun m ->
      prerr_endline ("selfcheck: FAILED: " ^ m);
      exit 1)
    fmt

(* A booted system under chaos: one cluster, or a multiraft manager's
   groups on one clock.  [round r] reads the leader or membership as
   round [r] of [rounds] begins and returns the group it targets and its
   plan; [settle] is the quiet period before [Fault.verify] checks each
   group against the keys of its acknowledged writes. *)
type system = {
  groups : Cluster.t array;
  write : Fault.writer;
  acked : string list array;
  rounds : int;
  round : int -> int * Fault.plan;
  settle : unit -> unit;
}

let sec = Des.Time.sec
let id node = Netsim.Node_id.to_int (Raft.Node.id node)

let lan ?(jitter = 0.05) ?(loss = 0.) ?(duplicate = 0.) rtt_ms =
  Netsim.Conditions.(constant (profile ~rtt_ms ~jitter ~loss ~duplicate ()))

(* Boot [c] and run it [warm]; [round c rng r] then draws from the RNG
   stream [stream], split off the engine's.  Writes go to the leader as
   client 7. *)
let one_cluster ~seed ~stream ~warm ~rounds ~settle round c =
  ignore
    (Cluster.boot c ~label:(Printf.sprintf "%s (seed %Ld)" stream seed)
      : Raft.Node.t);
  Cluster.run_for c warm;
  let rng = Stats.Rng.split (Des.Engine.rng (Cluster.engine c)) stream in
  let acked = [| [] |] in
  {
    groups = [| c |];
    write =
      Fault.submit c ~client_id:7 ~acked:(fun k -> acked.(0) <- k :: acked.(0));
    acked;
    rounds;
    round = (fun r -> (0, round c rng r));
    settle = (fun () -> settle c);
  }

(* Round [r]'s burst: [count] writes [gap] apart, keys [prefix:seq]
   numbered on from the earlier rounds', each of [faults] placed before
   the write it names (1-based). *)
let burst ~prefix ~count ~gap ~faults r =
  List.concat
    (List.init count (fun i ->
         let seq = ((r - 1) * count) + i + 1 in
         List.filter_map (fun (at, a) -> if at = i + 1 then Some a else None)
           faults
         @ [
             Fault.Write
               { seq; key = Printf.sprintf "%s:%d" prefix seq; value = "v" };
             Run gap;
           ]))

(* The leader sleeps (odd rounds) or crashes (even rounds) for 4 s. *)
let mini ~seed =
  one_cluster ~seed ~stream:"selfcheck-mini" ~warm:(sec 10) ~rounds:3
    ~settle:ignore
    (fun c _ r : Fault.plan ->
      match Cluster.leader c with
      | Some l when r mod 2 = 0 ->
          [ Crash (id l); Run (sec 4); Restart (id l); Run (sec 4) ]
      | Some l -> [ Pause (id l); Run (sec 4); Resume (id l); Run (sec 4) ]
      | None -> [ Run (sec 4) ])
    (Cluster.create ~seed ~n:5 ~config:(Raft.Config.dynatune ())
       ~conditions:(lan 50.) ~check:Check.Always ())

(* Random single-server adds and removes (the leader included, which
   exercises the hand-off; a refused pick is worth hitting too), plus
   leader pauses. *)
let reconfig ~seed =
  one_cluster ~seed ~stream:"selfcheck-chaos" ~warm:(sec 2) ~rounds:4
    ~settle:(fun c ->
      ignore (Cluster.await_config_quiet c ~timeout:(sec 30) : bool))
    (fun c rng _ : Fault.plan ->
      match Stats.Rng.int rng 4 with
      | 0 -> [ Add_server; Run (sec 3) ]
      | 1 ->
          let ids = Cluster.node_ids c in
          let victim = List.nth ids (Stats.Rng.int rng (List.length ids)) in
          [ Remove_server (Netsim.Node_id.to_int victim); Run (sec 3) ]
      | _ -> (
          match Cluster.leader c with
          | Some l -> [ Pause (id l); Run (sec 3); Resume (id l); Run (sec 3) ]
          | None -> [ Run (sec 3) ]))
    (Cluster.create ~seed ~n:3 ~config:(Raft.Config.dynatune ())
       ~conditions:(lan 20.) ~check:Check.Always ())

(* Replication engine v2 under fire: a small pipelining window and tiny
   batches over a lossy, duplicating, serializing wire, a random node
   sleeping through the middle of each write burst.  The stale-nack rule
   and the stalled-window nudge sit on the path to convergence. *)
let pipelined ~seed =
  let c =
    Cluster.create ~seed ~n:5 ~check:Check.Always
      ~config:
        (Raft.Config.with_replication ~max_inflight_appends:4
           ~append_backpressure:8 ~max_entries_per_append:8
           (Raft.Config.dynatune ()))
      ~conditions:(lan ~jitter:0.3 ~loss:0.08 ~duplicate:0.04 20.)
      ()
  in
  Netsim.Fabric.set_uniform_serialization (Cluster.fabric c) (Des.Time.us 50);
  one_cluster ~seed ~stream:"selfcheck-pipe" ~warm:(sec 2) ~rounds:2
    ~settle:(fun c -> Cluster.run_for c (sec 8))
    (fun c rng r ->
      let ids = Cluster.node_ids c in
      let v = List.nth ids (Stats.Rng.int rng (List.length ids)) in
      let v = Netsim.Node_id.to_int v in
      burst ~prefix:"pipe" ~count:15 ~gap:(Des.Time.ms 20)
        ~faults:[ (5, Fault.Pause v); (12, Fault.Resume v) ]
        r
      @ [ Run (sec 3) ])
    c

(* Three groups on one fabric and clock behind the shard router.  A
   random group's leader sleeps or crashes through a write burst;
   per-group convergence is also the isolation witness (a misrouted or
   cross-applied entry would diverge some group's store). *)
let multiraft ~seed =
  let m =
    Gm.create ~seed ~conditions:(lan ~jitter:0.1 20.) ~check:Check.Always
      ~groups:3 ~replicas:3 ~config:(Raft.Config.dynatune ()) ()
  in
  Gm.start m;
  if not (Gm.await_leaders m ~timeout:(sec 30)) then
    fail "multiraft chaos: initial elections incomplete (seed %Ld)" seed;
  Gm.run_for m (sec 2);
  let router = Router.create m in
  let rng = Stats.Rng.split (Des.Engine.rng (Gm.engine m)) "selfcheck-mr" in
  let groups = Array.init (Gm.group_count m) (Gm.group m) in
  let acked = Array.make (Array.length groups) [] in
  let commit key = function
    | Router.Committed ->
        let g = Router.group_of_key router key in
        acked.(g) <- key :: acked.(g)
    | Router.Value _ | Router.Failed -> ()
  in
  let round r =
    let g = Stats.Rng.int rng (Array.length groups) in
    let faults =
      match (Cluster.leader groups.(g), Stats.Rng.int rng 2) with
      | Some l, 0 -> [ (4, Fault.Crash (id l)); (10, Fault.Restart (id l)) ]
      | Some l, _ -> [ (4, Fault.Pause (id l)); (10, Fault.Resume (id l)) ]
      | None, _ -> []
    in
    ( g,
      burst ~prefix:"mr" ~count:12 ~gap:(Des.Time.ms 50) ~faults r
      @ [ Run (sec 3) ] )
  in
  {
    groups;
    write =
      (fun ~seq ~key ~value ->
        ignore
          (Router.dispatch router (Router.Write { key; value }) ~client_id:9
             ~seq ~on_result:(commit key)
            : Kvsm.Client.submit_result));
    acked;
    rounds = 2;
    round;
    settle = (fun () -> Gm.run_for m (sec 5));
  }

(* One seed per sweep: its run's [Fault.fingerprint], which a replay of
   its executed rounds on a fresh system must reproduce. *)
let pins =
  [
    (11L, "1ce8f975f9e057a6 checks=6354 stores=92dd9819c3be0cd8");
    (1000L, "3e7a2248935f9211 checks=888 stores=be0529d9a96c13c5");
    (2000L, "6d8cded5f6084da1 checks=29403 stores=a1f161991a63fdff");
    (3000L, "5cab983931f59f61 checks=3037,3037,3037 stores=df2a9e3f8195e704");
  ]

(* One run: play the rounds (or replay recorded ones), settle, verify
   each group; returns the executed rounds and the fingerprint.  A
   failure names the sweep, the seed and the rounds played, the one that
   raised as planned (a replay raises at the same action). *)
let chaos name setup ?replay seed =
  let sys = setup ~seed in
  let pp_round ppf (g, plan) =
    Format.fprintf ppf "group %d: %a@," g Fault.pp_plan plan
  in
  let report rounds why =
    fail "%s, seed %Ld: %s@.@[<v>plan, by round:@,%a@]" name seed why
      (Format.pp_print_list pp_round) rounds
  in
  let violation v = Format.asprintf "%a" Check.pp_violation v in
  let rec play r played =
    if r > sys.rounds then List.rev played
    else
      let g, plan =
        match replay with
        | Some rounds -> List.nth rounds (r - 1)
        | None -> sys.round r
      in
      match Fault.run sys.groups.(g) ~write:sys.write plan with
      | executed -> play (r + 1) ((g, executed) :: played)
      | exception Check.Violation v ->
          report (List.rev ((g, plan) :: played)) (violation v)
  in
  let rounds = play 1 [] in
  let verify g c =
    Fault.verify c ~acked:sys.acked.(g)
    |> Result.iter_error (fun why ->
           report rounds (Printf.sprintf "group %d: %s" g why))
  in
  (try
     sys.settle ();
     Array.iteri verify sys.groups
   with Check.Violation v -> report rounds (violation v));
  (rounds, Fault.fingerprint (Array.to_list sys.groups))

let sweep (name, seeds, setup) =
  List.iter
    (fun seed ->
      let rounds, got = chaos name setup seed in
      match List.assoc_opt seed pins with
      | None -> ()
      | Some want ->
          let again = snd (chaos name setup ~replay:rounds seed) in
          if not (String.equal want got && String.equal got again) then
            fail "%s: pinned seed %Ld moved: run %s, replay %s, pinned %s" name
              seed got again want)
    seeds

let seeds first = List.init 200 (fun i -> Int64.add first (Int64.of_int i))

(* A shard plan is a function of the seed and the trial count alone: the
   same trace digest and a byte-identical merged metrics snapshot (JSON)
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
        Scenarios.Fig4.run ~failures:4 ~jobs ~check:Check.Always
          ~config:(Raft.Config.dynatune ()) ()
      in
      (* Uninstrumented: only the digest is compared. *)
      (r.Scenarios.Fig4.digest, ""));
  jobs_invariant "reconfig" (fun jobs ->
      let r =
        Scenarios.Reconfig.run ~rounds:2 ~jobs ~check:Check.Always
          ~instrument:true
          ~config:(Raft.Config.dynatune ())
          ()
      in
      (r.Scenarios.Reconfig.digest, json r.Scenarios.Reconfig.metrics));
  jobs_invariant "multiraft" (fun jobs ->
      let r =
        Scenarios.Multiraft.sweep ~seed:7L ~group_counts:[ 2; 3 ] ~replicas:3
          ~rates:[ 300.; 600. ] ~hold:(Des.Time.sec 1) ~check:Check.Always
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
    Check.create ~nodes:(List.map fake (Netsim.Node_id.range 2)) ()
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

(* A figure's rendered text, as [bench] prints it. *)
let text_digest print results =
  Check.Digest.of_string (Format.asprintf "%a" print results)

(* The words one store retains per key, over 25,600 keys of the
   [c<id>-k<slot>] shape (25 clients of 1024 slots, each a 64-byte
   value), applied as committed Puts.  The payloads are what the log
   holds anyway, so their words are not the store's. *)
let store_words_per_key () =
  let keys = 25 * 1024 in
  let payloads =
    Array.init keys (fun i ->
        Kvsm.Command.client_put_payload ~client_id:(1 + (i / 1024))
          ~slot:(i mod 1024) ~value:(String.make 64 'v'))
  in
  let store = Kvsm.Store.create () in
  Array.iteri
    (fun i payload ->
      ignore
        (Kvsm.Store.apply_entry store
           {
             Raft.Log.term = 1;
             index = i + 1;
             command = Raft.Log.Data { payload; client_id = 1; seq = i };
           }
          : Kvsm.Store.result option))
    payloads;
  float_of_int
    (Obj.reachable_words (Obj.repr (store, payloads))
    - Obj.reachable_words (Obj.repr payloads))
  /. float_of_int keys

(* Retained words of one follower in a 65-member group, built from a
   static config: its configuration, log, pool and scratch state. *)
let server_words () =
  let server =
    Raft.Server.create ~instrument:false ~congestion:(fun _ -> 0)
      ~id:(Netsim.Node_id.of_int 0)
      ~peers:(List.tl (Netsim.Node_id.range 65))
      ~config:(Raft.Config.static ())
      ~rng:(Stats.Rng.create ~seed:1L ())
      ()
  in
  float_of_int (Obj.reachable_words (Obj.repr server))

let perf_table () =
  let fig4 =
    lazy
      (Bench_loops.words_per_event (fun () ->
           Scenarios.Fig4.run ~seed:42L ~failures:400 ~jobs:1
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
    ("fig4 plan", per_event fig4 19.04);
    ( "multiraft seed=11 groups=4 rates=500,1000 digest",
      Digest
        ( "536b7e1522590f1d",
          fun () -> (fst (Lazy.force multiraft)).Scenarios.Multiraft.digest ) );
    ("multiraft plan", per_event multiraft 23.65);
    ( "fig8 seed=23 failures=40 shards=4 digest",
      Digest
        ( "243dba1fc941868e",
          fun () ->
            (Scenarios.Fig8.run ~seed:23L ~failures:40 ~jobs:1
               ~config:(Raft.Config.dynatune ()) ())
              .Scenarios.Fig4.digest ) );
    ( "fig5 text hold=200ms digest",
      Digest
        ( "134b56572cec542a",
          fun () ->
            text_digest Scenarios.Fig5.print
              (Scenarios.Fig5.compare_modes ~hold:(Des.Time.ms 200) ~jobs:1 ())
        ) );
    ( "fig7 text hold=10s n=5,17 digest",
      Digest
        ( "86c45f7fa2c6583f",
          fun () ->
            text_digest Scenarios.Fig7.print
              (Scenarios.Fig7.compare_modes ~hold:(Des.Time.sec 10) ~jobs:1
                 ~ns:[ 5; 17 ] ()) ) );
    ( "extensions text hold=100ms digest",
      Digest
        ( "6ed8549e1c6f1814",
          fun () ->
            text_digest Scenarios.Extensions.print
              (Scenarios.Extensions.run ~hold:(Des.Time.ms 100) ~jobs:1 ()) ) );
    ( "fig5sat hold=1s",
      per_event
        (lazy
          (Bench_loops.words_per_event (fun () ->
               Scenarios.Fig5.saturation ~hold:(Des.Time.sec 1) ~jobs:1 ())))
        32.73 );
  ]
  @ List.map
      (fun { Bench_loops.name; budget; make } ->
        ( name,
          Budget
            (budget, "words/op", fun () -> Bench_loops.words_per_op (make ()))
        ))
      Bench_loops.loops
  @ [
      ( "kv store retained words per key",
        Budget (2.561, "words/key", store_words_per_key) );
      ( "log retained words per entry (one replica)",
        Budget (9.006, "words/entry", Bench_loops.log_words_per_entry) );
      ( "server retained words, 65 members",
        Budget (554., "words", server_words) );
      ( "steady-state cluster",
        Budget
          (ratchet 13.86, "words/event", fun () ->
            Bench_loops.cluster_words_per_event ()) );
      ( "steady-state cluster, forensics on",
        Budget
          (ratchet 13.98, "words/event", fun () ->
            Bench_loops.cluster_words_per_event
              ~forensics:(Raft.Forensics.create ())
              ()) );
    ]

(* README.md's copy of the table: the rows below its header line, up to
   the first line that is not a table row, as (row name, pinned digest or
   budget) with backticks dropped. *)
let readme_header =
  "| `selfcheck --perf` row | pinned digest or budget | unit | seed was |"

let readme_rows () =
  let cell c =
    String.trim c |> String.split_on_char '`' |> String.concat ""
  in
  let rec rows = function
    | l :: rest when String.starts_with ~prefix:"| " l -> (
        match String.split_on_char '|' l with
        | _ :: name :: value :: _ -> (cell name, cell value) :: rows rest
        | _ -> rows rest)
    | _ -> []
  in
  let rec find = function
    | l :: _ :: rest when String.equal l readme_header -> rows rest
    | _ :: rest -> find rest
    | [] -> []
  in
  find
    (String.split_on_char '\n'
       (In_channel.with_open_bin "README.md" In_channel.input_all))

(* Each mismatch between the README's table and [table], by row; the
   row's own line below shows the table's value. *)
let readme_drift table =
  let readme = readme_rows () in
  let matches got = function
    | Digest (pinned, _) -> String.equal got pinned
    | Budget (budget, _, _) -> (
        match float_of_string_opt got with
        | Some v -> Float.abs (v -. budget) < 0.005
        | None -> false)
  in
  List.filter_map
    (fun (name, row) ->
      match List.assoc_opt name readme with
      | None -> Some (Printf.sprintf "README.md lacks row %S" name)
      | Some got when matches got row -> None
      | Some got -> Some (Printf.sprintf "README.md row %S reads %s" name got))
    table
  @ List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name table then None
        else Some (Printf.sprintf "README.md row %S is not in the table" name))
      readme

(* Every row is measured and printed, "!!" marking a failure, so one
   run shows everything that moved. *)
let run_perf () =
  let table = perf_table () in
  let drift = readme_drift table in
  List.iter (fun d -> Printf.printf "!! %s\n%!" d) drift;
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
      table
  in
  if failed <> [] || drift <> [] then
    fail "perf: over budget or drifted: %s"
      (String.concat ", " (List.map fst failed @ drift));
  print_endline "selfcheck --perf: every row within budget"

let usage () =
  prerr_endline "usage: selfcheck [--perf]";
  exit 2

let () =
  match Sys.argv with
  | [| _; "--perf" |] -> run_perf ()
  | [| _ |] ->
      List.iter sweep
        [
          ("mini chaos", [ 11L; 12L; 13L ], mini);
          ("reconfig chaos", seeds 1000L, reconfig);
          ("pipelined chaos", seeds 2000L, pipelined);
          ("multiraft chaos", seeds 3000L, multiraft);
        ];
      broken_fixture ();
      determinism ();
      print_endline
        "selfcheck: invariants hold, digests deterministic, broken fixture \
         caught"
  | _ -> usage ()
