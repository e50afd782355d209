(* Chaos testing: a random fault plan (pauses, crashes, partitions and
   write bursts) drawn up front from the seed and run against a cluster
   under [Check.Always], which checks election safety and the other
   invariants on every event; at the end [Fault.verify] checks that the
   replicas converged and every acknowledged write survived. *)

module Cluster = Harness.Cluster
module Fault = Harness.Fault
module Time = Des.Time

let n = 5

(* [steps] random steps, each followed by 0.1-3.1 s of quiet, then every
   fault healed.  The draws depend only on the plan's own record of the
   nodes it paused. *)
let plan_of_seed ~seed ~steps : Fault.plan =
  let rng = Stats.Rng.create ~seed:(Int64.add seed 1000L) () in
  let paused : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let seq = ref 0 in
  (* One more node down still leaves a quorum to spare. *)
  let spare () = n - Hashtbl.length paused > (n / 2) + 1 in
  let step () : Fault.plan =
    match Stats.Rng.int rng 8 with
    | 0 when spare () ->
        let id = Stats.Rng.int rng n in
        if Hashtbl.mem paused id then []
        else (
          Hashtbl.add paused id ();
          [ Pause id ])
    | 1 -> (
        match Hashtbl.fold (fun k () _ -> Some k) paused None with
        | Some k ->
            Hashtbl.remove paused k;
            [ Resume k ]
        | None -> [])
    | 2 when spare () ->
        let id = Stats.Rng.int rng n in
        if Hashtbl.mem paused id then []
        else
          let downtime = Time.ms (50 + Stats.Rng.int rng 2000) in
          [ Crash id; Run downtime; Restart id ]
    | 3 ->
        (* 1-2 nodes split off. *)
        let k = 1 + Stats.Rng.int rng 2 and ids = Array.init n Fun.id in
        Stats.Rng.shuffle rng ids;
        [ Partition [ Array.to_list (Array.sub ids 0 k) ] ]
    | 4 -> [ Heal ]
    | 5 | 6 ->
        let k = 1 + Stats.Rng.int rng 5 in
        let first = !seq + 1 in
        seq := !seq + k;
        List.init k (fun i ->
            let seq = first + i in
            let key = Printf.sprintf "chaos:%d" seq in
            Fault.Write { seq; key; value = "x" })
    | _ -> []
  in
  let steps =
    List.init steps (fun _ ->
        let actions = step () in
        actions @ [ Run (Time.ms (100 + Stats.Rng.int rng 3000)) ])
  in
  let resumes = Hashtbl.fold (fun k () l -> Fault.Resume k :: l) paused [] in
  List.concat steps @ (Fault.Heal :: List.rev resumes) @ [ Run (Time.sec 30) ]

(* A failure names the plan: replayed, it fails at the same action. *)
let fail_with plan why =
  Alcotest.failf "%s@.plan:@.%a" why Fault.pp_plan plan

let violation v = Format.asprintf "%a" Check.pp_violation v

(* [plan] against a fresh cluster, then a leader and 10 s more.  Returns
   the cluster, the executed plan and the acknowledged keys. *)
let run_plan ~seed ~config plan =
  let c =
    Cluster.create ~seed ~n ~config ~check:Check.Always
      ~conditions:
        Netsim.Conditions.(
          constant (profile ~rtt_ms:20. ~jitter:0.1 ~loss:0.01 ()))
      ()
  in
  Cluster.start c;
  let acked = ref [] in
  let write =
    Fault.submit c ~client_id:7 ~acked:(fun k -> acked := k :: !acked)
  in
  match
    let executed = Fault.run c ~write plan in
    if Option.is_none (Cluster.await_leader c ~timeout:(Time.sec 60)) then
      fail_with plan "no leader after the plan";
    Cluster.run_for c (Time.sec 10);
    executed
  with
  | executed -> (c, executed, !acked)
  | exception Check.Violation v -> fail_with plan (violation v)

(* A [pin] is [Fault.fingerprint] of the episode, taken before the
   verdict's own checker pass; replaying the executed plan on a fresh
   cluster must reproduce it. *)
let chaos_case ?pin ~config ~seed () =
  let plan = plan_of_seed ~seed ~steps:40 in
  let c, executed, acked = run_plan ~seed ~config plan in
  Option.iter
    (fun pin ->
      Alcotest.(check string) "pinned" pin (Fault.fingerprint [ c ]);
      let again, replayed, _ = run_plan ~seed ~config executed in
      Alcotest.(check string) "replayed" pin (Fault.fingerprint [ again ]);
      Alcotest.(check bool) "replay runs every action" true
        (replayed = executed))
    pin;
  (match Fault.verify c ~acked with
  | Ok () -> ()
  | Error why -> fail_with executed why
  | exception Check.Violation v -> fail_with executed (violation v));
  (* Quorum holds most of the time: if no write commits, the test is
     vacuous. *)
  let wrote = List.exists (function Fault.Write _ -> true | _ -> false) in
  if wrote executed && acked = [] then
    fail_with executed "no write acknowledged"

let case ?pin name config seed =
  Alcotest.test_case
    (Printf.sprintf "chaos: %s, seed %Ld" name seed)
    `Slow (chaos_case ?pin ~config ~seed)

let dynatune = Raft.Config.dynatune ()

let tests =
  [
    case "static raft" (Raft.Config.static ()) 1L;
    case "static raft" (Raft.Config.static ()) 2L;
    case "dynatune" dynatune 3L
      ~pin:"a3c285530f80386d checks=58175 stores=126c507809fee8fd";
    case "dynatune" dynatune 4L;
    case "dynatune + snapshots"
      (Raft.Config.with_snapshots ~threshold:15 dynatune)
      5L;
    case "extensions + snapshots"
      (Raft.Config.with_snapshots ~threshold:10
         (Raft.Config.with_consolidated_timer dynatune))
      6L;
  ]
