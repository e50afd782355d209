(* Tests for the multiraft layer: group manager shape, shard routing and
   cross-group isolation, leader-hint caching and refresh, group-scoped
   metrics, the [shard_of_key] partition properties, and the sweep's
   jobs-invariance. *)

module Q = QCheck
module Gm = Multiraft.Group_manager
module Router = Multiraft.Router
module Cluster = Harness.Cluster

let lan = Netsim.Conditions.(constant (profile ~rtt_ms:10. ~jitter:0.02 ()))

let make ?(seed = 21L) ?check ?telemetry ?(groups = 3) ?(replicas = 3) () =
  let m =
    Gm.create ~seed ~conditions:lan ?check ?telemetry ~groups ~replicas
      ~config:(Raft.Config.dynatune ())
      ()
  in
  Gm.start m;
  Alcotest.(check bool)
    "every group elected" true
    (Gm.await_leaders m ~timeout:(Des.Time.sec 30));
  m

(* {2 Manager shape} *)

let test_manager_shape () =
  let m =
    Gm.create ~seed:3L ~groups:4 ~replicas:3
      ~config:(Raft.Config.dynatune ())
      ()
  in
  Alcotest.(check int) "group count" 4 (Gm.group_count m);
  Alcotest.(check int) "replicas" 3 (Gm.replicas m);
  Alcotest.(check int) "node base of g2" 6 (Gm.node_base m 2);
  Alcotest.(check int)
    "id 7 belongs to g2" 2
    (Gm.group_of_node m (Netsim.Node_id.of_int 7));
  Alcotest.(check int) "group size" 3 (Cluster.size (Gm.group m 1));
  Alcotest.(check bool) "out-of-range group raises" true
    (try
       ignore (Gm.group m 4);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "foreign node id raises" true
    (try
       ignore (Gm.group_of_node m (Netsim.Node_id.of_int 12) : int);
       false
     with Invalid_argument _ -> true)

let test_manager_rejects_empty () =
  Alcotest.(check bool) "groups=0 rejected" true
    (try
       ignore
         (Gm.create ~groups:0 ~replicas:3 ~config:(Raft.Config.dynatune ()) ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "replicas=0 rejected" true
    (try
       ignore
         (Gm.create ~groups:2 ~replicas:0 ~config:(Raft.Config.dynatune ()) ());
       false
     with Invalid_argument _ -> true)

(* {2 Shard routing and cross-group isolation} *)

(* Every written key lands in exactly the store of the group
   [shard_of_key] names — and in no other group's store. *)
let test_routing_isolation () =
  let m = make ~seed:31L ~groups:3 () in
  let router = Router.create m in
  let keys = List.init 30 (fun i -> Printf.sprintf "iso:%d" i) in
  List.iteri
    (fun i key ->
      ignore
        (Router.dispatch router
           (Router.Write { key; value = "v" ^ key })
           ~client_id:1 ~seq:(i + 1)
           ~on_result:(fun (_ : Router.response) -> ())
          : Kvsm.Client.submit_result);
      Gm.run_for m (Des.Time.ms 5))
    keys;
  Gm.run_for m (Des.Time.sec 3);
  List.iter
    (fun key ->
      let home = Router.shard_of_key ~groups:3 key in
      Gm.iter_groups m (fun g cluster ->
          List.iter
            (fun id ->
              let found = Kvsm.Store.find (Cluster.store cluster id) key in
              if g = home then
                Alcotest.(check (option string))
                  (Printf.sprintf "%s present in its group" key)
                  (Some ("v" ^ key)) found
              else
                Alcotest.(check (option string))
                  (Printf.sprintf "%s absent from group %d" key g)
                  None found)
            (Cluster.node_ids cluster)))
    keys

let test_leader_distribution_sums () =
  let m = make ~seed:33L ~groups:5 () in
  let dist = Gm.leader_distribution m in
  Alcotest.(check int) "slots" 3 (Array.length dist);
  Alcotest.(check int)
    "one leader per group" 5
    (Array.fold_left ( + ) 0 dist);
  Alcotest.(check int) "no group leaderless" 0 (Gm.leaderless m)

(* {2 Router hint cache} *)

let test_hint_learned_and_refreshed () =
  let m = make ~seed:37L ~groups:2 () in
  let router = Router.create m in
  let key = "hint:k" in
  let g = Router.group_of_key router key in
  Alcotest.(check bool) "cold cache" true
    (match Router.hint router g with None -> true | Some _ -> false);
  let committed = ref false in
  ignore
    (Router.dispatch router
       (Router.Write { key; value = "v1" })
       ~client_id:2 ~seq:1
       ~on_result:(fun r ->
         match r with Router.Committed -> committed := true | _ -> ())
      : Kvsm.Client.submit_result);
  Gm.run_for m (Des.Time.sec 2);
  Alcotest.(check bool) "first write committed" true !committed;
  let cluster = Gm.group m g in
  let old_leader =
    match Cluster.leader cluster with
    | Some l -> l
    | None -> Alcotest.fail "group lost its leader"
  in
  Alcotest.(check bool) "hint learned the leader" true
    (match Router.hint router g with
    | Some id -> Netsim.Node_id.equal id (Raft.Node.id old_leader)
    | None -> false);
  (* Depose the hinted leader.  The stale hint answers [`Not_leader]
     (with whatever that node believes), which the router installs; the
     deposed node may well win the leadership back once resumed, so the
     contract under churn is only: refreshes are recorded, and once a
     write commits again the hint names the leader that took it. *)
  Raft.Node.pause old_leader;
  (match Cluster.await_leader cluster ~timeout:(Des.Time.sec 30) with
  | Some _ -> ()
  | None -> Alcotest.fail "no successor elected");
  Raft.Node.resume old_leader;
  (* Leadership can flap for a few seconds while the deposed node
     rejoins (it may even win the term back); let it settle so the
     post-failover assertions are about a stable regime. *)
  Gm.run_for m (Des.Time.sec 15);
  let committed_again = ref false in
  let seq = ref 1 in
  while (not !committed_again) && !seq < 10 do
    incr seq;
    ignore
      (Router.dispatch router
         (Router.Write { key; value = "v2" })
         ~client_id:2 ~seq:!seq
         ~on_result:(fun r ->
           match r with Router.Committed -> committed_again := true | _ -> ())
        : Kvsm.Client.submit_result);
    Gm.run_for m (Des.Time.sec 1)
  done;
  Alcotest.(check bool) "a write committed after failover" true
    !committed_again;
  Alcotest.(check bool) "refresh recorded" true
    (Router.hint_refreshes router >= 1);
  (* Leadership may keep moving (the deposed node can win terms back),
     so the stable contract is only that the cache stays warm: the node
     that took the committed write is hinted. *)
  Alcotest.(check bool) "hint warm after recovery" true
    (match Router.hint router g with Some _ -> true | None -> false)

(* {2 Front-door protocol} *)

let test_dispatch_protocol () =
  let m = make ~seed:41L ~groups:2 () in
  let router = Router.create m in
  let wrote = ref false and read_hit = ref None and read_miss = ref None in
  ignore
    (Router.dispatch router
       (Router.Write { key = "proto:k"; value = "42" })
       ~client_id:3 ~seq:1
       ~on_result:(fun r ->
         match r with Router.Committed -> wrote := true | _ -> ())
      : Kvsm.Client.submit_result);
  Gm.run_for m (Des.Time.sec 2);
  ignore
    (Router.dispatch router
       (Router.Read { key = "proto:k" })
       ~client_id:3 ~seq:2
       ~on_result:(fun r ->
         match r with Router.Value v -> read_hit := Some v | _ -> ())
      : Kvsm.Client.submit_result);
  ignore
    (Router.dispatch router
       (Router.Read { key = "proto:absent" })
       ~client_id:3 ~seq:3
       ~on_result:(fun r ->
         match r with Router.Value v -> read_miss := Some v | _ -> ())
      : Kvsm.Client.submit_result);
  Gm.run_for m (Des.Time.sec 2);
  Alcotest.(check bool) "write committed" true !wrote;
  Alcotest.(check (option (option string)))
    "linearizable read sees the write"
    (Some (Some "42"))
    !read_hit;
  Alcotest.(check (option (option string)))
    "read of an absent key" (Some None) !read_miss

(* The ReadIndex path end to end, pinned: 8 groups of 3 under a mixed
   read/write stream through [Router.dispatch] for 2 s of virtual time.
   The digest covers every group's trace; the served-read count and the
   multiset of read latencies (as an MD5 of the sorted values) cover
   what clients observe. *)
let test_dispatch_reads_pinned () =
  let m = make ~seed:55L ~groups:8 () in
  let router = Router.create m in
  let engine = Gm.engine m in
  let served = ref [] and failed = ref 0 and committed = ref 0 in
  let read key ~seq =
    let asked = Des.Engine.now engine in
    ignore
      (Router.dispatch router (Router.Read { key }) ~client_id:7 ~seq
         ~on_result:(fun r ->
           match r with
           | Router.Value _ ->
               served := Des.Time.diff (Des.Engine.now engine) asked :: !served
           | Router.Committed | Router.Failed -> incr failed)
        : Kvsm.Client.submit_result)
  in
  (* Every 2 ms one write and four reads: each group sees a read about
     every 4 ms against a 10 ms RTT, so several wait at once. *)
  for i = 0 to 999 do
    ignore
      (Router.dispatch router
         (Router.Write
            { key = Printf.sprintf "pin:%d" (i mod 37); value = string_of_int i })
         ~client_id:7 ~seq:(5 * i)
         ~on_result:(fun r ->
           match r with Router.Committed -> incr committed | _ -> ())
        : Kvsm.Client.submit_result);
    for j = 1 to 4 do
      read (Printf.sprintf "pin:%d" (((i * 7) + j) mod 37)) ~seq:((5 * i) + j)
    done;
    Gm.run_for m (Des.Time.ms 2)
  done;
  Gm.run_for m (Des.Time.sec 1);
  let latencies =
    List.sort Int.compare !served |> List.map string_of_int |> String.concat ","
  in
  Alcotest.(check string) "digest" "d1077af652228c8c"
    (Printf.sprintf "%016Lx" (Gm.digest m));
  Alcotest.(check int) "reads served" 4000 (List.length !served);
  Alcotest.(check int) "reads failed" 0 !failed;
  Alcotest.(check int) "writes committed" 1000 !committed;
  Alcotest.(check string) "read latency multiset"
    "2c43bb186c7a9bf38c2f3d943c46ff13"
    (Digest.to_hex (Digest.string latencies))

(* {2 Group-scoped metrics} *)

let test_metrics_prefixing () =
  let telemetry = Telemetry.Metrics.create () in
  let m = make ~seed:43L ~telemetry ~groups:2 () in
  Gm.run_for m (Des.Time.sec 5);
  Gm.collect_metrics m;
  let json = Telemetry.Metrics.to_json (Telemetry.Metrics.snapshot telemetry) in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "snapshot mentions %S" needle)
        true
        (let n = String.length json and m = String.length needle in
         let rec go i =
           i + m <= n
           && (String.equal (String.sub json i m) needle || go (i + 1))
         in
         go 0))
    [ "g0/raft"; "g1/raft"; "multiraft/groups"; "leader_changes"; "des" ]

(* {2 Partition function properties} *)

let prop_shard_total_and_stable =
  Q.Test.make ~count:500 ~name:"shard_of_key: total, in range, stable"
    Q.(pair (string_of_size (Q.Gen.int_range 0 64)) (int_range 1 128))
    (fun (key, groups) ->
      let s = Router.shard_of_key ~groups key in
      s >= 0 && s < groups && s = Router.shard_of_key ~groups key)

let prop_shard_stable_across_jobs =
  Q.Test.make ~count:30 ~name:"shard_of_key: identical under campaign jobs"
    Q.(pair (small_list (string_of_size (Q.Gen.int_range 0 32))) (int_range 1 64))
    (fun (keys, groups) ->
      let shards jobs =
        Parallel.Campaign.all ~jobs
          (List.map (fun k () -> Router.shard_of_key ~groups k) keys)
      in
      shards 1 = shards 2)

(* {2 Scenario: sweep determinism and smoke} *)

let test_sweep_jobs_identical () =
  let run jobs =
    Scenarios.Multiraft.sweep ~seed:5L ~group_counts:[ 1; 2 ] ~replicas:3
      ~rates:[ 200. ] ~hold:(Des.Time.ms 500) ~instrument:true ~jobs ()
  in
  let a = run 1 and b = run 2 in
  Alcotest.(check int64)
    "sweep digest identical at jobs 1 and 2" a.Scenarios.Multiraft.digest
    b.Scenarios.Multiraft.digest;
  Alcotest.(check string)
    "merged metrics byte-identical"
    (Telemetry.Metrics.to_json a.Scenarios.Multiraft.metrics)
    (Telemetry.Metrics.to_json b.Scenarios.Multiraft.metrics)

let test_scenario_smoke () =
  let c =
    Scenarios.Multiraft.run_one ~seed:9L ~groups:2 ~rates:[ 300. ]
      ~hold:(Des.Time.sec 1) ()
  in
  Alcotest.(check int)
    "one level per rate" 1
    (List.length c.Scenarios.Multiraft.ramp.levels);
  Alcotest.(check bool)
    "served some load" true
    (c.Scenarios.Multiraft.ramp.peak_rps > 0.);
  Alcotest.(check int)
    "every group led" 2
    (Array.fold_left ( + ) 0 c.Scenarios.Multiraft.leader_distribution);
  Alcotest.(check bool)
    "router was exercised" true
    (c.Scenarios.Multiraft.hint_hits + c.Scenarios.Multiraft.hint_misses > 0)

(* The DES event pool's stated bound, on the cell `selfcheck --perf`
   pins (same derived seed, group count and rates). *)
let test_pinned_plan_pool_bound () =
  let engine = ref None in
  let cell =
    Scenarios.Multiraft.run_one ~seed:(Stats.Rng.derive 11L 0) ~groups:4
      ~rates:[ 500.; 1000. ]
      ~on_manager:(fun m -> engine := Some (Gm.engine m))
      ()
  in
  let st = Des.Engine.stats (Option.get !engine) in
  Alcotest.(check bool) "ran" true (cell.Scenarios.Multiraft.events > 0);
  Alcotest.(check bool)
    (Printf.sprintf "pool %d <= heap high water %d + wheel high water %d"
       st.Des.Engine.pool_size st.Des.Engine.heap_high_water
       st.Des.Engine.wheel_high_water)
    true
    (st.Des.Engine.pool_size
    <= st.Des.Engine.heap_high_water + st.Des.Engine.wheel_high_water)

(* {2 One host for every group} *)

(* A group grows on the manager's host: the joiner takes the next id
   past every group's range, so it collides with no other group's
   node, and the leader accepts it. *)
let test_group_add_server () =
  let m = make ~seed:47L ~groups:2 () in
  let id, result = Cluster.add_server (Gm.group m 0) in
  Alcotest.(check bool)
    (Printf.sprintf "joiner id %d >= 6" (Netsim.Node_id.to_int id))
    true
    (Netsim.Node_id.to_int id >= 6);
  match result with
  | `Ok _ -> ()
  | `Not_leader | `Pending | `Invalid _ ->
      Alcotest.fail "the group's leader refused the joiner"

(* A joiner's id lies past every group's base range: the manager maps
   it to the group that added it, and a redirect naming it routes
   there. *)
let test_joiner_id_maps_to_its_group () =
  let m = make ~seed:47L ~groups:2 () in
  let id, _ = Cluster.add_server (Gm.group m 0) in
  Alcotest.(check int) "joiner id" 6 (Netsim.Node_id.to_int id);
  Alcotest.(check int) "joiner's group" 0 (Gm.group_of_node m id);
  Gm.run_for m (Des.Time.sec 1);
  let router = Router.create m in
  let result =
    Router.route router id ~payload:"P1:k1:v" ~client_id:1 ~seq:1
      ~on_result:(fun ~committed:_ -> ())
  in
  Alcotest.(check bool) "hint installed on group 0" true
    (match Router.hint router 0 with
    | Some h -> Netsim.Node_id.equal h id
    | None -> false);
  Alcotest.(check bool) "group 1 untouched" true
    (Option.is_none (Router.hint router 1));
  match result with
  | `Not_leader (Some leader) ->
      Alcotest.(check int) "the learner names group 0's leader" 0
        (Gm.group_of_node m leader)
  | `Not_leader None | `Accepted ->
      Alcotest.fail "a learner must redirect to its group's leader"

(* One bridge per group: each process names only the link and egress
   tracks between its own group's nodes. *)
let test_group_trace_own_links () =
  let m = make ~seed:49L ~groups:2 () in
  Netsim.Fabric.set_uniform_serialization (Gm.fabric m) (Des.Time.us 50);
  let sink = Telemetry.Chrome_trace.create () in
  let bridges =
    List.init 2 (fun g -> Harness.Tracing.attach ~pid:(g + 1) (Gm.group m g) sink)
  in
  Gm.run_for m (Des.Time.sec 2);
  List.iter Harness.Tracing.finish bridges;
  let tracks = Array.make 2 [] in
  List.iter
    (fun line ->
      match
        Scanf.sscanf line " {\"ph\": \"C\", \"name\": \"%s@\", \"pid\": %d"
          (fun name pid -> (name, pid))
      with
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> ()
      | name, pid -> (
          match
            Scanf.sscanf name "%s n%d->n%d%!" (fun kind a b -> (kind, a, b))
          with
          | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> ()
          | kind, a, b ->
              tracks.(pid - 1) <- (kind, a, b) :: tracks.(pid - 1)))
    (String.split_on_char '\n' (Telemetry.Chrome_trace.to_string sink));
  Array.iteri
    (fun g named ->
      let own id = id / 3 = g in
      let links =
        List.sort_uniq Stdlib.compare
          (List.filter_map
             (fun (kind, a, b) ->
               if String.equal kind "link" then Some (a, b) else None)
             named)
      in
      Alcotest.(check int)
        (Printf.sprintf "group %d: one link track per own pair" g)
        6 (List.length links);
      List.iter
        (fun (kind, a, b) ->
          Alcotest.(check bool)
            (Printf.sprintf "group %d names %s n%d->n%d" g kind a b)
            true
            (own a && own b))
        named)
    tracks

(* The host folds engine statistics once, whichever handle asks. *)
let test_collect_once_per_host () =
  let telemetry = Telemetry.Metrics.create () in
  let m = make ~seed:51L ~telemetry ~groups:2 () in
  Gm.run_for m (Des.Time.sec 1);
  Gm.collect_metrics m;
  Cluster.collect_metrics (Gm.group m 1);
  Gm.collect_metrics m;
  Alcotest.(check int)
    "des/events_processed counted once"
    (Des.Engine.processed_events (Gm.engine m))
    (Telemetry.Metrics.Counter.value
       (Telemetry.Metrics.counter telemetry ~scope:"des"
          ~name:"events_processed" ()))

(* Two groups partitioned at once on one host: each partition cuts
   only its own group, healing one leaves the other split, and a group
   cannot partition another group's node. *)
let test_group_partition_own () =
  let m = make ~seed:53L ~groups:2 () in
  let fabric = Gm.fabric m in
  let g0 = Gm.group m 0 and g1 = Gm.group m 1 in
  let split c =
    let leader = Raft.Node.id (Option.get (Cluster.leader c)) in
    ( leader,
      List.filter
        (fun id -> not (Netsim.Node_id.equal id leader))
        (Cluster.node_ids c) )
  in
  let leader0, followers0 = split g0 in
  let _, followers1 = split g1 in
  let lone1 = List.hd followers1 in
  let rest1 =
    List.filter
      (fun id -> not (Netsim.Node_id.equal id lone1))
      (Cluster.node_ids g1)
  in
  Cluster.partition g0 [ [ leader0 ]; followers0 ];
  Cluster.partition g1 [ [ lone1 ]; rest1 ];
  let reach a b = Netsim.Fabric.reachable fabric a b in
  let group0_split () =
    List.iter
      (fun f ->
        Alcotest.(check bool) "group 0's old leader is cut off" false
          (reach leader0 f))
      followers0
  in
  group0_split ();
  Alcotest.(check bool) "group 1's majority side connected" true
    (reach (List.nth rest1 0) (List.nth rest1 1));
  Alcotest.(check bool) "group 1's lone follower cut off" false
    (reach lone1 (List.hd rest1));
  Cluster.heal_partition g1;
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool) "group 1 healed" true (reach a b))
        (Cluster.node_ids g1))
    (Cluster.node_ids g1);
  group0_split ();
  let router = Router.create m in
  let key =
    List.find
      (fun k -> Router.group_of_key router k = 1)
      (List.init 16 (fun i -> Printf.sprintf "own:%d" i))
  in
  let committed = ref false in
  ignore
    (Router.dispatch router
       (Router.Write { key; value = "v" })
       ~client_id:5 ~seq:1
       ~on_result:(function
         | Router.Committed -> committed := true
         | Router.Value _ | Router.Failed -> ())
      : Kvsm.Client.submit_result);
  Gm.run_for m (Des.Time.sec 5);
  Alcotest.(check bool) "group 0 elected among its followers" true
    (match Cluster.leader g0 with
    | Some l -> List.exists (Netsim.Node_id.equal (Raft.Node.id l)) followers0
    | None -> false);
  Alcotest.(check bool) "group 1's write committed" true !committed;
  Alcotest.(check bool) "group 1 cannot partition group 0's node" true
    (try
       Cluster.partition g1 [ [ leader0 ] ];
       false
     with Invalid_argument _ -> true)

let tests =
  [
    Alcotest.test_case "manager: shape and id partition" `Quick
      test_manager_shape;
    Alcotest.test_case "manager: rejects empty dimensions" `Quick
      test_manager_rejects_empty;
    Alcotest.test_case "router: writes isolate to their shard" `Quick
      test_routing_isolation;
    Alcotest.test_case "manager: one leader per group" `Quick
      test_leader_distribution_sums;
    Alcotest.test_case "router: hint learned and refreshed" `Quick
      test_hint_learned_and_refreshed;
    Alcotest.test_case "router: front-door protocol" `Quick
      test_dispatch_protocol;
    Alcotest.test_case "router: reads and writes pinned" `Quick
      test_dispatch_reads_pinned;
    Alcotest.test_case "metrics: group scopes do not clobber" `Quick
      test_metrics_prefixing;
    Qcheck_case.to_alcotest prop_shard_total_and_stable;
    Qcheck_case.to_alcotest prop_shard_stable_across_jobs;
    Alcotest.test_case "sweep: jobs 1 and 2 bit-identical" `Slow
      test_sweep_jobs_identical;
    Alcotest.test_case "scenario: multiraft smoke" `Slow test_scenario_smoke;
    Alcotest.test_case "scenario: pinned plan keeps the event pool bound"
      `Slow test_pinned_plan_pool_bound;
    Alcotest.test_case "host: a group grows past every group's ids" `Quick
      test_group_add_server;
    Alcotest.test_case "host: a group's trace names only its links" `Quick
      test_group_trace_own_links;
    Alcotest.test_case "host: engine statistics collected once" `Quick
      test_collect_once_per_host;
    Alcotest.test_case "manager: a joiner's id maps to its group" `Quick
      test_joiner_id_maps_to_its_group;
    Alcotest.test_case "host: a group's partition is its own" `Quick
      test_group_partition_own;
  ]
