(* The shard-routed front door: hash a key to its group, submit to that
   group's cached leader, and learn from every [`Not_leader] reply.

   The hint cache is one slot per group.  A hit submits directly to the
   cached node (no leader poll); a miss falls back to the group's
   leader scan.  Replies refresh the cache: [`Not_leader (Some h)]
   installs the hint, [`Not_leader None] clears it, and a client
   following redirects through [route] installs the hint it was handed.
   All of it is deterministic — the cache is driven purely by simulated
   replies, so equal schedules yield equal routing. *)

module Node_id = Netsim.Node_id

type request =
  | Write of { key : string; value : string }
  | Read of { key : string }

type response = Committed | Value of string option | Failed

type t = {
  manager : Group_manager.t;
  hints : Node_id.t option array;  (* cached leader, one slot per group *)
  c_hits : Telemetry.Metrics.Counter.t;
  c_misses : Telemetry.Metrics.Counter.t;
  c_refreshes : Telemetry.Metrics.Counter.t;
  mutable hits : int;
  mutable misses : int;
  mutable refreshes : int;
}

(* FNV-1a of the key (the digest module's audited implementation),
   folded onto [0, groups).  Pure: a total, stable function of
   (key, groups) — the qcheck property test pins exactly this. *)
let shard_of_key ~groups key =
  if groups <= 0 then invalid_arg "Router.shard_of_key: groups must be positive";
  Int64.to_int
    (Int64.rem
       (Int64.logand (Check.Digest.of_string key) Int64.max_int)
       (Int64.of_int groups))

let create manager =
  let telemetry = Group_manager.telemetry manager in
  let counter name =
    Telemetry.Metrics.counter telemetry ~scope:"multiraft"
      ~name:("router_" ^ name) ()
  in
  {
    manager;
    hints = Array.make (Group_manager.group_count manager) None;
    c_hits = counter "hint_hits";
    c_misses = counter "hint_misses";
    c_refreshes = counter "hint_refreshes";
    hits = 0;
    misses = 0;
    refreshes = 0;
  }

let group_of_key t key = shard_of_key ~groups:(Group_manager.group_count t.manager) key
let hint t g = t.hints.(g)
let hint_hits t = t.hits
let hint_misses t = t.misses
let hint_refreshes t = t.refreshes

let submit_group t g ~payload ~client_id ~seq ~on_result =
  let cluster = Group_manager.group t.manager g in
  let result =
    match t.hints.(g) with
    | Some id ->
        t.hits <- t.hits + 1;
        Telemetry.Metrics.Counter.incr t.c_hits;
        Harness.Cluster.submit_to cluster id ~payload ~client_id ~seq
          ~on_result
    | None ->
        t.misses <- t.misses + 1;
        Telemetry.Metrics.Counter.incr t.c_misses;
        Harness.Cluster.submit_target cluster ~payload ~client_id ~seq
          ~on_result
  in
  (match result with
  | `Accepted -> (
      match t.hints.(g) with
      | Some _ -> ()
      | None -> (
          (* Learn the leader the fallback scan found. *)
          match Harness.Cluster.leader cluster with
          | Some l -> t.hints.(g) <- Some (Raft.Node.id l)
          | None -> ()))
  | `Not_leader h ->
      t.refreshes <- t.refreshes + 1;
      Telemetry.Metrics.Counter.incr t.c_refreshes;
      t.hints.(g) <- h);
  result

(* The open-loop client's [target]: read just the payload's key, then
   shard-route. *)
let target t ~payload ~client_id ~seq ~on_result =
  match Kvsm.Command.payload_key payload with
  | Error _ -> `Not_leader None
  | Ok key ->
      submit_group t (group_of_key t key) ~payload ~client_id ~seq ~on_result

(* The client's [route]: a [`Not_leader (Some h)] redirect names a
   fabric node, which names its group; install the hint and pin the
   retry to that node. *)
let route t id =
  let g = Group_manager.group_of_node t.manager id in
  t.hints.(g) <- Some id;
  Harness.Cluster.submit_to (Group_manager.group t.manager g) id

let key_of_request = function Write { key; _ } -> key | Read { key } -> key

let dispatch t req ~client_id ~seq ~on_result =
  let g = group_of_key t (key_of_request req) in
  match req with
  | Write { key; value } ->
      let payload = Kvsm.Command.to_payload (Kvsm.Command.Put { key; value }) in
      let result =
        submit_group t g ~payload ~client_id ~seq
          ~on_result:(fun ~committed ->
            on_result (if committed then Committed else Failed))
      in
      (match result with `Accepted -> () | `Not_leader _ -> on_result Failed);
      result
  | Read { key } ->
      Harness.Cluster.linearizable_read (Group_manager.group t.manager g) ~key
        ~on_result:(fun v ->
          match v with
          | Some value -> on_result (Value value)
          | None -> on_result Failed);
      `Accepted
