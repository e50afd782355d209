(* The hot-path loop builders shared between the wall-time table
   (bench/micro.ml) and the perf-regression guard (`selfcheck --perf`):
   both must price exactly the same code, or the guard would budget
   words of a loop the table never timed.

   Each builder returns a closure whose per-call minor-heap allocation
   is a constant of the code path alone (no GC- or time-dependent
   branching), so [words_per_op] is exact and host-independent — the
   guard's budgets are those constants. *)

let bench_payload =
  Kvsm.Command.to_payload (Kvsm.Command.Put { key = "bench-key"; value = "v" })

let bench_log () =
  let log = Raft.Log.create () in
  for _ = 1 to 1000 do
    ignore
      (Raft.Log.append_new log ~term:1
         (Raft.Log.Data { payload = bench_payload; client_id = 1; seq = 1 })
        : Raft.Log.entry)
  done;
  log

(* Simulate the receiving end of each [Send]: in the live system the
   remote server consumes the payload and releases it into the shared
   pool, which is what refills the sender's next allocation.  Hand-rolled
   recursion so the loop adds no closure of its own. *)
let rec release_sends pool = function
  | [] -> ()
  | Raft.Server.Send { msg; _ } :: rest ->
      Raft.Rpc.Pool.release pool msg;
      release_sends pool rest
  | _ :: rest -> release_sends pool rest

let make_heartbeat_loop () =
  let config = Raft.Config.dynatune () in
  let rng = Stats.Rng.create ~seed:1L () in
  let follower =
    Raft.Server.create ~instrument:false ~congestion:(fun _ -> 0)
      ~id:(Netsim.Node_id.of_int 0)
      ~peers:(List.tl (Netsim.Node_id.range 5))
      ~config ~rng ()
  in
  ignore (Raft.Server.start follower);
  (* Steady state of the live path: the heartbeat is pool-allocated (as
     the leader would), [handle] releases it at end of delivery, and the
     response record is released back as the leader's side would. *)
  let pool = Raft.Server.pool follower in
  let rtt = Some (Des.Time.ms 100) in
  let event =
    Raft.Server.Message
      {
        from = Netsim.Node_id.of_int 1;
        msg = Raft.Rpc.Timeout_now { term = 0 };
      }
  in
  let i = ref 0 in
  fun () ->
    incr i;
    let msg =
      Raft.Rpc.Pool.heartbeat pool ~term:1 ~commit:0 ~hb_id:!i
        ~sent_at:(Des.Time.ms !i) ~measured_rtt:rtt
    in
    (match event with
    | Raft.Server.Message m -> m.msg <- msg
    | _ -> assert false);
    release_sends pool
      (Raft.Server.handle follower ~now:(Des.Time.ms (!i + 50)) event)

let from_peer p m =
  Raft.Server.Message { from = Netsim.Node_id.of_int p; msg = m }

(* Node 0 of a 5-node cluster, brought to power at [now] by feeding the
   vote flow by hand: its timeout, then pre-votes and votes from peers 1
   and 2. *)
let elected_leader ~config ~seed ~now =
  let leader =
    Raft.Server.create ~instrument:false ~congestion:(fun _ -> 0)
      ~id:(Netsim.Node_id.of_int 0)
      ~peers:(List.tl (Netsim.Node_id.range 5))
      ~config
      ~rng:(Stats.Rng.create ~seed ())
      ()
  in
  ignore (Raft.Server.start leader);
  ignore (Raft.Server.handle leader ~now Raft.Server.Election_timeout_fired);
  List.iter
    (fun pre ->
      List.iter
        (fun p ->
          ignore
            (Raft.Server.handle leader ~now
               (from_peer p
                  (Raft.Rpc.Vote_response
                     { term = 1; granted = true; pre_vote = pre }))))
        [ 1; 2 ])
    [ true; false ];
  assert (Raft.Types.is_leader (Raft.Server.role leader));
  leader

(* Every follower acknowledges the leader's no-op, so heartbeat
   responses trigger no catch-up sends. *)
let ack_noop leader ~now =
  List.iter
    (fun p ->
      ignore
        (Raft.Server.handle leader ~now
           (from_peer p
              (Raft.Rpc.Append_response
                 {
                   term = 1;
                   success = true;
                   match_index = 1;
                   conflict_hint = 0;
                   req_prev = 0;
                   ap_gen = 0;
                 }))))
    [ 1; 2; 3; 4 ]

(* The follower's tuner on one heartbeat: the observation, then the Et,
   h and K queries that re-arm the timer and fill the response.  Every
   tenth id is skipped (10% loss, so K > 1 and the log formula runs) and
   the RTT samples cycle through prebuilt boxes, so each call records a
   fresh sample and recomputes every derived value. *)
let make_tuner_loop () =
  let base = Raft.Config.dynatune () in
  let tuner =
    Dynatune.Tuner.create Dynatune.Config.default
      ~election_timeout:base.Raft.Config.election_timeout
      ~heartbeat_interval:base.Raft.Config.heartbeat_interval
  in
  let rtts =
    Array.init 7 (fun k -> Some (Des.Time.us (100_000 + (1_337 * k))))
  in
  let id = ref 0 in
  let beat () =
    incr id;
    if !id mod 10 = 0 then incr id;
    Dynatune.Tuner.observe_heartbeat tuner ~hb_id:!id
      ~rtt:rtts.(!id mod Array.length rtts);
    ignore (Dynatune.Tuner.election_timeout tuner : Des.Time.span);
    ignore (Dynatune.Tuner.heartbeat_interval tuner : Des.Time.span);
    ignore (Dynatune.Tuner.required_heartbeats tuner : int)
  in
  for _ = 1 to 200 do
    beat ()
  done;
  assert (Dynatune.Tuner.required_heartbeats tuner > 1);
  beat

(* The leader's side of one heartbeat round on a per-peer timer: the
   [Heartbeat_due] for peer 1 (membership check, the send, the re-arm)
   and that peer's response (CheckQuorum ack, RTT measurement, the
   piggybacked h, the replication nudge).  A 5-node dynatune leader
   with its no-op acknowledged; the response is a gen-0 record replayed
   with the heartbeat's send time. *)
let make_leader_heartbeat_loop () =
  let now = Des.Time.zero in
  let leader =
    elected_leader ~config:(Raft.Config.dynatune ()) ~seed:7L ~now
  in
  ack_noop leader ~now;
  let pool = Raft.Server.pool leader in
  let peer = Netsim.Node_id.of_int 1 in
  let due = Raft.Server.Heartbeat_due peer in
  let tuned_h = Some (Des.Time.ms 40) in
  let response =
    from_peer 1
      (Raft.Rpc.Heartbeat_response
         { term = 1; hb_id = 0; echo_sent_at = now; tuned_h; hr_gen = 0 })
  in
  let i = ref 0 in
  fun () ->
    incr i;
    let sent_at = Des.Time.ms !i in
    release_sends pool (Raft.Server.handle leader ~now:sent_at due);
    (match response with
    | Raft.Server.Message { msg = Raft.Rpc.Heartbeat_response hr; _ } ->
        hr.echo_sent_at <- sent_at
    | _ -> assert false);
    release_sends pool
      (Raft.Server.handle leader ~now:(Des.Time.add sent_at (Des.Time.us 200))
         response)

(* The replication engine's entry path, both ends, as standalone servers
   (no fabric, no engine).  The leader is brought to power by feeding the
   vote flow by hand; each iteration then replays a conflict nack that
   rewinds to index 1, so [handle] re-builds and re-sends the same
   64-entry batch — in steady state the log re-serves the window it last
   sliced, so no entry is copied.  The follower replays one
   prebuilt duplicate append: the [try_append] prefix-scan hot path. *)
let make_leader_append_loop () =
  let config =
    Raft.Config.with_replication ~max_entries_per_append:64
      (Raft.Config.static ())
  in
  let now = Des.Time.ms 1000 in
  let leader = elected_leader ~config ~seed:2L ~now in
  for seq = 1 to 500 do
    ignore
      (Raft.Server.handle leader ~now
         (Raft.Server.Propose
            { payload = bench_payload; client_id = 1; seq }))
  done;
  let nack =
    from_peer 1
      (Raft.Rpc.Append_response
         {
           term = 1;
           success = false;
           match_index = 0;
           conflict_hint = 1;
           req_prev = 0;
           ap_gen = 0;
         })
  in
  let pool = Raft.Server.pool leader in
  fun () -> release_sends pool (Raft.Server.handle leader ~now nack)

(* The leader's ReadIndex round with 32 reads in flight.  Setup elects
   a 5-node static leader, acks its no-op (so heartbeat responses
   trigger no catch-up sends) and registers 32 reads, one per ms.  Each
   op then registers the next read (its four heartbeats are released as
   the followers would) and delivers the two echoes, from peers 1 and 2,
   of the heartbeats sent with the read 32 ops earlier: with the
   leader's own vote that is a quorum of 3, serving exactly that read.
   The echoes are gen-0 records replayed with a new timestamp. *)
let make_read_index_loop () =
  let now = Des.Time.zero in
  let leader = elected_leader ~config:(Raft.Config.static ()) ~seed:6L ~now in
  ack_noop leader ~now;
  let pool = Raft.Server.pool leader in
  let i = ref 0 in
  let read () =
    incr i;
    release_sends pool
      (Raft.Server.handle leader ~now:(Des.Time.ms !i)
         (Raft.Server.Read { client_id = 1; seq = !i }))
  in
  for _ = 1 to 32 do
    read ()
  done;
  let echo_from p =
    from_peer p
      (Raft.Rpc.Heartbeat_response
         { term = 1; hb_id = 0; echo_sent_at = now; tuned_h = None; hr_gen = 0 })
  in
  let e1 = echo_from 1 and e2 = echo_from 2 in
  let deliver event =
    (match event with
    | Raft.Server.Message { msg = Raft.Rpc.Heartbeat_response hr; _ } ->
        hr.echo_sent_at <- Des.Time.ms (!i - 32)
    | _ -> assert false);
    let acts = Raft.Server.handle leader ~now:(Des.Time.ms !i) event in
    release_sends pool acts;
    acts
  in
  (* One round by hand: the second echo serves read 1, and only it. *)
  read ();
  ignore (deliver e1 : Raft.Server.action list);
  (match
     List.filter
       (function Raft.Server.Serve_read _ -> true | _ -> false)
       (deliver e2)
   with
  | [ Raft.Server.Serve_read { seq = 1; _ } ] -> ()
  | _ -> assert false);
  fun () ->
    read ();
    ignore (deliver e1 : Raft.Server.action list);
    ignore (deliver e2 : Raft.Server.action list)

(* A 64-entry batch as the wire would carry it, built once. *)
let batch_64 () =
  let scratch = Raft.Log.create () in
  for _ = 1 to 64 do
    ignore
      (Raft.Log.append_new scratch ~term:1
         (Raft.Log.Data { payload = bench_payload; client_id = 1; seq = 1 })
        : Raft.Log.entry)
  done;
  Raft.Log.slice scratch ~from:1 ~max:64

let make_follower_append_loop () =
  let config =
    Raft.Config.with_replication ~max_entries_per_append:64
      (Raft.Config.static ())
  in
  let rng = Stats.Rng.create ~seed:3L () in
  let follower =
    Raft.Server.create ~instrument:false ~congestion:(fun _ -> 0)
      ~id:(Netsim.Node_id.of_int 0)
      ~peers:(List.tl (Netsim.Node_id.range 5))
      ~config ~rng ()
  in
  ignore (Raft.Server.start follower);
  (* A gen-0 request so [handle]'s release leaves the replayed record
     alone; the pooled responses are recycled as the leader would. *)
  let append =
    Raft.Server.Message
      {
        from = Netsim.Node_id.of_int 1;
        msg =
          Raft.Rpc.Append_request
            {
              term = 1;
              prev_index = 0;
              prev_term = 0;
              entries = batch_64 ();
              commit = 0;
              ar_gen = 0;
            };
      }
  in
  let pool = Raft.Server.pool follower in
  let i = ref 0 in
  fun () ->
    incr i;
    release_sends pool
      (Raft.Server.handle follower ~now:(Des.Time.ms (!i + 50)) append)

let make_try_append_loop () =
  let log = Raft.Log.create () in
  let entries = batch_64 () in
  (match Raft.Log.try_append log ~prev_index:0 ~prev_term:0 ~entries with
  | `Ok _ -> ()
  | `Conflict _ -> assert false);
  fun () ->
    ignore
      (Raft.Log.try_append log ~prev_index:0 ~prev_term:0 ~entries
        : [ `Ok of Raft.Types.index | `Conflict of Raft.Types.index ])

(* A leader's plain 64-entry slice of a 1000-entry log, from a start
   index that walks the log: every call misses the log's one-window
   memo, so this is the array copy a fresh batch costs. *)
let make_log_slice_loop () =
  let log = bench_log () in
  let i = ref 0 in
  fun () ->
    i := (!i mod 900) + 1;
    ignore (Raft.Log.slice log ~from:!i ~max:64 : Raft.Log.entry array)

(* One pre-vote round at the granting follower, replayed: request checks
   (log up-to-dateness, stickiness lease) plus the response build.
   Pre-vote grants mutate no durable state, so the replay is exact. *)
let make_vote_round_loop () =
  let config = Raft.Config.static () in
  let rng = Stats.Rng.create ~seed:4L () in
  let follower =
    Raft.Server.create ~instrument:false ~congestion:(fun _ -> 0)
      ~id:(Netsim.Node_id.of_int 0)
      ~peers:(List.tl (Netsim.Node_id.range 5))
      ~config ~rng ()
  in
  ignore (Raft.Server.start follower);
  let req =
    Raft.Server.Message
      {
        from = Netsim.Node_id.of_int 1;
        msg =
          Raft.Rpc.Vote_request
            {
              term = 1;
              last_log_index = 0;
              last_log_term = 0;
              pre_vote = true;
              force = false;
            };
      }
  in
  let i = ref 0 in
  fun () ->
    incr i;
    ignore
      (Raft.Server.handle follower ~now:(Des.Time.ms (!i + 50)) req
        : Raft.Server.action list)

(* The snapshot-install receive path, replayed as the stale case (the
   follower's commit point already covers the boundary): term and
   leader-contact bookkeeping, the boundary comparison and the response —
   without wiping the log every iteration. *)
let make_snapshot_install_loop () =
  let config =
    Raft.Config.with_replication ~max_entries_per_append:64
      (Raft.Config.static ())
  in
  let rng = Stats.Rng.create ~seed:5L () in
  let follower =
    Raft.Server.create ~instrument:false ~congestion:(fun _ -> 0)
      ~id:(Netsim.Node_id.of_int 0)
      ~peers:(List.tl (Netsim.Node_id.range 5))
      ~config ~rng ()
  in
  ignore (Raft.Server.start follower);
  (* Commit 64 entries so a snapshot up to 50 is stale. *)
  ignore
    (Raft.Server.handle follower ~now:(Des.Time.ms 10)
       (Raft.Server.Message
          {
            from = Netsim.Node_id.of_int 1;
            msg =
              Raft.Rpc.Append_request
                {
                  term = 1;
                  prev_index = 0;
                  prev_term = 0;
                  entries = batch_64 ();
                  commit = 64;
                  ar_gen = 0;
                };
          })
      : Raft.Server.action list);
  let snap =
    Raft.Server.Message
      {
        from = Netsim.Node_id.of_int 1;
        msg =
          Raft.Rpc.Install_snapshot
            {
              term = 1;
              last_index = 50;
              last_term = 1;
              voters = Array.of_list (Netsim.Node_id.range 5);
              learners = [||];
              data = "";
            };
      }
  in
  let pool = Raft.Server.pool follower in
  let i = ref 0 in
  fun () ->
    incr i;
    release_sends pool
      (Raft.Server.handle follower ~now:(Des.Time.ms (!i + 50)) snap)

(* The DES kernel alone: schedule one opcode event and fire it.  After
   the first call the event record comes from the pool, so the loop must
   allocate nothing at all. *)
let make_schedule_op_loop () =
  let engine = Des.Engine.create () in
  let op = Des.Engine.register_op engine (fun () () (_ : int) -> ()) in
  fun () ->
    Des.Engine.schedule_op_after engine (Des.Time.us 1) op () () 0;
    ignore (Des.Engine.step engine : bool)

(* The same kernel path under the load the fanout workload keeps in
   flight: 1,500 op events pending over the next 100 ms.  Each call
   schedules one more 100 ms ahead (it parks in the timing wheel) and
   fires the earliest, paying a wheel link, its share of a slot flush
   and a pop from a heap of one tick's events. *)
let make_pending_op_loop () =
  let engine = Des.Engine.create () in
  let op = Des.Engine.register_op engine (fun () () (_ : int) -> ()) in
  let ahead = Des.Time.ms 100 in
  for i = 1 to 1_500 do
    Des.Engine.schedule_op_at engine (i * ahead / 1_500) op () () 0
  done;
  fun () ->
    Des.Engine.schedule_op_after engine ahead op () () 0;
    ignore (Des.Engine.step engine : bool)

(* A follower's election reset on a heartbeat: re-arm a timer whose
   event is still parked in the timing wheel.  The same record moves to
   its new slot, so the loop must allocate nothing at all. *)
let make_timer_rearm_loop () =
  let engine = Des.Engine.create () in
  let timer = Des.Timer.create engine (fun () -> ()) in
  Des.Timer.arm timer (Des.Time.ms 300);
  fun () -> Des.Timer.arm timer (Des.Time.ms 300)

(* A follower's loss window taking the next heartbeat id in order, with
   the window full: evict the oldest id, append the new one. *)
let make_loss_observe_loop () =
  let window = Dynatune.Loss_estimator.create ~min_size:20 ~max_size:100 in
  let id = ref 0 in
  fun () ->
    incr id;
    ignore
      (Dynatune.Loss_estimator.observe window !id
        : [ `Recorded | `Duplicate ])

let make_cpu_execute_loop () =
  let engine = Des.Engine.create () in
  let cpu = Netsim.Cpu.create engine ~cores:2. in
  let op = Des.Engine.register_op engine (fun () () (_ : int) -> ()) in
  fun () ->
    Netsim.Cpu.execute cpu ~cost:(Des.Time.us 140) op () () 0;
    ignore (Des.Engine.step engine : bool)

let make_mtrace_emit_loop () =
  let trace = Des.Mtrace.create (Des.Engine.create ()) in
  let seen = ref 0 in
  Des.Mtrace.subscribe trace (fun _ _ -> incr seen);
  let probe = Raft.Probe.Node_paused { id = Netsim.Node_id.of_int 0 } in
  fun () -> Des.Mtrace.emit trace probe

(* The KV request path, one layer per loop: the client's Put encoder,
   the decoder on that payload, and a replica applying it with its key
   already present (the steady state of a ramp, whose clients cycle
   through 1024 keys each).  All three carry the workload's 64-byte
   value. *)
let kv_value = String.make 64 'v'

let kv_payload =
  Kvsm.Command.client_put_payload ~client_id:1 ~slot:123 ~value:kv_value

let make_client_encode_loop () () =
  ignore
    (Kvsm.Command.client_put_payload ~client_id:1 ~slot:123 ~value:kv_value
      : string)

(* A client whose 1024 key slots are all written once: every later
   arrival reuses its key's cached payload.  The target accepts and
   never replies, so an arrival is the whole of an op. *)
let make_client_issue_loop () =
  let engine = Des.Engine.create ~seed:1L () in
  let target ~payload:_ ~client_id:_ ~seq:_ ~on_result:_ = `Accepted in
  let client =
    Kvsm.Client.create ~engine ~target ~client_id:1 ~rate:1000. ()
  in
  Kvsm.Client.start client;
  for _ = 1 to 1024 do
    ignore (Des.Engine.step engine : bool)
  done;
  fun () -> ignore (Des.Engine.step engine : bool)

(* The words one replica's log retains per entry over 100,000 client
   writes, payloads excluded (the clients and stores hold them too):
   the entry, its command, its page slot, and the pages' and
   directory's share. *)
let log_words_per_entry () =
  let n = 100_000 in
  let payloads =
    Array.init 1024 (fun slot ->
        Kvsm.Command.client_put_payload ~client_id:1 ~slot ~value:kv_value)
  in
  let log = Raft.Log.create () in
  for seq = 0 to n - 1 do
    ignore
      (Raft.Log.append_new log ~term:1
         (Raft.Log.Data { payload = payloads.(seq land 1023); client_id = 1; seq })
        : Raft.Log.entry)
  done;
  float_of_int
    (Obj.reachable_words (Obj.repr (log, payloads))
    - Obj.reachable_words (Obj.repr payloads))
  /. float_of_int n

let make_decode_put_loop () () =
  ignore (Kvsm.Command.of_payload kv_payload : (Kvsm.Command.t, string) result)

let make_store_put_loop () =
  let store = Kvsm.Store.create () in
  let entry =
    {
      Raft.Log.term = 1;
      index = 1;
      command = Raft.Log.Data { payload = kv_payload; client_id = 1; seq = 123 };
    }
  in
  ignore (Kvsm.Store.apply_entry store entry : Kvsm.Store.result option);
  fun () ->
    ignore (Kvsm.Store.apply_entry store entry : Kvsm.Store.result option)

(* Writes to [new_keys] slots of one client in turn, each binding a key
   the store lacks; the slots are numbered from 1000, so every key is 8
   bytes long.  When the slots run out the store is replaced by a fresh
   one.  Only creating a store and doubling its table allocate, so the
   row's words are that store's creation and its doublings; slot
   arrays past 128 slots are allocated on the major heap. *)
let new_keys = 8192

(* Log entry [index]: client [client_id]'s write to [slot]. *)
let put_entry ~index ~client_id ~slot =
  {
    Raft.Log.term = 1;
    index;
    command =
      Raft.Log.Data
        {
          payload =
            Kvsm.Command.client_put_payload ~client_id ~slot ~value:kv_value;
          client_id;
          seq = index - 1;
        };
  }

let make_store_new_key_loop () =
  let entries =
    Array.init new_keys (fun i ->
        put_entry ~index:(i + 1) ~client_id:1 ~slot:(1000 + i))
  in
  let store = ref (Kvsm.Store.create ()) and next = ref 0 in
  fun () ->
    if !next = new_keys then begin
      store := Kvsm.Store.create ();
      next := 0
    end;
    ignore
      (Kvsm.Store.apply_entry !store entries.(!next) : Kvsm.Store.result option);
    incr next

(* [saturation]'s working set: its nine ramp levels' clients write
   1024 keys each, and three replicas apply every write.  Each call
   applies the next of those 9,216 writes to all three stores, which
   already bind every key, so the call is three lookups at wherever
   the key's hash puts it in a 32,768-slot array, rather than the one
   key of the key-present row, which stays in cache. *)
let working_set_clients = 9

let make_store_working_set_loop () =
  let entries =
    Array.init (working_set_clients * 1024) (fun i ->
        put_entry ~index:(i + 1) ~client_id:(1 + (i / 1024)) ~slot:(i mod 1024))
  in
  let stores = Array.init 3 (fun _ -> Kvsm.Store.create ()) in
  let apply entry =
    for r = 0 to Array.length stores - 1 do
      ignore (Kvsm.Store.apply_entry stores.(r) entry : Kvsm.Store.result option)
    done
  in
  Array.iter apply entries;
  let next = ref 0 in
  fun () ->
    apply entries.(!next);
    next := (!next + 1) mod Array.length entries

(* The randomness one datagram draws in [Netsim.Link] (its loss coin
   and its jitter multiplier) plus one [Stats.Rng.int], the draw behind
   every randomized election timeout.  The sum lands in a ref so the
   draws cannot be dropped. *)
let make_rng_draws_loop () =
  let rng = Stats.Rng.create ~seed:8L () in
  let sink = ref 0 in
  fun () ->
    let lost = Stats.Rng.bernoulli rng 0.1 in
    let mult = Stats.Dist.lognormal_mean_preserving rng ~sigma:0.2 in
    sink :=
      !sink + Bool.to_int lost + int_of_float mult + Stats.Rng.int rng 1000

(* The harness's wait loop on an idle engine: one [Engine.await] of 1 s
   in 1 ms slices, so 1000 [run_until] steps per call.  Nothing fires,
   so [cond] runs once; what remains is the per-slice cost. *)
let make_idle_await_loop () =
  let engine = Des.Engine.create () in
  let never () = false in
  fun () ->
    ignore
      (Des.Engine.await engine ~slice:(Des.Time.ms 1)
         ~timeout:(Des.Time.sec 1) never
        : bool)

type loop = { name : string; budget : float; make : unit -> unit -> unit }

let loops =
  [
    (* Follower handling one dynatune heartbeat (tuner observation
       included): the response send, the election re-arm and the action
       list they travel in.  The re-arm's randomized timeout draws
       without allocating. *)
    { name = "server heartbeat"; budget = 18.; make = make_heartbeat_loop };
    (* The follower tuner's share of that heartbeat: one observation and
       the Et, h and K that follow it, recomputed from a fresh sample. *)
    { name = "tuner observe + read"; budget = 0.; make = make_tuner_loop };
    (* Leader: one per-peer [Heartbeat_due] and that peer's response —
       the heartbeat send, the timer re-arm, their action list, and the
       measured RTT's box for the next heartbeat. *)
    {
      name = "leader heartbeat round";
      budget = 21.;
      make = make_leader_heartbeat_loop;
    };
    (* Leader handling a conflict nack that forces a 64-entry rebatch — the
       log's last window, served again, in steady state. *)
    {
      name = "leader nack + rebatch 64";
      budget = 12.;
      make = make_leader_append_loop;
    };
    (* Follower handling a duplicate 64-entry append through
       [Server.handle]: the full RPC path over the prefix scan. *)
    {
      name = "follower duplicate append 64";
      budget = 27.;
      make = make_follower_append_loop;
    };
    (* The same duplicate append straight into [Raft.Log.try_append]: the
       log-matching prefix scan alone, the floor under the follower
       figure. *)
    { name = "log try_append 64"; budget = 3.; make = make_try_append_loop };
    (* [Raft.Log.slice] of 64 entries: the batch array, with no cache in
       front of it. *)
    { name = "log.slice 64"; budget = 65.; make = make_log_slice_loop };
    (* Follower granting one replayed pre-vote request: the vote checks
       and the response build, with no durable-state mutation. *)
    { name = "pre-vote round"; budget = 16.; make = make_vote_round_loop };
    (* Follower handling a replayed stale [Install_snapshot] (its commit
       point already covers the boundary): the receive path minus the
       one-off log wipe. *)
    {
      name = "stale snapshot install";
      budget = 23.;
      make = make_snapshot_install_loop;
    };
    (* Leader registering one linearizable read and handling the two
       heartbeat echoes that serve the read registered 32 ops earlier. *)
    {
      name = "leader ReadIndex round, 32 reads in flight";
      budget = 68.;
      make = make_read_index_loop;
    };
    (* One datagram's loss and jitter draws plus one [Rng.int]: the
       generator updates its state in place and the inlined float draws
       stay unboxed. *)
    {
      name = "rng datagram draws + int";
      budget = 0.;
      make = make_rng_draws_loop;
    };
    (* One opcode event through the DES kernel: [Engine.schedule_op_after]
       then [Engine.step], from the event pool once it is warm. *)
    {
      name = "engine schedule_op_after+step";
      budget = 0.;
      make = make_schedule_op_loop;
    };
    (* The same, with 1,500 op events pending: the wheel link, a share
       of the slot flush and the pop from one tick's heap. *)
    {
      name = "engine op 100ms+step, 1,500 pending";
      budget = 0.01;
      make = make_pending_op_loop;
    };
    (* [Des.Timer.arm] on a timer whose event is parked in the wheel. *)
    {
      name = "timer re-arm while parked";
      budget = 0.;
      make = make_timer_rearm_loop;
    };
    (* [Dynatune.Loss_estimator.observe] of the next id on a full
       100-id window. *)
    {
      name = "loss window in-order observe";
      budget = 0.;
      make = make_loss_observe_loop;
    };
    (* One 140 us receive through a 2-core CPU model:
       [Netsim.Cpu.execute] then [Engine.step], accounting included.  A
       measurement's 100k ops span 7 simulated seconds, inside the
       per-second table's first allocation. *)
    {
      name = "cpu execute+step";
      budget = 0.;
      make = make_cpu_execute_loop;
    };
    (* One [Des.Engine.await] of 1 s in 1 ms slices on an engine with no
       events: the harness's wait loop with nothing to do.  With no live
       event ahead, the wait jumps its empty slices and lands on the
       deadline in one step. *)
    {
      name = "engine idle await 1s/1ms";
      budget = 0.;
      make = make_idle_await_loop;
    };
    (* One probe through [Des.Mtrace.emit] to a single counting observer;
       the bus retains nothing. *)
    { name = "mtrace emit"; budget = 0.; make = make_mtrace_emit_loop };
    (* [Kvsm.Command.client_put_payload] of one write with a 64-byte
       value: the payload string is its only allocation. *)
    {
      name = "kv client put encode";
      budget = 11.;
      make = make_client_encode_loop;
    };
    (* [Kvsm.Command.of_payload] on that write: the key, the value, the
       command and the result. *)
    (* One arrival of that client once every key is cached: the issue
       (its reply callback and send attempt, the payload looked up) and
       the draw of the next gap. *)
    {
      name = "kv client issue, key seen before";
      budget = 13.;
      make = make_client_issue_loop;
    };
    { name = "kv decode put"; budget = 17.; make = make_decode_put_loop };
    (* [Kvsm.Store.apply_entry] of that write with its key already
       present: one scan of the headers, and the key's slot rebound to
       the payload, which is looked up in place, so nothing is
       copied. *)
    {
      name = "kv store apply put (key present)";
      budget = 0.;
      make = make_store_put_loop;
    };
    (* [Kvsm.Store.apply_entry] of a write whose key is new: the
       committed payload written into a free slot, and the table's
       doublings. *)
    {
      name = "kv store apply put (new key)";
      budget = 0.07;
      make = make_store_new_key_loop;
    };
    (* Three replicas applying the next write of [saturation]'s 9,216-key
       working set, every key present: the probe sequences the workload
       walks, with nothing allocated. *)
    {
      name = "kv store apply put (9,216-key working set)";
      budget = 0.;
      make = make_store_working_set_loop;
    };
  ]

(* Minor-heap allocation per operation, by [Gc.minor_words] delta: the
   number a wall-time table can't show.  [Gc.minor_words] counts
   words allocated on the minor heap since program start, so the delta
   over N iterations divided by N is exact (modulo the loop's own
   constant). *)
let words_per_op f =
  for _ = 1 to 100 do
    f ()
  done;
  let iters = 100_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int iters

(* Minor words per DES event over [f ()]: a pinned-seed run is
   deterministic, so this is a constant of the code too.  Events come
   from the process-wide engine counter, so [f] must run its engines on
   this domain (jobs = 1). *)
let words_per_event f =
  let w0 = Gc.minor_words () in
  let e0 = Des.Engine.global_processed () in
  let r = f () in
  let e1 = Des.Engine.global_processed () in
  let w1 = Gc.minor_words () in
  (r, (w1 -. w0) /. float_of_int (e1 - e0))

(* A steady-state 3-node dynatune cluster — the follower heartbeat path
   end to end, timers through fabric to delivery — measured over 120 s
   of virtual time after election and a 10 s settle.  Its links are
   50 ms: on the fabric's default 0 ms links the tuned Et falls below
   the leader's heartbeat interval and the cluster re-elects every ~2 s. *)
let cluster_words_per_event ?forensics () =
  let cluster =
    Harness.Cluster.create ~seed:5L ~n:3
      ~conditions:
        (Netsim.Conditions.constant
           (Netsim.Conditions.profile ~rtt_ms:50. ~jitter:0.02 ()))
      ~config:(Raft.Config.dynatune ())
      ?forensics ()
  in
  ignore
    (Harness.Cluster.boot cluster ~label:"steady-state cluster" : Raft.Node.t);
  Harness.Cluster.run_for cluster (Des.Time.sec 10);
  snd
    (words_per_event (fun () ->
         Harness.Cluster.run_for cluster (Des.Time.sec 120)))
