(* The hot-path loop builders shared between the bechamel
   microbenchmarks (bench/micro.ml) and the perf-regression guard
   (`selfcheck --perf`): both must price exactly the same code, or the
   guard would budget numbers the benchmark never reported.

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
    Raft.Server.create ~id:(Netsim.Node_id.of_int 0)
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

(* The replication engine's entry path, both ends, as standalone servers
   (no fabric, no engine).  The leader is brought to power by feeding the
   vote flow by hand; each iteration then replays a conflict nack that
   rewinds to index 1, so [handle] re-builds and re-sends the same
   64-entry batch — in steady state a batch-cache hit, which is the
   number the allocation-lean work moves.  The follower replays one
   prebuilt duplicate append: the [try_append] prefix-scan hot path. *)
let make_leader_append_loop () =
  let config =
    Raft.Config.with_replication ~max_entries_per_append:64
      (Raft.Config.static ())
  in
  let rng = Stats.Rng.create ~seed:2L () in
  let leader =
    Raft.Server.create ~id:(Netsim.Node_id.of_int 0)
      ~peers:(List.tl (Netsim.Node_id.range 5))
      ~config ~rng ()
  in
  let now = Des.Time.ms 1000 in
  let from_peer p m =
    Raft.Server.Message { from = Netsim.Node_id.of_int p; msg = m }
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
  let config = Raft.Config.static () in
  let rng = Stats.Rng.create ~seed:6L () in
  let leader =
    Raft.Server.create ~id:(Netsim.Node_id.of_int 0)
      ~peers:(List.tl (Netsim.Node_id.range 5))
      ~config ~rng ()
  in
  let from_peer p m =
    Raft.Server.Message { from = Netsim.Node_id.of_int p; msg = m }
  in
  let now = Des.Time.zero in
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
    [ 1; 2; 3; 4 ];
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
    Raft.Server.create ~id:(Netsim.Node_id.of_int 0)
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

(* One pre-vote round at the granting follower, replayed: request checks
   (log up-to-dateness, stickiness lease) plus the response build.
   Pre-vote grants mutate no durable state, so the replay is exact. *)
let make_vote_round_loop () =
  let config = Raft.Config.static () in
  let rng = Stats.Rng.create ~seed:4L () in
  let follower =
    Raft.Server.create ~id:(Netsim.Node_id.of_int 0)
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
    Raft.Server.create ~id:(Netsim.Node_id.of_int 0)
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
       included): 60 words plus about one per thousand heartbeats,
       amortized. *)
    { name = "server heartbeat"; budget = 60.001; make = make_heartbeat_loop };
    (* Leader handling a conflict nack that forces a 64-entry rebatch — a
       batch-cache hit in steady state. *)
    {
      name = "leader nack + rebatch 64";
      budget = 17.;
      make = make_leader_append_loop;
    };
    (* Follower handling a duplicate 64-entry append through
       [Server.handle]: the full RPC path over the prefix scan. *)
    {
      name = "follower duplicate append 64";
      budget = 42.;
      make = make_follower_append_loop;
    };
    (* The same duplicate append straight into [Raft.Log.try_append]: the
       log-matching prefix scan alone, the floor under the follower
       figure. *)
    { name = "log try_append 64"; budget = 3.; make = make_try_append_loop };
    (* Follower granting one replayed pre-vote request: the vote checks
       and the response build, with no durable-state mutation. *)
    { name = "pre-vote round"; budget = 16.; make = make_vote_round_loop };
    (* Follower handling a replayed stale [Install_snapshot] (its commit
       point already covers the boundary): the receive path minus the
       one-off log wipe. *)
    {
      name = "stale snapshot install";
      budget = 38.;
      make = make_snapshot_install_loop;
    };
    (* Leader registering one linearizable read and handling the two
       heartbeat echoes that serve the read registered 32 ops earlier. *)
    {
      name = "leader ReadIndex round, 32 reads in flight";
      budget = 84.;
      make = make_read_index_loop;
    };
    (* One opcode event through the DES kernel: [Engine.schedule_op_after]
       then [Engine.step], from the event pool once it is warm. *)
    {
      name = "engine schedule_op_after+step";
      budget = 0.;
      make = make_schedule_op_loop;
    };
    (* One [Des.Engine.await] of 1 s in 1 ms slices on an engine with no
       events: the harness's wait loop with nothing to do. *)
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
    { name = "kv decode put"; budget = 17.; make = make_decode_put_loop };
    (* [Kvsm.Store.apply_entry] of that write with its key already
       present: the value is kept by reference, so only the key is
       copied. *)
    {
      name = "kv store apply put (key present)";
      budget = 2.;
      make = make_store_put_loop;
    };
  ]

(* Minor-heap allocation per operation, by [Gc.minor_words] delta: the
   number bechamel's timing tables can't show.  [Gc.minor_words] counts
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
   of virtual time after election and a 10 s settle. *)
let cluster_words_per_event ?forensics () =
  let cluster =
    Harness.Cluster.create ~seed:5L ~n:3
      ~config:(Raft.Config.dynatune ())
      ?forensics ()
  in
  ignore
    (Harness.Cluster.boot cluster ~label:"steady-state cluster" : Raft.Node.t);
  Harness.Cluster.run_for cluster (Des.Time.sec 10);
  snd
    (words_per_event (fun () ->
         Harness.Cluster.run_for cluster (Des.Time.sec 120)))
