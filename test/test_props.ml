(* Property-based tests (qcheck) on the core data structures and the
   tuning invariants. *)

module Q = QCheck

let to_alcotest = QCheck_alcotest.to_alcotest

(* {2 Window} *)

let prop_window_matches_batch =
  Q.Test.make ~count:300 ~name:"window stats match batch recomputation"
    Q.(pair (int_range 1 20) (list (float_range (-1000.) 1000.)))
    (fun (capacity, samples) ->
      let w = Stats.Window.create ~capacity in
      List.iter (Stats.Window.push w) samples;
      let kept = Stats.Window.to_list w in
      let n = List.length kept in
      (n = Stdlib.min capacity (List.length samples))
      &&
      if n = 0 then true
      else
        let mean = List.fold_left ( +. ) 0. kept /. float_of_int n in
        let var =
          List.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. kept
          /. float_of_int n
        in
        abs_float (Stats.Window.mean w -. mean) < 1e-6
        && abs_float (Stats.Window.std w -. sqrt (Stdlib.max 0. var)) < 1e-6)

let prop_window_keeps_newest =
  Q.Test.make ~count:300 ~name:"window keeps the newest samples"
    Q.(pair (int_range 1 10) (list_of_size (Q.Gen.int_range 0 50) Q.small_nat))
    (fun (capacity, samples) ->
      let w = Stats.Window.create ~capacity in
      let floats = List.map float_of_int samples in
      List.iter (Stats.Window.push w) floats;
      let n = List.length floats in
      let expected =
        if n <= capacity then floats
        else List.filteri (fun i _ -> i >= n - capacity) floats
      in
      Stats.Window.to_list w = expected)

(* {2 Engine ordering} *)

let prop_engine_orders_events =
  Q.Test.make ~count:100 ~name:"engine runs events in timestamp order"
    Q.(list (int_range 0 1_000_000))
    (fun times ->
      let e = Des.Engine.create () in
      let fired = ref [] in
      List.iter
        (fun t ->
          ignore
            (Des.Engine.schedule_at e t (fun () -> fired := t :: !fired)))
        times;
      Des.Engine.run e;
      let got = List.rev !fired in
      List.sort compare got = got && List.length got = List.length times)

(* {2 Loss estimator} *)

let prop_loss_rate_bounds =
  Q.Test.make ~count:500 ~name:"loss rate stays in [0, 1)"
    Q.(list (int_range 0 500))
    (fun ids ->
      let l = Dynatune.Loss_estimator.create ~min_size:2 ~max_size:50 in
      List.iter (fun i -> ignore (Dynatune.Loss_estimator.observe l i)) ids;
      let p = Dynatune.Loss_estimator.loss_rate l in
      p >= 0. && p < 1.)

let prop_loss_rate_exact_on_sets =
  Q.Test.make ~count:300 ~name:"loss rate matches the paper's formula"
    Q.(list_of_size (Q.Gen.int_range 2 40) (int_range 0 100))
    (fun ids ->
      let distinct = List.sort_uniq compare ids in
      Q.assume (List.length distinct >= 2);
      let l = Dynatune.Loss_estimator.create ~min_size:2 ~max_size:200 in
      List.iter (fun i -> ignore (Dynatune.Loss_estimator.observe l i)) ids;
      let lo = List.hd distinct
      and hi = List.nth distinct (List.length distinct - 1) in
      let expected =
        1.
        -. (float_of_int (List.length distinct) /. float_of_int (hi - lo + 1))
      in
      abs_float (Dynatune.Loss_estimator.loss_rate l -. expected) < 1e-9)

let prop_loss_observe_insensitive_to_order =
  Q.Test.make ~count:300 ~name:"loss estimate is order-insensitive"
    Q.(list_of_size (Q.Gen.int_range 2 30) (int_range 0 60))
    (fun ids ->
      let run order =
        let l = Dynatune.Loss_estimator.create ~min_size:2 ~max_size:100 in
        List.iter (fun i -> ignore (Dynatune.Loss_estimator.observe l i)) order;
        Dynatune.Loss_estimator.loss_rate l
      in
      run ids = run (List.rev ids))

(* {2 Tuner invariants} *)

let tuner_cfg =
  {
    Dynatune.Config.default with
    Dynatune.Config.min_list_size = 2;
    max_list_size = 50;
  }

let prop_required_heartbeats_minimal =
  Q.Test.make ~count:500 ~name:"K is the minimal satisfying count"
    Q.(pair (float_range 0.01 0.95) (float_range 0.9 0.9999))
    (fun (p, x) ->
      let k = Dynatune.Tuner.required_heartbeats_for ~p ~x in
      let ok n = 1. -. (p ** float_of_int n) >= x -. 1e-12 in
      ok k && (k = 1 || not (ok (k - 1))))

let prop_tuner_h_bounds =
  Q.Test.make ~count:300 ~name:"h stays within [min_h, Et]"
    Q.(
      pair
        (list_of_size (Q.Gen.int_range 2 40) (float_range 0.5 800.))
        (list_of_size (Q.Gen.int_range 0 30) (int_range 0 100)))
    (fun (rtts_ms, drop_ids) ->
      let t = Dynatune.Tuner.create tuner_cfg in
      List.iteri
        (fun i rtt ->
          if not (List.mem i drop_ids) then
            Dynatune.Tuner.observe_heartbeat t ~hb_id:i
              ~rtt:(Some (Des.Time.of_ms_f rtt)))
        rtts_ms;
      let h = Dynatune.Tuner.heartbeat_interval t in
      let et = Dynatune.Tuner.election_timeout t in
      h >= tuner_cfg.Dynatune.Config.min_heartbeat_interval && h <= et)

let prop_tuner_et_bounds =
  Q.Test.make ~count:300 ~name:"tuned Et respects its clamps"
    Q.(list_of_size (Q.Gen.int_range 2 40) (float_range 0.0001 100000.))
    (fun rtts_ms ->
      let t = Dynatune.Tuner.create tuner_cfg in
      List.iteri
        (fun i rtt ->
          Dynatune.Tuner.observe_heartbeat t ~hb_id:i
            ~rtt:(Some (Des.Time.of_ms_f rtt)))
        rtts_ms;
      let et = Dynatune.Tuner.election_timeout t in
      et >= tuner_cfg.Dynatune.Config.min_election_timeout
      && et <= tuner_cfg.Dynatune.Config.max_election_timeout)

let prop_tuner_reset_restores_defaults =
  Q.Test.make ~count:200 ~name:"reset always restores the defaults"
    Q.(list_of_size (Q.Gen.int_range 0 40) (float_range 1. 1000.))
    (fun rtts_ms ->
      let t = Dynatune.Tuner.create tuner_cfg in
      List.iteri
        (fun i rtt ->
          Dynatune.Tuner.observe_heartbeat t ~hb_id:i
            ~rtt:(Some (Des.Time.of_ms_f rtt)))
        rtts_ms;
      Dynatune.Tuner.reset t;
      Dynatune.Tuner.phase t = Dynatune.Tuner.Warming
      && Dynatune.Tuner.election_timeout t
         = tuner_cfg.Dynatune.Config.default_election_timeout
      && Dynatune.Tuner.heartbeat_interval t
         = tuner_cfg.Dynatune.Config.default_heartbeat_interval)

(* {2 Summary} *)

let prop_summary_percentile_monotone =
  Q.Test.make ~count:300 ~name:"percentile is monotone in q"
    Q.(
      pair
        (list_of_size (Q.Gen.int_range 1 50) (float_range (-100.) 100.))
        (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (samples, (q1, q2)) ->
      let s = Stats.Summary.of_list samples in
      let lo = Stdlib.min q1 q2 and hi = Stdlib.max q1 q2 in
      Stats.Summary.percentile s lo <= Stats.Summary.percentile s hi +. 1e-9)

let prop_summary_mean_within_range =
  Q.Test.make ~count:300 ~name:"mean lies within [min, max]"
    Q.(list_of_size (Q.Gen.int_range 1 50) (float_range (-1e6) 1e6))
    (fun samples ->
      let s = Stats.Summary.of_list samples in
      Stats.Summary.mean s >= Stats.Summary.min s -. 1e-6
      && Stats.Summary.mean s <= Stats.Summary.max s +. 1e-6)

(* {2 Command codec} *)

let printable_string = Q.string_gen Q.Gen.printable

let prop_codec_roundtrip =
  Q.Test.make ~count:500 ~name:"command codec roundtrips"
    Q.(pair printable_string printable_string)
    (fun (key, value) ->
      let cmds =
        [
          Kvsm.Command.Put { key; value };
          Kvsm.Command.Get key;
          Kvsm.Command.Delete key;
          Kvsm.Command.Cas { key; expect = Some value; value = key };
          Kvsm.Command.Cas { key; expect = None; value };
        ]
      in
      List.for_all
        (fun c ->
          match Kvsm.Command.of_payload (Kvsm.Command.to_payload c) with
          | Ok d -> Kvsm.Command.equal c d
          | Error _ -> false)
        cmds)

(* {2 Log invariants} *)

let prop_log_append_grows_monotonically =
  Q.Test.make ~count:300 ~name:"append_new yields dense increasing indices"
    Q.(list_of_size (Q.Gen.int_range 1 30) (int_range 1 5))
    (fun terms ->
      let sorted_terms = List.sort compare terms in
      let l = Raft.Log.create () in
      List.iteri
        (fun i term ->
          let e = Raft.Log.append_new l ~term Raft.Log.Noop in
          assert (e.Raft.Log.index = i + 1))
        sorted_terms;
      Raft.Log.last_index l = List.length terms
      && Raft.Log.last_term l = List.nth sorted_terms (List.length terms - 1))

let prop_log_compaction_preserves_suffix =
  Q.Test.make ~count:300 ~name:"compaction preserves the surviving suffix"
    Q.(pair (int_range 1 40) (int_range 0 40))
    (fun (n, cut) ->
      let cut = Stdlib.min cut n in
      let l = Raft.Log.create () in
      let entries =
        List.init n (fun i ->
            Raft.Log.append_new l ~term:(1 + (i / 5)) Raft.Log.Noop)
      in
      Raft.Log.compact l ~upto:cut;
      Raft.Log.last_index l = n
      && Raft.Log.snapshot_index l = cut
      && List.for_all
           (fun (e : Raft.Log.entry) ->
             if e.index <= cut then Raft.Log.term_at l e.index = None || e.index = cut
             else Raft.Log.term_at l e.index = Some e.term)
           entries)

let prop_log_compaction_then_append_consistent =
  Q.Test.make ~count:300 ~name:"appends after compaction stay dense"
    Q.(pair (int_range 1 20) (int_range 1 20))
    (fun (n, extra) ->
      let l = Raft.Log.create () in
      for _ = 1 to n do
        ignore (Raft.Log.append_new l ~term:1 Raft.Log.Noop)
      done;
      Raft.Log.compact l ~upto:n;
      let appended =
        List.init extra (fun _ -> Raft.Log.append_new l ~term:2 Raft.Log.Noop)
      in
      List.for_all2
        (fun (e : Raft.Log.entry) i -> e.index = n + i + 1)
        appended
        (List.init extra Fun.id)
      && Raft.Log.last_index l = n + extra)

let prop_store_snapshot_roundtrip =
  Q.Test.make ~count:200 ~name:"store snapshots roundtrip any contents"
    Q.(list (pair printable_string printable_string))
    (fun bindings ->
      let s = Kvsm.Store.create () in
      List.iter
        (fun (key, value) ->
          ignore (Kvsm.Store.apply_command s (Kvsm.Command.Put { key; value })))
        bindings;
      match Kvsm.Store.of_serialized (Kvsm.Store.serialize s) with
      | Ok restored ->
          Kvsm.Store.state_digest restored = Kvsm.Store.state_digest s
      | Error _ -> false)

let prop_ewma_bounded_by_extremes =
  Q.Test.make ~count:300 ~name:"ewma srtt stays within sample extremes"
    Q.(
      pair (float_range 0.01 1.)
        (list_of_size (Q.Gen.int_range 1 60) (float_range 1. 1000.)))
    (fun (alpha, samples_ms) ->
      let e = Dynatune.Ewma_estimator.create ~alpha ~min_samples:1 () in
      List.iter
        (fun ms -> Dynatune.Ewma_estimator.observe e (Des.Time.of_ms_f ms))
        samples_ms;
      let srtt = Des.Time.to_ms_f (Dynatune.Ewma_estimator.mean e) in
      let lo = List.fold_left Stdlib.min infinity samples_ms in
      let hi = List.fold_left Stdlib.max neg_infinity samples_ms in
      srtt >= lo -. 1e-6 && srtt <= hi +. 1e-6)

let prop_ewma_constant_input_converges =
  Q.Test.make ~count:200 ~name:"ewma on a constant input equals it"
    Q.(pair (float_range 0.05 1.) (float_range 1. 500.))
    (fun (alpha, level) ->
      let e = Dynatune.Ewma_estimator.create ~alpha ~min_samples:1 () in
      for _ = 1 to 300 do
        Dynatune.Ewma_estimator.observe e (Des.Time.of_ms_f level)
      done;
      abs_float (Des.Time.to_ms_f (Dynatune.Ewma_estimator.mean e) -. level)
      < 1.
      && Des.Time.to_ms_f (Dynatune.Ewma_estimator.deviation e) < level)

let prop_partition_reachability_is_equivalence =
  Q.Test.make ~count:200 ~name:"partition reachability is an equivalence"
    Q.(list_of_size (Q.Gen.int_range 0 8) (int_range 0 7))
    (fun group_of ->
      (* Node i belongs to the group group_of[i] (others implicit). *)
      let n = 8 in
      let engine = Des.Engine.create () in
      let f : unit Netsim.Fabric.t = Netsim.Fabric.create engine in
      let ids = Netsim.Node_id.range n in
      List.iter (Netsim.Fabric.add_node f) ids;
      let groups =
        List.init 8 (fun g ->
            List.filteri (fun i _ -> List.nth_opt group_of i = Some g) ids)
      in
      let groups = List.filter (fun l -> l <> []) groups in
      Netsim.Fabric.partition f groups;
      let reach a b =
        Netsim.Fabric.reachable f (List.nth ids a) (List.nth ids b)
      in
      let ok = ref true in
      for a = 0 to n - 1 do
        if not (reach a a) then ok := false;
        for b = 0 to n - 1 do
          if reach a b <> reach b a then ok := false;
          for c = 0 to n - 1 do
            if reach a b && reach b c && not (reach a c) then ok := false
          done
        done
      done;
      !ok)

let prop_conditions_piecewise_lookup =
  Q.Test.make ~count:300 ~name:"piecewise lookup matches linear scan"
    Q.(
      pair
        (list_of_size (Q.Gen.int_range 1 10) (float_range 1. 500.))
        (int_range 0 10_000))
    (fun (rtts, query_ms) ->
      let hold = Des.Time.ms 700 in
      let c =
        Netsim.Conditions.rtt_staircase
          ~base:(Netsim.Conditions.profile ~rtt_ms:0. ())
          ~hold ~rtts_ms:rtts
      in
      let query = Des.Time.ms query_ms in
      let expected_idx = Stdlib.min (query / hold) (List.length rtts - 1) in
      (Netsim.Conditions.at c query).Netsim.Conditions.rtt_ms
      = List.nth rtts expected_idx)

(* {2 Event queue vs. a sorted-list model}

   The engine's queue (a lazy-cancel heap with a timing wheel in front
   of it and an event pool behind both) must behave like the obvious
   specification: the pending events in a list, each step firing the
   smallest [(at, seq)].  Ops schedule on the heap path ([push_event])
   and on the wheel path ([push_timer]), cancel heap- and wheel-resident
   events, and cancel bursts of heap entries large enough to force
   compaction.  The offset generator lands on same-tick bursts, on the
   level-0/1 and level-1/2 cascade boundaries, and on past-horizon
   deadlines (which overflow to the heap).

   Firing runs the engine's merged drain by hand, with a flush budget,
   so a wheel flush that never terminates fails with the wheel's state
   instead of hanging the suite. *)

type queue_op =
  | Q_heap of int  (** schedule at now + offset on the heap path *)
  | Q_timer of int  (** schedule at now + offset on the wheel path *)
  | Q_cancel of int  (** cancel the k-th pending event (mod count) *)
  | Q_dead_burst of int  (** schedule n heap events, then cancel them all *)
  | Q_advance of int  (** fire n events *)

let queue_op_gen =
  let tick = 1 lsl Des.Event_heap.tick_bits in
  let offset =
    Q.Gen.oneof
      [
        (* same-deadline / same-tick bursts *)
        Q.Gen.int_range 0 (4 * tick);
        (* around the level-0/1 cascade boundary (256 ticks) *)
        Q.Gen.map (fun k -> k * tick) (Q.Gen.int_range 250 262);
        (* anywhere in level 0/1 *)
        Q.Gen.int_range 0 (300 * tick);
        (* around the level-1/2 boundary (65536 ticks) *)
        Q.Gen.map (fun k -> k * tick) (Q.Gen.int_range 65_530 65_545);
        (* beyond the wheel's horizon: must overflow into the heap *)
        Q.Gen.map (fun k -> k * tick) (Q.Gen.int_range 16_000_000 17_000_000);
      ]
  in
  Q.Gen.frequency
    [
      (3, Q.Gen.map (fun o -> Q_heap o) offset);
      (3, Q.Gen.map (fun o -> Q_timer o) offset);
      (3, Q.Gen.map (fun k -> Q_cancel k) (Q.Gen.int_range 0 100));
      (1, Q.Gen.map (fun n -> Q_dead_burst n) (Q.Gen.int_range 65 150));
      (2, Q.Gen.map (fun n -> Q_advance n) (Q.Gen.int_range 1 20));
    ]

let queue_op_print = function
  | Q_heap o -> Printf.sprintf "heap(+%d)" o
  | Q_timer o -> Printf.sprintf "timer(+%d)" o
  | Q_cancel k -> Printf.sprintf "cancel(%d)" k
  | Q_dead_burst n -> Printf.sprintf "dead_burst(%d)" n
  | Q_advance n -> Printf.sprintf "advance(%d)" n

let prop_queue_matches_model =
  Q.Test.make ~count:200 ~name:"wheel and heap fire identically"
    (Q.make
       ~print:Q.Print.(list queue_op_print)
       (Q.Gen.list_size (Q.Gen.int_range 0 120) queue_op_gen))
    (fun ops ->
      let module H = Des.Event_heap in
      let h = H.create () in
      let noop () = () in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let now = ref 0 and next_seq = ref 0 in
      let model = ref [] (* pending (at, seq) *) in
      let handles = ref [] (* (seq, event) of pending events *) in
      let pending () = H.live_length h + (H.stats h).H.wheel_occupancy in
      let schedule ~wheel offset =
        let s = !next_seq in
        incr next_seq;
        let at = !now + offset in
        let ev = H.make h ~at ~seq:s noop in
        if wheel then H.push_timer h ev else H.push_event h ev;
        model := (at, s) :: !model;
        handles := (s, ev) :: !handles;
        s
      in
      let cancel s =
        let ev = List.assoc s !handles in
        handles := List.remove_assoc s !handles;
        model := List.filter (fun (_, s') -> s' <> s) !model;
        H.cancel ev;
        expect (not (H.is_pending ev));
        (* Cancel-after-recycle: a wheel-resident cancel has already put
           the record back in the pool, and nothing has reused it yet,
           so cancelling the stale handle again must change nothing. *)
        let cancelled = (H.stats h).H.cancelled
        and pending_before = pending ()
        and pool = H.pool_size h in
        H.cancel ev;
        expect
          ((H.stats h).H.cancelled = cancelled
          && pending () = pending_before
          && H.pool_size h = pool)
      in
      (* The engine's merged drain: the heap top may fire only while it
         is strictly before everything the wheel could still owe. *)
      let rec next_live fuel =
        let top = H.top_live h in
        let lb = H.next_due_ns h in
        if lb = max_int || (top != H.never && top.H.at < lb) then top
        else if fuel = 0 then
          failwith
            (Printf.sprintf
               "flush budget exhausted: cursor=%d linked=%d lb=%d top_at=%s \
                now=%d"
               (H.cursor_tick h) (H.stats h).H.wheel_occupancy lb
               (if top == H.never then "none" else string_of_int top.H.at)
               !now)
        else begin
          H.flush_next h;
          next_live (fuel - 1)
        end
      in
      let fire_one () =
        let top = next_live 100_000 in
        match List.sort compare !model with
        | [] -> expect (top == H.never)
        | next :: rest ->
            model := rest;
            if top == H.never then expect false
            else begin
              let at = top.H.at and s = top.H.seq in
              H.pop_top h;
              now := at;
              handles := List.remove_assoc s !handles;
              expect ((at, s) = next)
            end
      in
      let step = function
        | Q_heap o -> ignore (schedule ~wheel:false o : int)
        | Q_timer o -> ignore (schedule ~wheel:true o : int)
        | Q_cancel k -> (
            match !handles with
            | [] -> ()
            | hs -> cancel (fst (List.nth hs (k mod List.length hs))))
        | Q_dead_burst n ->
            List.iter cancel
              (List.init n (fun i -> schedule ~wheel:false (i * 1000)))
        | Q_advance n ->
            for _ = 1 to n do
              fire_one ()
            done
      in
      List.iter
        (fun op ->
          step op;
          expect (pending () = List.length !model))
        ops;
      while !model <> [] do
        fire_one ()
      done;
      fire_one ();
      let st = H.stats h in
      expect (H.pool_size h <= st.H.high_water + st.H.wheel_high_water);
      !ok)

(* {2 Pipelined replication}

   End-to-end convergence of the replication engine v2 under a hostile
   link: random loss and duplication (the datagram heartbeats the tuner
   and the stalled-window nudge ride on), jitter-induced reordering, and
   a random follower sleeping through part of the write burst.  Whatever
   interleaving of stale nacks, rewinds and retransmissions results, a
   quiet period must leave every replica with the same store. *)

let prop_pipelined_replication_converges =
  Q.Test.make ~count:10
    ~name:"pipelined replication converges under loss/dup/reorder"
    Q.(
      quad (int_range 1 10_000)
        (float_range 0. 0.12)
        (float_range 0. 0.08)
        (int_range 0 3))
    (fun (seed, loss, duplicate, victim_pick) ->
      let config =
        Raft.Config.with_replication ~max_inflight_appends:4
          ~append_backpressure:8 ~max_entries_per_append:4
          (Raft.Config.dynatune ())
      in
      let conditions =
        Netsim.Conditions.(
          constant (profile ~rtt_ms:20. ~jitter:0.3 ~loss ~duplicate ()))
      in
      let c =
        Harness.Cluster.create ~seed:(Int64.of_int seed) ~n:5 ~config
          ~conditions ~check:Check.Always ()
      in
      Netsim.Fabric.set_uniform_serialization (Harness.Cluster.fabric c)
        (Des.Time.us 50);
      Harness.Cluster.start c;
      match Harness.Cluster.await_leader c ~timeout:(Des.Time.sec 30) with
      | None -> false
      | Some leader ->
          let leader = Raft.Node.id leader in
          let victim =
            List.nth
              (List.filter
                 (fun id -> not (Netsim.Node_id.equal id leader))
                 (Harness.Cluster.node_ids c))
              victim_pick
          in
          let target = Harness.Cluster.submit_target c in
          for i = 1 to 30 do
            if i = 8 then Harness.Fault.pause c victim;
            if i = 22 then Harness.Fault.recover c victim;
            ignore
              (target
                 ~payload:
                   (Kvsm.Command.to_payload
                      (Kvsm.Command.Put
                         { key = Printf.sprintf "p:%d" i; value = "v" }))
                 ~client_id:1 ~seq:i
                 ~on_result:(fun ~committed:_ -> ()));
            Harness.Cluster.run_for c (Des.Time.ms 25)
          done;
          Harness.Cluster.run_for c (Des.Time.sec 15);
          let digests =
            List.map
              (fun id -> Kvsm.Store.state_digest (Harness.Cluster.store c id))
              (Harness.Cluster.node_ids c)
          in
          (match digests with
          | d :: rest -> List.for_all (String.equal d) rest
          | [] -> false))

(* {2 Message pool safety}

   The perf-guard hot path recycles RPC records through [Rpc.Pool]:
   released at delivery, reallocated by the next send.  The invariant
   the @perf plans depend on: a record handed to the fabric is never
   recycled while its delivery is still in flight.  Each record carries
   a generation stamp the pool bumps on every reallocation, so the
   receiver can detect a recycle: the stamp at delivery must equal the
   stamp at send.  Exercised under randomized loss (never-released
   records must not wedge or alias the free list), duplication (the
   second copy must be a gen-0 clone, not the pooled record), and
   jitter-induced reordering. *)
let prop_pool_recycle_never_aliases_inflight =
  Q.Test.make ~count:60
    ~name:"pooled append_request never recycled while in flight"
    Q.(
      quad (float_range 0. 0.4) (float_range 0. 0.4) (float_range 0. 1.)
        (pair (int_range 1 80) small_nat))
    (fun (loss, duplicate, jitter, (msgs, seed)) ->
      let engine = Des.Engine.create ~seed:(Int64.of_int seed) () in
      let fabric = Netsim.Fabric.create engine in
      let a = Netsim.Node_id.of_int 0 and b = Netsim.Node_id.of_int 1 in
      List.iter (Netsim.Fabric.add_node fabric) [ a; b ];
      Netsim.Fabric.set_uniform_conditions fabric
        (Netsim.Conditions.constant
           (Netsim.Conditions.profile ~rtt_ms:10. ~jitter ~loss ~duplicate ()));
      Netsim.Fabric.set_dup_clone fabric Raft.Rpc.Pool.clone_for_dup;
      let pool = Raft.Rpc.Pool.create () in
      (* Outstanding-delivery count per physical record (pool reuse
         keeps the population tiny, so an identity assoc list is fine).
         The receiver cannot tell a recycled record from the newer send
         that recycled it — by design, they are the same bytes — so the
         invariant is enforced on the record's life cycle instead:
         - the pool must never hand out a record whose previous send is
           still in flight (count > 0 at allocation), and
         - a pooled delivery must find exactly the one outstanding
           flight it belongs to (count >= 1 at delivery; 0 means its
           release was already consumed — a double release). *)
      let tracked = ref [] in
      let count_of msg =
        match List.find_opt (fun (m, _) -> m == msg) !tracked with
        | Some (_, c) -> c
        | None ->
            let c = ref 0 in
            tracked := (msg, c) :: !tracked;
            c
      in
      let ok = ref true in
      Netsim.Fabric.set_handler fabric b (fun ~src:_ msg ->
          (* gen 0 records are dup clones (or hand-built): unpooled by
             construction, so they cannot alias the free list *)
          if Raft.Rpc.Pool.generation msg > 0 then begin
            let c = count_of msg in
            if !c < 1 then ok := false else decr c
          end;
          Raft.Rpc.Pool.release pool msg);
      for i = 1 to msgs do
        let msg =
          Raft.Rpc.Pool.append_request pool ~term:1 ~prev_index:i ~prev_term:1
            ~entries:[||] ~commit:0
        in
        let c = count_of msg in
        if !c > 0 then ok := false;
        incr c;
        Netsim.Fabric.send fabric Netsim.Transport.Datagram ~src:a ~dst:b msg;
        (* uneven spacing interleaves in-flight windows across sends *)
        Des.Engine.run_for engine (Des.Time.ms (i mod 7))
      done;
      Des.Engine.run_for engine (Des.Time.sec 5);
      let _hb, _hbr, ar, _apr = Raft.Rpc.Pool.sizes pool in
      (* Exactly-once release: the free list cannot outgrow the sends. *)
      !ok && ar <= msgs)

let tests =
  List.map to_alcotest
    [
      prop_queue_matches_model;
      prop_window_matches_batch;
      prop_window_keeps_newest;
      prop_engine_orders_events;
      prop_loss_rate_bounds;
      prop_loss_rate_exact_on_sets;
      prop_loss_observe_insensitive_to_order;
      prop_required_heartbeats_minimal;
      prop_tuner_h_bounds;
      prop_tuner_et_bounds;
      prop_tuner_reset_restores_defaults;
      prop_summary_percentile_monotone;
      prop_summary_mean_within_range;
      prop_codec_roundtrip;
      prop_log_append_grows_monotonically;
      prop_log_compaction_preserves_suffix;
      prop_log_compaction_then_append_consistent;
      prop_store_snapshot_roundtrip;
      prop_ewma_bounded_by_extremes;
      prop_ewma_constant_input_converges;
      prop_partition_reachability_is_equivalence;
      prop_conditions_piecewise_lookup;
      prop_pipelined_replication_converges;
      prop_pool_recycle_never_aliases_inflight;
    ]
