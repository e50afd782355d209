type handle = Event_heap.event
type ('a, 'b) op = int

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  mutable processed : int;
  mutable synced : int;  (* portion of [processed] already in [grand_total] *)
  mutable post_hook : (unit -> unit) option;
  queue : Event_heap.t;
  rng : Stats.Rng.t;
  mutable handlers : (Obj.t -> Obj.t -> int -> unit) array;
  mutable n_handlers : int;
  cached_ops : int array;  (* per-slot memoized op indices; -1 = unset *)
}

(* Events processed by every engine in the process, across domains.
   Synced in batches at the end of [run]/[run_until] so the hot loop
   never touches the atomic. *)
let grand_total = Atomic.make 0

let sync t =
  let delta = t.processed - t.synced in
  if delta > 0 then begin
    ignore (Atomic.fetch_and_add grand_total delta : int);
    t.synced <- t.processed
  end

let global_processed () = Atomic.get grand_total
let no_handler (_ : Obj.t) (_ : Obj.t) (_ : int) = ()
let slot_timer = 0
let slot_node_deliver = 1
let slot_node_work = 2
let slot_client_arrival = 3
let n_cached_slots = 8

let create ?seed () =
  {
    clock = Time.zero;
    seq = 0;
    processed = 0;
    synced = 0;
    post_hook = None;
    queue = Event_heap.create ();
    rng = Stats.Rng.create ?seed ();
    handlers = Array.make 8 no_handler;
    n_handlers = 1;
    (* index 0 = closure dispatch *)
    cached_ops = Array.make n_cached_slots (-1);
  }

let set_post_hook t hook = t.post_hook <- hook
let now t = t.clock
let rng t = t.rng
let never = Event_heap.never

(* The wrapper closure is built once per registration (engine lifetime),
   never per schedule; [Obj.obj] is a no-op cast under the uniform value
   representation, so dispatch costs one array load and one indirect
   call. *)
let register_op (type a b) t (f : a -> b -> int -> unit) : (a, b) op =
  let g (pa : Obj.t) (pb : Obj.t) (arg : int) =
    f (Obj.obj pa) (Obj.obj pb) arg
  in
  let i = t.n_handlers in
  if i = Array.length t.handlers then begin
    let h = Array.make (2 * i) no_handler in
    Array.blit t.handlers 0 h 0 i;
    t.handlers <- h
  end;
  t.handlers.(i) <- g;
  t.n_handlers <- i + 1;
  i

let cached_op t ~slot f =
  let v = t.cached_ops.(slot) in
  if v >= 0 then v
  else begin
    let op = f () in
    t.cached_ops.(slot) <- op;
    op
  end

(* Every event, closure or op, enters the queue through the timing
   wheel: it parks in a slot until its tick comes up, so the heap holds
   only the tick being drained (and past-horizon overflow) rather than
   every in-flight delivery.  The heap still orders by [(at, seq)], so
   the path an event took cannot change when it fires. *)
let schedule_at t at action =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: %d is in the past (now %d)" at
         t.clock);
  let ev = Event_heap.make t.queue ~at ~seq:t.seq action in
  t.seq <- t.seq + 1;
  Event_heap.push_timer t.queue ~now:t.clock ev;
  ev

let schedule_after t span action =
  schedule_at t (Time.add t.clock (Time.max_span 0 span)) action

let schedule_op t at op a b arg =
  let ev = Event_heap.alloc t.queue ~at ~seq:t.seq in
  t.seq <- t.seq + 1;
  Event_heap.set_payload ev op (Obj.repr a) (Obj.repr b) arg;
  Event_heap.push_timer t.queue ~now:t.clock ev;
  ev

let schedule_op_at t at op a b arg =
  if at < t.clock then invalid_arg "Engine.schedule_op_at: past deadline";
  ignore (schedule_op t at op a b arg : handle)

let call_op t op a b arg = t.handlers.(op) (Obj.repr a) (Obj.repr b) arg

let schedule_timer_op t span op a b arg =
  schedule_op t (Time.add t.clock (Time.max_span 0 span)) op a b arg

let schedule_op_after t span op a b arg =
  ignore (schedule_timer_op t span op a b arg : handle)

let reschedule_timer_op t ev span =
  Event_heap.repark ev ~now:t.clock
    ~at:(Time.add t.clock (Time.max_span 0 span))
    ~seq:t.seq
  && begin
       t.seq <- t.seq + 1;
       true
     end

let cancel = Event_heap.cancel
let is_pending = Event_heap.is_pending

(* Merged drain: the heap may be popped directly only while its top is
   strictly before every instant the wheel could still owe us; otherwise
   flush wheel slots (preserving each event's original (at, seq)) until
   the ordering is decided by the heap alone.  [next_due_ns] is a lower
   bound, so the comparison errs toward flushing — never toward firing
   a heap event ahead of an earlier wheel event.

   Returns the next live event without removing it ([Event_heap.never]
   when none): allocation-free, and after it returns the event is the
   heap top, so [exec] can [pop_top] it. *)
let rec next_live t =
  let top = Event_heap.top_live t.queue in
  let lb = Event_heap.next_due_ns t.queue in
  if lb = max_int || (top != Event_heap.never && top.Event_heap.at < lb) then
    top
  else begin
    Event_heap.flush_next t.queue;
    next_live t
  end

(* Read the payload into locals, then recycle the event {e before}
   dispatching: the handler may schedule new events, and letting it
   reuse this one keeps the pool at its high-water mark.  Safe because
   handles are forgotten once their event fires (see [handle]). *)
let[@hot] exec t ev =
  t.clock <- ev.Event_heap.at;
  t.processed <- t.processed + 1;
  let op = ev.Event_heap.op
  and a = ev.Event_heap.a
  and b = ev.Event_heap.b
  and arg = ev.Event_heap.arg in
  Event_heap.pop_top t.queue;
  if op = 0 then (Obj.obj a : unit -> unit) () else t.handlers.(op) a b arg;
  match t.post_hook with None -> () | Some f -> f ()

let step t =
  let ev = next_live t in
  if ev == Event_heap.never then false
  else begin
    exec t ev;
    true
  end

let run t =
  while step t do () done;
  sync t

let run_until t limit =
  let continue = ref true in
  while !continue do
    (* [next_live] discards cancelled heads and surfaces any due wheel
       events, so a cancelled head cannot push the clock beyond
       [limit]. *)
    let ev = next_live t in
    if ev == Event_heap.never || ev.Event_heap.at > limit then
      continue := false
    else exec t ev
  done;
  if limit > t.clock then t.clock <- limit;
  sync t

let run_for t span = run_until t (Time.add t.clock span)

(* The end of the next slice that can run an event: the slice holding
   the next live event, on the grid [clock + k * slice], or the
   deadline when that comes first.  The slices skipped run nothing, so
   stepping through them one by one would change nothing either. *)
let slice_end t ~slice ~deadline =
  let ev = next_live t in
  if ev == Event_heap.never || ev.Event_heap.at >= deadline then deadline
  else
    let slices = ((ev.Event_heap.at - t.clock - 1) / slice) + 1 in
    Int.min deadline (t.clock + (slices * slice))

(* Simulation state changes only inside events, so a slice that ran none
   cannot have made [cond] true: skip the re-evaluation.  A top-level
   loop rather than a local closure, so a wait allocates nothing. *)
let rec await_from t ~slice ~deadline cond =
  if t.clock >= deadline then false
  else begin
    let before = t.processed in
    run_until t (slice_end t ~slice ~deadline);
    (t.processed <> before && cond ()) || await_from t ~slice ~deadline cond
  end

let await t ~slice ~timeout cond =
  if slice <= 0 then invalid_arg "Engine.await: slice must be positive";
  cond () || await_from t ~slice ~deadline:(Time.add t.clock timeout) cond

let pending_events t =
  Event_heap.live_length t.queue
  + (Event_heap.stats t.queue).Event_heap.wheel_occupancy

let processed_events t = t.processed

type stats = {
  processed : int;
  pending : int;
  cancelled : int;
  compactions : int;
  heap_high_water : int;
  cancelled_in_place : int;
  cascades : int;
  wheel_occupancy : int;
  wheel_high_water : int;
  pool_size : int;
}

let stats t =
  let hs = Event_heap.stats t.queue in
  {
    processed = t.processed;
    pending = pending_events t;
    cancelled = hs.Event_heap.cancelled;
    compactions = hs.Event_heap.compactions;
    heap_high_water = hs.Event_heap.high_water;
    cancelled_in_place = hs.Event_heap.cancelled_in_place;
    cascades = hs.Event_heap.cascades;
    wheel_occupancy = hs.Event_heap.wheel_occupancy;
    wheel_high_water = hs.Event_heap.wheel_high_water;
    pool_size = Event_heap.pool_size t.queue;
  }
