(* One shared fire handler per engine, not one closure per timer (let
   alone per arming): the heartbeat/election workload re-arms timers on
   every message, and with the engine's opcode scheduling form an arm is
   a pooled-event fill — zero minor words.  The generation counter
   stayed gone — [cancel] marks the underlying event, and the engine
   guarantees a cancelled event never fires, which is the whole
   stale-fire guard.  Pool safety: [fire] clears [pending] before
   running the callback, [disarm] clears it, and [arm] either moves the
   still-parked event it names or replaces it, so this module never
   holds a handle whose event could have been recycled. *)

type t = {
  engine : Engine.t;
  callback : unit -> unit;
  op : (t, unit) Engine.op;  (* engine-shared fire handler *)
  mutable pending : Engine.handle;  (* Engine.never when disarmed/fired *)
  mutable deadline : Time.t;  (* meaningful while armed *)
  mutable last_span : Time.span;  (* meaningful once ever_armed *)
  mutable ever_armed : bool;
}

let fire (t : t) () (_ : int) =
  t.pending <- Engine.never;
  t.callback ()

let create engine callback =
  let op =
    Engine.cached_op engine ~slot:Engine.slot_timer (fun () ->
        Engine.register_op engine fire)
  in
  {
    engine;
    callback;
    op;
    pending = Engine.never;
    deadline = Time.zero;
    last_span = 0;
    ever_armed = false;
  }

let disarm t =
  Engine.cancel t.pending;
  t.pending <- Engine.never

(* A re-arm while the event is parked in the wheel (an election reset
   on every heartbeat) moves that same event: no release, no alloc, no
   payload store.  Only a handle already in the heap is cancelled and
   replaced. *)
let arm t span =
  t.ever_armed <- true;
  t.last_span <- span;
  t.deadline <- Time.add (Engine.now t.engine) span;
  if not (Engine.reschedule_timer_op t.engine t.pending span) then begin
    Engine.cancel t.pending;
    t.pending <- Engine.schedule_timer_op t.engine span t.op t () 0
  end

let is_armed t = Engine.is_pending t.pending

let remaining t =
  if is_armed t then Some (Time.diff t.deadline (Engine.now t.engine))
  else None

let armed_span t = if t.ever_armed then Some t.last_span else None
