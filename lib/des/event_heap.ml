type stats = {
  mutable dead : int;
  mutable cancelled : int;
  mutable compactions : int;
  mutable high_water : int;
  mutable cancelled_in_place : int;
  mutable cascades : int;
  mutable wheel_occupancy : int;
  mutable wheel_high_water : int;
}

(* [state] encoding: one int instead of separate cancelled / queued /
   slot fields.  Non-negative means pending — the event will fire unless
   cancelled. *)
let st_free = -2 (* in the pool, fired, or cancelled off the heap *)
let st_tomb = -1 (* cancelled while stored in the heap *)
let st_heap = 0 (* live, stored in the heap *)
let st_idle = 1 (* live, allocated but not yet queued *)
let st_slot0 = 2 (* live, parked in wheel slot [state - st_slot0] *)

(* Timing-wheel geometry: 3 levels x 256 slots, tick = 2^20 ns
   (~1.05 ms).  Level [l]'s slot [i] is slot [256 * l + i] of the
   queue's chain heads, and its occupancy bit is bit [i land 31] of word
   [8 * l + i lsr 5]. *)
let tick_bits = 20
let level_bits = 8
let level_slots = 1 lsl level_bits
let wheel_slots = 3 * level_slots

(* Pooled event record.  The payload is an int-encoded opcode plus two
   uniform operand words and one immediate word, interpreted by the
   engine's handler table ([op] = 0 means [a] holds a plain
   [unit -> unit] closure).

   Records are long-lived, so they sit in the major heap, where every
   pointer store pays the write barrier (and, while the GC marks,
   darkens its old target).  The queue therefore never stores a record
   pointer after the record is first allocated: each record has a fixed
   [id], [by_id] maps ids back to records, and the heap, the wheel-slot
   chains and the free list hold ids only.  Ordering and linking move
   immediate ints, which compile to plain stores. *)
type event = {
  id : int;
  mutable at : Time.t;
  mutable seq : int;
  mutable op : int;
  mutable a : Obj.t;
  mutable b : Obj.t;
  mutable arg : int;
  mutable state : int;
  mutable next : int; (* slot chain or free list, by id; -1 ends it *)
  mutable prev : int; (* slot chain only *)
  owner : t;
}

and t = {
  (* The binary min-heap, as three parallel unboxed arrays: entry [i] is
     the event [h_id.(i)], keyed by [(h_at.(i), h_seq.(i))].  Keeping
     [seq] beside [at] means a sift never dereferences a record, even on
     a tie. *)
  mutable h_at : int array;
  mutable h_seq : int array;
  mutable h_id : int array;
  mutable len : int;
  mutable by_id : event array; (* written once per record, at allocation *)
  mutable n_ids : int; (* records ever allocated: the pool's size *)
  mutable free : int; (* free-list head; -1 = empty *)
  slot_head : int array; (* wheel-slot chain heads, by id; -1 = empty *)
  slot_bits : int array; (* wheel-slot occupancy, 32 slots per word *)
  summary : int array; (* per level: bit [w] set iff its word [w] <> 0 *)
  mutable cursor : int; (* tick; every parked event's tick is >= this *)
  mutable due_lb : int; (* cached [next_due_tick]; -1 = recompute *)
  level_lb : int array;
      (* per level: range start (in ticks) of its first occupied slot;
         max_int = level empty, -1 = rescan *)
  stats : stats;
}

let fresh_stats () =
  {
    dead = 0;
    cancelled = 0;
    compactions = 0;
    high_water = 0;
    cancelled_in_place = 0;
    cascades = 0;
    wheel_occupancy = 0;
    wheel_high_water = 0;
  }

let create () =
  {
    h_at = [||];
    h_seq = [||];
    h_id = [||];
    len = 0;
    by_id = [||];
    n_ids = 0;
    free = -1;
    slot_head = Array.make wheel_slots (-1);
    slot_bits = Array.make (wheel_slots / 32) 0;
    summary = Array.make 3 0;
    cursor = 0;
    due_lb = -1;
    level_lb = Array.make 3 max_int;
    stats = fresh_stats ();
  }

let unit_obj = Obj.repr ()

let record owner id =
  {
    id;
    at = 0;
    seq = -1;
    op = 0;
    a = unit_obj;
    b = unit_obj;
    arg = 0;
    state = st_free;
    next = -1;
    prev = -1;
    owner;
  }

(* A permanently-free placeholder: lets handle holders (timers) use a
   plain [event] field instead of an [event option].  Cancelling it is a
   no-op (it is not pending), and no code path ever writes it or its
   empty owner queue, so it is safe to share — even across domains. *)
let never = record (create ()) (-1)

let live_length t = t.len - t.stats.dead
let stats t = t.stats
let pool_size t = t.n_ids
let cursor_tick t = t.cursor
let compact_min_dead = 64

(* Return an event to the pool.  The caller must have taken it out of
   the heap and any wheel slot first.  A closure payload is dropped so a
   free record does not keep the closure's environment alive; opcode
   operands are long-lived objects (ports, timers, pooled messages), so
   they are left in place rather than paying a barrier store. *)
let release t ev =
  if ev.op = 0 then ev.a <- unit_obj;
  ev.state <- st_free;
  ev.next <- t.free;
  t.free <- ev.id

(* {2 Heap} *)

(* Hole-based sifts: the moving entry's key stays in registers and each
   level costs three int loads and three int stores, with no write
   barrier.  [(at, seq)] is compared inline; [seq] is unique, so the
   order is total and does not depend on the heap's shape. *)
let[@inline] place (ha : int array) (hs : int array) (hi : int array) i
    (at : int) (seq : int) (id : int) =
  ha.(i) <- at;
  hs.(i) <- seq;
  hi.(i) <- id

let rec sift_up ha hs hi i (at : int) (seq : int) id =
  if i = 0 then place ha hs hi 0 at seq id
  else
    let p = (i - 1) lsr 1 in
    let pa = ha.(p) in
    if at < pa || (at = pa && seq < hs.(p)) then begin
      place ha hs hi i pa hs.(p) hi.(p);
      sift_up ha hs hi p at seq id
    end
    else place ha hs hi i at seq id

let rec sift_down ha hs hi n i (at : int) (seq : int) id =
  let l = (2 * i) + 1 in
  if l >= n then place ha hs hi i at seq id
  else
    let r = l + 1 in
    let c =
      if r < n && (ha.(r) < ha.(l) || (ha.(r) = ha.(l) && hs.(r) < hs.(l)))
      then r
      else l
    in
    let ca = ha.(c) in
    if ca < at || (ca = at && hs.(c) < seq) then begin
      place ha hs hi i ca hs.(c) hi.(c);
      sift_down ha hs hi n c at seq id
    end
    else place ha hs hi i at seq id

let grow t =
  let cap = if t.len = 0 then 16 else 2 * t.len in
  let extend a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.h_at <- extend t.h_at;
  t.h_seq <- extend t.h_seq;
  t.h_id <- extend t.h_id

(* Drop every cancelled entry (recycling it) and re-heapify.  O(len),
   amortized against the >= len/2 cancels it took to accumulate that
   many dead entries. *)
let compact t =
  let ha = t.h_at and hs = t.h_seq and hi = t.h_id in
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let ev = t.by_id.(hi.(i)) in
    if ev.state = st_tomb then release t ev
    else begin
      ha.(!j) <- ha.(i);
      hs.(!j) <- hs.(i);
      hi.(!j) <- hi.(i);
      incr j
    end
  done;
  let n = !j in
  t.len <- n;
  t.stats.dead <- 0;
  t.stats.compactions <- t.stats.compactions + 1;
  for i = (n / 2) - 1 downto 0 do
    sift_down ha hs hi n i ha.(i) hs.(i) hi.(i)
  done

(* A new record, registered under the next id.  [by_id] grows by
   doubling, the new record as filler. *)
let fresh t =
  let id = t.n_ids in
  let ev = record t id in
  if id = Array.length t.by_id then begin
    let by_id = Array.make (if id = 0 then 16 else 2 * id) ev in
    Array.blit t.by_id 0 by_id 0 id;
    t.by_id <- by_id
  end;
  t.by_id.(id) <- ev;
  t.n_ids <- id + 1;
  ev

(* Compaction runs here, before the free list is read, rather than at
   push time: a record is then added only when every existing one sits
   in the heap or a wheel slot, and the new one goes straight into one
   of them, so [pool_size <= high_water + wheel_high_water] holds
   exactly.  The caller overwrites [op]/[a]/[b]/[arg]. *)
let alloc t ~at ~seq =
  let s = t.stats in
  if s.dead > compact_min_dead && 2 * s.dead > t.len then compact t;
  let id = t.free in
  let ev =
    if id >= 0 then begin
      let ev = t.by_id.(id) in
      t.free <- ev.next;
      ev
    end
    else fresh t
  in
  ev.at <- at;
  ev.seq <- seq;
  ev.state <- st_idle;
  ev

(* A recycled record often carries the same operands again (a timer's
   own record, a port's deliveries): storing an identical pointer would
   still pay the write barrier, so [a]/[b] are written only when they
   change. *)
let[@inline] set_payload ev op a b arg =
  ev.op <- op;
  if ev.a != a then ev.a <- a;
  if ev.b != b then ev.b <- b;
  ev.arg <- arg

let make t ~at ~seq action =
  let ev = alloc t ~at ~seq in
  set_payload ev 0 (Obj.repr action) unit_obj 0;
  ev

let push_event t ev =
  let n = t.len in
  if n = Array.length t.h_id then grow t;
  t.len <- n + 1;
  if n >= t.stats.high_water then t.stats.high_water <- n + 1;
  ev.state <- st_heap;
  sift_up t.h_at t.h_seq t.h_id n ev.at ev.seq ev.id

(* {2 Timing wheel}

   A hierarchical timing wheel (Varghese & Lauck) in front of the heap.
   It is a front-buffer, not an arbiter: events park in coarse
   tick-granularity slots while far from due, and are pushed into the
   heap — carrying their original (at, seq) — just before the engine
   could need them.  The heap then decides firing order exactly as it
   would have without the wheel, which is what keeps trace digests
   bit-identical (see DESIGN.md, "Timer wheel and the determinism
   contract").

   Every event the engine schedules enters here.  What the wheel buys
   is a small heap: it holds only the events of the tick being drained
   (plus the rare past-horizon ones), so a sift runs a few levels
   instead of the depth of every in-flight delivery.  A timer armed far
   ahead and cancelled before coming due (election resets, heartbeat
   re-arms) is linked and unlinked in O(1) without ever touching the
   heap — no sift_up, no tombstone, no compaction debt.

   Level 0 spans ~268 ms at tick resolution, level 1 ~68.7 s, level 2
   ~4.9 h; deadlines beyond that, or behind the cursor, go to the heap
   directly.  Slot chains are doubly linked by event id so a cancel can
   unlink in place; chain order is irrelevant because the heap re-orders
   on flush.

   Invariant: every parked event's tick is >= [cursor], a slot is
   non-empty iff its occupancy bit is set, and a level's summary bit is
   set iff its occupancy word is non-zero.  All events in one slot share
   one range (level 0: one tick), so a level's earliest occupied range
   is a fixed tick that moving the cursor cannot change: [level_lb]
   caches it, a link can only lower it, and it is dropped (-1) only
   when the slot holding it empties. *)

(* Occupancy bits, and the per-level summary word above them: bit
   [w land 7] of [summary.(w lsr 3)] is set iff occupancy word [w] is
   non-zero. *)
let set_bit t slot =
  let w = slot lsr 5 in
  let v = t.slot_bits.(w) in
  if v = 0 then
    t.summary.(w lsr 3) <- t.summary.(w lsr 3) lor (1 lsl (w land 7));
  t.slot_bits.(w) <- v lor (1 lsl (slot land 31))

let clear_bit t slot =
  let w = slot lsr 5 in
  let v = t.slot_bits.(w) land lnot (1 lsl (slot land 31)) in
  t.slot_bits.(w) <- v;
  if v = 0 then
    t.summary.(w lsr 3) <- t.summary.(w lsr 3) land lnot (1 lsl (w land 7))

(* [start] is the slot's range start in ticks.  A stale level bound
   (-1) stays stale. *)
let link t slot start ev =
  let head = t.slot_head.(slot) in
  ev.state <- st_slot0 + slot;
  ev.prev <- -1;
  ev.next <- head;
  if head >= 0 then t.by_id.(head).prev <- ev.id
  else begin
    set_bit t slot;
    let level = slot lsr level_bits in
    if start < t.level_lb.(level) then t.level_lb.(level) <- start
  end;
  t.slot_head.(slot) <- ev.id

(* Empty a slot, returning the id at the head of its chain.  Only the
   level's earliest slot is ever taken, so its bound goes stale. *)
let[@inline] take_slot t slot =
  let head = t.slot_head.(slot) in
  t.slot_head.(slot) <- -1;
  clear_bit t slot;
  t.level_lb.(slot lsr level_bits) <- -1;
  head

(* O(1) removal of a parked event.  Emptying a slot may raise the
   earliest occupied tick, so the cached due bound is dropped when this
   slot's candidate (its tick at level 0, else its range start clamped
   to the cursor; see [cand0]/[cand_hi]) could have set it. *)
let unlink t slot ev =
  let prev = ev.prev and next = ev.next in
  if next >= 0 then t.by_id.(next).prev <- prev;
  if prev >= 0 then t.by_id.(prev).next <- next
  else begin
    t.slot_head.(slot) <- next;
    if next < 0 then begin
      clear_bit t slot;
      let level = slot lsr level_bits in
      let shift = level * level_bits in
      let start = ((ev.at lsr tick_bits) lsr shift) lsl shift in
      if t.level_lb.(level) = start then t.level_lb.(level) <- -1;
      if Int.max t.cursor start <= t.due_lb then t.due_lb <- -1
    end
  end

(* De Bruijn count-trailing-zeros over a non-zero 32-bit word.  A string
   table: immutable, so it is safe to share across domains. *)
let ctz_table =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let[@inline] ctz v =
  Char.code ctz_table.[(((v land -v) * 0x077CB531) lsr 27) land 31]

(* Distance (in slots, 0..255) from [pos] to the first occupied slot of
   [level], scanning circularly; -1 when the level is empty.  O(1): the
   bits at or after [pos] in its own word, else the first non-zero word
   after it by the summary, else (wrapping) the first non-zero word from
   the level's start — which may be [pos]'s own word, whose bits at or
   after [pos] are then known to be clear. *)
let first_set_from t level pos =
  let base = 8 * level and w0 = pos lsr 5 in
  let v = t.slot_bits.(base + w0) land (-1 lsl (pos land 31)) in
  if v <> 0 then (w0 lsl 5) + ctz v - pos
  else
    let s = t.summary.(level) in
    if s = 0 then -1
    else
      let after = s land (-2 lsl w0) in
      let w = ctz (if after <> 0 then after else s) in
      ((w lsl 5) + ctz t.slot_bits.(base + w) - pos) land 255

(* Park [ev] in the slot its deadline selects; false = out of range
   (past the cursor, or beyond level 2) and the caller must heap it.

   Levels are selected by slot-number distance, not raw tick delta: the
   window [cursor, cursor + span1) covers 257 distinct values of
   [tick lsr 8], so an event just under the span-1 horizon can share a
   slot index with the cursor's own position one rotation ahead —
   [cascade] would then re-file it into the very slot it is emptying,
   without moving the cursor, and the flush loop would never terminate.
   Requiring the slot number itself to be within one rotation
   ([dist1 < level_slots]) pushes those boundary events up a level (or,
   at level 2, out to the heap), which guarantees every cascade strictly
   demotes its events. *)
let file t ev =
  let tick = ev.at lsr tick_bits in
  if tick < t.cursor then false
  else if tick - t.cursor < level_slots then begin
    link t (tick land 0xFF) tick ev;
    true
  end
  else begin
    let r1 = tick lsr level_bits in
    if r1 - (t.cursor lsr level_bits) < level_slots then begin
      link t (level_slots + (r1 land 0xFF)) (r1 lsl level_bits) ev;
      true
    end
    else begin
      let r2 = tick lsr (2 * level_bits) in
      if r2 - (t.cursor lsr (2 * level_bits)) < level_slots then begin
        link t
          ((2 * level_slots) + (r2 land 0xFF))
          (r2 lsl (2 * level_bits))
          ev;
        true
      end
      else false
    end
  end

(* An empty wheel holds nothing back: its cursor first catches up with
   the clock, so a deadline files relative to now rather than
   overflowing a horizon measured from a cursor left behind by an idle
   stretch. *)
let push_timer t ~now ev =
  let s = t.stats in
  if s.wheel_occupancy = 0 then
    t.cursor <- Int.max t.cursor (now lsr tick_bits);
  if file t ev then begin
    s.wheel_occupancy <- s.wheel_occupancy + 1;
    if s.wheel_occupancy > s.wheel_high_water then
      s.wheel_high_water <- s.wheel_occupancy;
    if t.due_lb >= 0 then begin
      let tick = ev.at lsr tick_bits in
      if tick < t.due_lb then t.due_lb <- tick
    end
  end
  else push_event t ev

let rescan t level =
  let shift = level * level_bits in
  let c = t.cursor lsr shift in
  let d = first_set_from t level (c land 0xFF) in
  let b = if d < 0 then max_int else (c + d) lsl shift in
  t.level_lb.(level) <- b;
  b

(* The range start of [level]'s first occupied slot, scanning the
   level only when its cached bound is stale.  Level 0's pins an exact
   tick, always at or after the cursor.  Inlined: the cached bound is
   the common case, one load and a test. *)
let[@inline] level_start t level =
  let b = t.level_lb.(level) in
  if b >= 0 then b else rescan t level

(* Candidate due lower bound of level 1/2, in ticks: its first slot's
   range start, clamped to the cursor (the d = 0 slot's range began in
   the past). *)
let[@inline] cand_hi t level = Int.max t.cursor (level_start t level)

let next_due_tick t =
  if t.stats.wheel_occupancy = 0 then max_int
  else if t.due_lb >= 0 then t.due_lb
  else begin
    let lb =
      Int.min (level_start t 0) (Int.min (cand_hi t 1) (cand_hi t 2))
    in
    t.due_lb <- lb;
    lb
  end

(* A lower bound: actual deadlines within the boundary tick may be up
   to one tick later. *)
let next_due_ns t =
  let lb = next_due_tick t in
  if lb = max_int then max_int else lb lsl tick_bits

let rec cascade_chain t id =
  if id >= 0 then begin
    let ev = t.by_id.(id) in
    let next = ev.next in
    if not (file t ev) then assert false;
    cascade_chain t next
  end

(* Move one slot's events down a level (level 1/2 -> finer slots).  The
   cursor first advances to the slot's range start, so every re-filed
   event lands within the finer level's span. *)
let cascade t slot start =
  t.due_lb <- -1;
  t.cursor <- start;
  t.stats.cascades <- t.stats.cascades + 1;
  cascade_chain t (take_slot t slot)

let rec drain_chain t id =
  if id >= 0 then begin
    let ev = t.by_id.(id) in
    let next = ev.next in
    t.stats.wheel_occupancy <- t.stats.wheel_occupancy - 1;
    push_event t ev;
    drain_chain t next
  end

(* Push one level-0 slot's events into the heap. *)
let drain t idx tick =
  t.cursor <- tick + 1;
  drain_chain t (take_slot t idx)

(* Process exactly one slot: cascade the earliest-due level-1/2 slot, or
   drain the earliest level-0 slot into the heap.  Ties go to the
   coarser level — its range may contain deadlines earlier than the
   level-0 candidate.  A drain leaves the due bound computed: the
   level-1/2 candidates are later than the drained tick, so moving the
   cursor just past it leaves them as they were. *)
let flush_next t =
  let a = level_start t 0 and b = cand_hi t 1 and c = cand_hi t 2 in
  if c <= a && c <= b then
    cascade t ((2 * level_slots) + ((c lsr (2 * level_bits)) land 0xFF)) c
  else if b <= a then
    cascade t (level_slots + ((b lsr level_bits) land 0xFF)) b
  else begin
    drain t (a land 0xFF) a;
    t.due_lb <- Int.min (level_start t 0) (Int.min b c)
  end

(* {2 Cancellation and draining} *)

let cancel ev =
  let st = ev.state in
  if st >= 0 then begin
    let t = ev.owner in
    let s = t.stats in
    s.cancelled <- s.cancelled + 1;
    if st = st_heap then begin
      ev.state <- st_tomb;
      s.dead <- s.dead + 1
    end
    else begin
      if st >= st_slot0 then begin
        unlink t (st - st_slot0) ev;
        s.cancelled_in_place <- s.cancelled_in_place + 1;
        s.wheel_occupancy <- s.wheel_occupancy - 1
      end;
      release t ev
    end
  end

(* Re-arm a parked event in place under a new [(at, seq)]: unlink it
   and file it again.  A cancel followed by a fresh queueing would do
   the same: the cancel recycles the record, and the next alloc (after
   the same compaction check) takes it straight back off the free list
   with the payload it already holds, or, when that check compacted,
   a freed twin; which record carries an event is invisible to the
   simulation.  So this counts as that cancel, and only skips the pool
   round trip and the payload stores. *)
let repark ev ~now ~at ~seq =
  let st = ev.state in
  st >= st_slot0
  && begin
       let t = ev.owner in
       let s = t.stats in
       s.cancelled <- s.cancelled + 1;
       unlink t (st - st_slot0) ev;
       s.cancelled_in_place <- s.cancelled_in_place + 1;
       s.wheel_occupancy <- s.wheel_occupancy - 1;
       if s.dead > compact_min_dead && 2 * s.dead > t.len then compact t;
       ev.at <- at;
       ev.seq <- seq;
       push_timer t ~now ev;
       true
     end

let is_pending ev = ev.state >= 0

let remove_top t =
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then
    let ha = t.h_at and hs = t.h_seq and hi = t.h_id in
    sift_down ha hs hi n 0 ha.(n) hs.(n) hi.(n)

(* Allocation-free peek for the engine's hot loop: [never] means empty.
   Discards (and recycles) cancelled entries from the top. *)
let rec top_live t =
  if t.len = 0 then never
  else begin
    let top = t.by_id.(t.h_id.(0)) in
    if top.state = st_tomb then begin
      remove_top t;
      t.stats.dead <- t.stats.dead - 1;
      release t top;
      top_live t
    end
    else top
  end

let pop_top t =
  let top = t.by_id.(t.h_id.(0)) in
  remove_top t;
  release t top
