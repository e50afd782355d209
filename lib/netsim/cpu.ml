type t = {
  engine : Des.Engine.t;
  cores : float;
  passthrough : bool;
  mutable busy_until : Des.Time.t;
  mutable busy_total : Des.Time.span;
  (* Charged cost per whole simulated second, indexed by second, for
     utilization reporting.  Grown by doubling; empty until the first
     charge, so a passthrough CPU never allocates one. *)
  mutable per_second : int array;
}

let make engine ~cores ~passthrough =
  {
    engine;
    cores;
    passthrough;
    busy_until = Des.Time.zero;
    busy_total = 0;
    per_second = [||];
  }

let create engine ~cores =
  (* Written so that NaN fails the test. *)
  if not (Float.is_finite cores && cores > 0.) then
    invalid_arg "Cpu.create: cores must be finite and positive";
  make engine ~cores ~passthrough:false

let passthrough engine = make engine ~cores:1. ~passthrough:true
let sec_len = Des.Time.sec 1

let rec doubled len sec = if len > sec then len else doubled (2 * len) sec

let add_to_second t sec charged =
  let len = Array.length t.per_second in
  if sec >= len then begin
    let bigger = Array.make (doubled (Int.max 64 len) sec) 0 in
    Array.blit t.per_second 0 bigger 0 len;
    t.per_second <- bigger
  end;
  t.per_second.(sec) <- t.per_second.(sec) + charged

(* Charge [cost] across the seconds that [at, at + remaining) spans,
   each proportionally to the fraction of the [span]-long service
   window that falls in it.  Top-level, so a charge allocates no
   closure. *)
let rec spread t ~cost ~span at remaining =
  if remaining > 0 then begin
    let sec = at / sec_len in
    let sec_end = (sec + 1) * sec_len in
    let here = Int.min remaining (sec_end - at) in
    let charged =
      int_of_float
        (float_of_int cost *. float_of_int here /. float_of_int span)
    in
    add_to_second t sec charged;
    spread t ~cost ~span sec_end (remaining - here)
  end

(* Attribute [cost] ns of work to the seconds spanned by [start, start+cost).
   The busy window is the *service* window (cost / cores); the charged cost
   is the raw cost so that utilization can exceed 100%% on multi-core
   nodes, matching docker-stats semantics.

   A window inside one second takes all of [cost]: [spread]'s share
   [cost * span / span] is exact in floats while [cost * span < 2^53]
   (the [cost] bound keeps the int product from overflowing, as
   [span <= 1 s < 2^30]).  Any other window takes the general path. *)
let account t ~start ~service ~cost =
  t.busy_total <- t.busy_total + cost;
  let span = Int.max 1 service in
  let sec = start / sec_len in
  if start + span <= (sec + 1) * sec_len
     && cost < 1 lsl 32
     && cost * span < 1 lsl 53
  then add_to_second t sec cost
  else spread t ~cost ~span start span

let enqueue t ~cost =
  let now = Des.Engine.now t.engine in
  let start = Int.max now t.busy_until in
  let service =
    Int.max 0 (int_of_float (float_of_int cost /. t.cores))
  in
  let finish = start + service in
  t.busy_until <- finish;
  if cost > 0 then account t ~start ~service ~cost;
  finish

let execute t ~cost op a b arg =
  if t.passthrough then Des.Engine.call_op t.engine op a b arg
  else Des.Engine.schedule_op_at t.engine (enqueue t ~cost) op a b arg

let charge t ~cost = if not t.passthrough then ignore (enqueue t ~cost : int)

let backlog t =
  Int.max 0 (t.busy_until - Des.Engine.now t.engine)

let busy_total t = t.busy_total

(* Sum the seconds [sec, ...) whose start lies in [lo_sec, hi_sec). *)
let rec sum_window a ~lo_sec ~hi_sec sec acc =
  if sec >= Array.length a then acc
  else
    let s = float_of_int sec in
    if s >= hi_sec then acc
    else
      sum_window a ~lo_sec ~hi_sec (sec + 1)
        (if s >= lo_sec then acc + a.(sec) else acc)

let utilization_in t ~lo_sec ~hi_sec =
  if hi_sec <= lo_sec then invalid_arg "Cpu.utilization_in: empty window";
  let a = t.per_second in
  (* A lower bound on the first second inside the window; the float test
     in [sum_window] decides the edge. *)
  let first =
    if lo_sec > 0. then
      int_of_float (Float.min lo_sec (float_of_int (Array.length a)))
    else 0
  in
  let busy = sum_window a ~lo_sec ~hi_sec first 0 in
  float_of_int busy /. ((hi_sec -. lo_sec) *. 1e9) *. 100.
