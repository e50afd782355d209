type t = {
  min_size : int;
  max_size : int;
  (* Ascending circular buffer of ids. *)
  buf : int array;
  mutable head : int;
  mutable len : int;
}

let create ~min_size ~max_size =
  if min_size <= 0 || max_size < min_size then
    invalid_arg "Loss_estimator.create: requires 0 < min_size <= max_size";
  { min_size; max_size; buf = Array.make max_size 0; head = 0; len = 0 }

let get t i = t.buf.((t.head + i) mod t.max_size)
let set t i v = t.buf.((t.head + i) mod t.max_size) <- v

(* Index of the first stored id >= [id] in [lo, hi).  Top level, with
   every input a parameter: a local recursive function closing over
   [t] and [id] would be a closure allocated per call. *)
let rec search t id lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if get t mid < id then search t id (mid + 1) hi else search t id lo mid

(* Index of the first stored id >= [id], in [0, len]. *)
let lower_bound t id = search t id 0 t.len

let evict_oldest t =
  t.head <- (t.head + 1) mod t.max_size;
  t.len <- t.len - 1

let observe t id =
  let pos = lower_bound t id in
  if pos < t.len && get t pos = id then `Duplicate
  else begin
    if t.len = t.max_size then begin
      (* Evicting the smallest id shifts the insertion point left by one
         unless the new id itself would have been the smallest. *)
      let pos = if pos > 0 then pos - 1 else 0 in
      evict_oldest t;
      (* Shift elements [pos, len) right by one to open a slot. *)
      t.len <- t.len + 1;
      let i = ref (t.len - 1) in
      while !i > pos do
        set t !i (get t (!i - 1));
        decr i
      done;
      set t pos id
    end
    else begin
      t.len <- t.len + 1;
      let i = ref (t.len - 1) in
      while !i > pos do
        set t !i (get t (!i - 1));
        decr i
      done;
      set t pos id
    end;
    `Recorded
  end

let length t = t.len
let warmed_up t = t.len >= t.min_size

let span t =
  if t.len = 0 then None else Some (get t 0, get t (t.len - 1))

let expected t = if t.len = 0 then 0 else get t (t.len - 1) - get t 0 + 1

(* [@inline]: the tuner reads it per heartbeat, and a float result
   crossing a call that is not inlined is boxed. *)
let[@inline] loss_rate t =
  if t.len < 2 then 0.
  else
    let e = expected t in
    let p = 1. -. (float_of_int t.len /. float_of_int e) in
    if 0. >= p then 0. else p

let clear t =
  t.head <- 0;
  t.len <- 0
