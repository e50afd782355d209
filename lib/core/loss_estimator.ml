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

(* Ring index of logical index [i] in [0, max_size]: [head] and [i]
   are both below [max_size], so one compare replaces a [mod]. *)
let[@inline] ring_index t i =
  let j = t.head + i in
  if j >= t.max_size then j - t.max_size else j

let get t i = t.buf.(ring_index t i)
let set t i v = t.buf.(ring_index t i) <- v

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
  t.head <- ring_index t 1;
  t.len <- t.len - 1

(* Open a slot at logical index [pos] by shifting [pos, len) right by
   one, and store [id] there. *)
let insert_at t pos id =
  t.len <- t.len + 1;
  let i = ref (t.len - 1) in
  while !i > pos do
    set t !i (get t (!i - 1));
    decr i
  done;
  set t pos id

let observe t id =
  if t.len = 0 || get t (t.len - 1) < id then begin
    (* In order, the common case: append, evicting the oldest id when
       the list is full.  What the search and shift below do for an id
       above every stored one, in O(1). *)
    if t.len = t.max_size then evict_oldest t;
    set t t.len id;
    t.len <- t.len + 1;
    `Recorded
  end
  else
    let pos = lower_bound t id in
    if get t pos = id then `Duplicate
    else begin
      if t.len = t.max_size then begin
        (* Evicting the smallest id shifts the insertion point left by
           one unless the new id itself would have been the smallest. *)
        evict_oldest t;
        insert_at t (if pos > 0 then pos - 1 else 0) id
      end
      else insert_at t pos id;
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
