(* The running sum lives in an all-float record: a float field of a
   record that also holds ints is boxed, so every store to it would
   allocate. *)
type acc = { mutable sum : float }

type t = {
  buf : float array;
  mutable head : int; (* index of oldest sample *)
  mutable len : int;
  acc : acc;
  mutable pushes_since_rebuild : int;
}

(* Rebuild the running sum from the raw samples every [rebuild_period]
   pushes so that cancellation error from evictions cannot accumulate
   without bound. *)
let rebuild_period = 4096

let create ~capacity =
  if capacity <= 0 then invalid_arg "Window.create: capacity must be positive";
  {
    buf = Array.make capacity 0.;
    head = 0;
    len = 0;
    acc = { sum = 0. };
    pushes_since_rebuild = 0;
  }

let length t = t.len

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.acc.sum <- 0.;
  t.pushes_since_rebuild <- 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Window.get: index out of bounds";
  t.buf.((t.head + i) mod Array.length t.buf)

(* The accumulation loops below sum into a local [float ref].  It never
   escapes, so ocamlopt keeps it unboxed in a register: no allocation
   per sample, and no memory round trip either.  (A float argument to a
   non-inlined recursive call, by contrast, is boxed on every call.)
   [std] runs on the tuner's per-RTT-sample path.  It and [push] are
   [@inline]: a float argument or result crossing a call that is not
   inlined is boxed, and these two take and return floats on every
   heartbeat.

   The ring's contents are two contiguous runs, [head, head + first)
   then [0, len - first).  Looping over them in that order visits the
   samples oldest first, the summation order of indexing each one by
   [mod], so results are bit-identical without a division per sample. *)
let first_run t = Int.min t.len (Array.length t.buf - t.head)

let rebuild t =
  (* [get] is not inlined, and a non-inlined float return is a fresh box
     per sample; indexing the buffer directly keeps the loop
     allocation-free. *)
  let buf = t.buf and head = t.head and first = first_run t in
  let acc = ref 0. in
  for i = head to head + first - 1 do
    acc := !acc +. buf.(i)
  done;
  for i = 0 to t.len - first - 1 do
    acc := !acc +. buf.(i)
  done;
  t.acc.sum <- !acc;
  t.pushes_since_rebuild <- 0

let[@inline] push t x =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    let old = t.buf.(t.head) in
    t.acc.sum <- t.acc.sum -. old;
    t.buf.(t.head) <- x;
    t.head <- (t.head + 1) mod cap
  end
  else begin
    t.buf.((t.head + t.len) mod cap) <- x;
    t.len <- t.len + 1
  end;
  t.acc.sum <- t.acc.sum +. x;
  t.pushes_since_rebuild <- t.pushes_since_rebuild + 1;
  if t.pushes_since_rebuild >= rebuild_period then rebuild t

let[@inline] mean t = if t.len = 0 then 0. else t.acc.sum /. float_of_int t.len

(* Two-pass variance over the (bounded) window contents: immune to the
   catastrophic cancellation that the E[x²] − E[x]² shortcut suffers when
   the mean dwarfs the spread. *)
let[@inline] std t =
  if t.len < 2 then 0.
  else begin
    let n = float_of_int t.len in
    let m = t.acc.sum /. n in
    let buf = t.buf and head = t.head and first = first_run t in
    let acc = ref 0. in
    for i = head to head + first - 1 do
      let d = buf.(i) -. m in
      acc := !acc +. (d *. d)
    done;
    for i = 0 to t.len - first - 1 do
      let d = buf.(i) -. m in
      acc := !acc +. (d *. d)
    done;
    sqrt (!acc /. n)
  end

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (get t i)
  done;
  !acc

let min t =
  if t.len = 0 then nan
  else fold t ~init:infinity ~f:(fun acc x -> if acc <= x then acc else x)

let max t =
  if t.len = 0 then nan
  else fold t ~init:neg_infinity ~f:(fun acc x -> if acc >= x then acc else x)

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc x -> x :: acc))
