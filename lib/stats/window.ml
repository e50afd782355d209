type t = {
  buf : float array;
  mutable head : int; (* index of oldest sample *)
  mutable len : int;
  mutable sum : float;
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
    sum = 0.;
    pushes_since_rebuild = 0;
  }

let capacity t = Array.length t.buf
let length t = t.len

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.sum <- 0.;
  t.pushes_since_rebuild <- 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Window.get: index out of bounds";
  t.buf.((t.head + i) mod Array.length t.buf)

(* The accumulation loops below run over a one-element float array
   rather than a [float ref]: stores into a float array are unboxed,
   where every store to a ref (and every float argument to a non-inlined
   recursive call) allocates a fresh box.  [std] runs on the tuner's
   per-heartbeat path, so the accumulator is the difference between a
   constant-size scratch cell and two words of garbage per sample.

   The ring's contents are two contiguous runs, [head, head + first)
   then [0, len - first).  Looping over them in that order visits the
   samples oldest first, the summation order of indexing each one by
   [mod], so results are bit-identical without a division per sample. *)
let first_run t = Stdlib.min t.len (Array.length t.buf - t.head)

let rebuild t =
  (* [get] is not inlined, and a non-inlined float return is a fresh box
     per sample; indexing the buffer directly keeps the loop
     allocation-free. *)
  let buf = t.buf and head = t.head and first = first_run t in
  let acc = [| 0. |] in
  for i = head to head + first - 1 do
    acc.(0) <- acc.(0) +. buf.(i)
  done;
  for i = 0 to t.len - first - 1 do
    acc.(0) <- acc.(0) +. buf.(i)
  done;
  t.sum <- acc.(0);
  t.pushes_since_rebuild <- 0

let push t x =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    let old = t.buf.(t.head) in
    t.sum <- t.sum -. old;
    t.buf.(t.head) <- x;
    t.head <- (t.head + 1) mod cap
  end
  else begin
    t.buf.((t.head + t.len) mod cap) <- x;
    t.len <- t.len + 1
  end;
  t.sum <- t.sum +. x;
  t.pushes_since_rebuild <- t.pushes_since_rebuild + 1;
  if t.pushes_since_rebuild >= rebuild_period then rebuild t

let mean t = if t.len = 0 then 0. else t.sum /. float_of_int t.len

(* Two-pass variance over the (bounded) window contents: immune to the
   catastrophic cancellation that the E[x²] − E[x]² shortcut suffers when
   the mean dwarfs the spread. *)
let std t =
  if t.len < 2 then 0.
  else begin
    let n = float_of_int t.len in
    let m = t.sum /. n in
    let buf = t.buf and head = t.head and first = first_run t in
    let acc = [| 0. |] in
    for i = head to head + first - 1 do
      let d = buf.(i) -. m in
      acc.(0) <- acc.(0) +. (d *. d)
    done;
    for i = 0 to t.len - first - 1 do
      let d = buf.(i) -. m in
      acc.(0) <- acc.(0) +. (d *. d)
    done;
    sqrt (acc.(0) /. n)
  end

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (get t i)
  done;
  !acc

let min t =
  if t.len = 0 then nan else fold t ~init:infinity ~f:Stdlib.min

let max t =
  if t.len = 0 then nan else fold t ~init:neg_infinity ~f:Stdlib.max

let last t = if t.len = 0 then None else Some (get t (t.len - 1))
let to_list t = List.rev (fold t ~init:[] ~f:(fun acc x -> x :: acc))
