type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0; mean = 0.; m2 = 0.; min = nan; max = nan }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if t.n = 1 then begin
    t.min <- x;
    t.max <- x
  end
  else begin
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x
  end

let count t = t.n
let mean t = if t.n = 0 then 0. else t.mean
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int t.n
let std t = sqrt (variance t)

let min t = t.min
let max t = t.max

let merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else
    let n = a.n + b.n in
    let fa = float_of_int a.n and fb = float_of_int b.n in
    let delta = b.mean -. a.mean in
    {
      n;
      mean = a.mean +. (delta *. fb /. float_of_int n);
      m2 = a.m2 +. b.m2 +. (delta *. delta *. fa *. fb /. float_of_int n);
      min = Stdlib.min a.min b.min;
      max = Stdlib.max a.max b.max;
    }
