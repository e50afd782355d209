type t = {
  lo : float;
  hi : float;
  counts : int array;
  mutable underflow : int;
  mutable overflow : int;
  mutable total : int;
}

let create ~lo ~hi ~bins =
  if not (lo < hi) then invalid_arg "Histogram.create: requires lo < hi";
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  { lo; hi; counts = Array.make bins 0; underflow = 0; overflow = 0; total = 0 }

let bins t = Array.length t.counts
let lo t = t.lo
let hi t = t.hi

let copy t =
  {
    lo = t.lo;
    hi = t.hi;
    counts = Array.copy t.counts;
    underflow = t.underflow;
    overflow = t.overflow;
    total = t.total;
  }

let add t x =
  t.total <- t.total + 1;
  if x < t.lo then t.underflow <- t.underflow + 1
  else if x >= t.hi then t.overflow <- t.overflow + 1
  else
    let w = (t.hi -. t.lo) /. float_of_int (bins t) in
    let i = Int.min (bins t - 1) (int_of_float ((x -. t.lo) /. w)) in
    t.counts.(i) <- t.counts.(i) + 1

let merge a b =
  if a.lo <> b.lo || a.hi <> b.hi || Array.length a.counts <> Array.length b.counts
  then invalid_arg "Histogram.merge: histograms have different bin layouts";
  let counts = Array.mapi (fun i c -> c + b.counts.(i)) a.counts in
  {
    lo = a.lo;
    hi = a.hi;
    counts;
    underflow = a.underflow + b.underflow;
    overflow = a.overflow + b.overflow;
    total = a.total + b.total;
  }

let count t = t.total
let bin_count t i = t.counts.(i)
let underflow t = t.underflow
let overflow t = t.overflow

let bin_bounds t i =
  let w = (t.hi -. t.lo) /. float_of_int (bins t) in
  (t.lo +. (w *. float_of_int i), t.lo +. (w *. float_of_int (i + 1)))
