type t = { sorted : float array; mean : float; std : float }

(* [Array.sort Float.compare], specialised to a flat float array: the
   same ternary heap sort, making the same comparisons and moves in the
   same order, so it leaves the same sequence (equal keys such as [0.]
   and [-0.] included).  The comparison is inlined on unboxed floats
   instead of a call through a closure that boxes both operands. *)

(* The largest of [i]'s (up to three) sons below [l], or -1 when [i]
   has none. *)
let maxson (a : float array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
    if Float.compare a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
  end
  else if i31 + 1 < l && Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1
  else if i31 < l then i31
  else -1

(* Sift [a.(i)] down the heap of the first [l] elements. *)
let trickle (a : float array) l i =
  let e = a.(i) in
  let i = ref i and sifting = ref true in
  while !sifting do
    let j = maxson a l !i in
    if j >= 0 && Float.compare a.(j) e > 0 then begin
      a.(!i) <- a.(j);
      i := j
    end
    else begin
      a.(!i) <- e;
      sifting := false
    end
  done

(* Move the heap's top to slot [l] (the heap shrinks to [l] elements):
   promote the larger son all the way down, then sift the displaced
   [a.(l)] back up from the hole left at the bottom. *)
let pop (a : float array) l =
  let e = a.(l) in
  a.(l) <- a.(0);
  let hole = ref 0 and j = ref (maxson a l 0) in
  while !j >= 0 do
    a.(!hole) <- a.(!j);
    hole := !j;
    j := maxson a l !j
  done;
  let sifting = ref true in
  while !sifting do
    let father = (!hole - 1) / 3 in
    if Float.compare a.(father) e < 0 then begin
      a.(!hole) <- a.(father);
      if father > 0 then hole := father
      else begin
        a.(0) <- e;
        sifting := false
      end
    end
    else begin
      a.(!hole) <- e;
      sifting := false
    end
  done

let sort_floats (a : float array) =
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle a l i
  done;
  for i = l - 1 downto 2 do
    pop a i
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

let of_array a =
  let sorted = Array.copy a in
  sort_floats sorted;
  let w = Welford.create () in
  Array.iter (Welford.add w) sorted;
  { sorted; mean = Welford.mean w; std = Welford.std w }

let of_list l = of_array (Array.of_list l)

let count t = Array.length t.sorted
let mean t = t.mean
let std t = t.std
let min t = if count t = 0 then nan else t.sorted.(0)
let max t = if count t = 0 then nan else t.sorted.(count t - 1)

let percentile t q =
  let n = count t in
  if n = 0 then nan
  else if q <= 0. then t.sorted.(0)
  else if q >= 100. then t.sorted.(n - 1)
  else
    let rank = q /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = Int.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    t.sorted.(lo) +. (frac *. (t.sorted.(hi) -. t.sorted.(lo)))

let median t = percentile t 50.
