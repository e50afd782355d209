type t = { sorted : float array; mean : float; std : float }

let of_array a =
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  let w = Welford.create () in
  Array.iter (Welford.add w) sorted;
  { sorted; mean = Welford.mean w; std = Welford.std w }

let of_list l = of_array (Array.of_list l)

let of_parts parts =
  (* Concatenating the retained (sorted) sample arrays and rebuilding
     gives the summary of the union of the raw samples — exact, not an
     approximation, because [t] keeps every sample. *)
  of_array (Array.concat (List.map (fun t -> t.sorted) parts))
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

let cdf t ~points =
  let n = count t in
  if n = 0 || points <= 0 then []
  else
    List.init points (fun i ->
        let prob = float_of_int (i + 1) /. float_of_int points in
        let idx =
          Int.min (n - 1)
            (int_of_float (ceil (prob *. float_of_int n)) - 1)
        in
        (t.sorted.(Int.max 0 idx), prob))

let cdf_at t v =
  let n = count t in
  if n = 0 then nan
  else
    (* Binary search for the number of samples <= v. *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if t.sorted.(mid) <= v then search (mid + 1) hi else search lo mid
    in
    float_of_int (search 0 n) /. float_of_int n
