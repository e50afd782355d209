(* The SplitMix64 state lives in 8 bytes read and written in place.  An
   [int64] record field is a pointer to a boxed value, so every draw
   would allocate a fresh box for the new state; the bytes are updated
   without one.  The draw functions are [@inline], so their [int64] and
   [float] results stay unboxed at their call sites too. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* David Stafford's Mix13 finalizer, as used by SplitMix64. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let default_seed = 0x5DEECE66DL

let[@inline] state t = Bytes.get_int64_ne t 0

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ?(seed = default_seed) () = of_state (mix64 seed)
let copy = Bytes.copy

let[@inline] int64 t =
  let s = Int64.add (state t) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

(* FNV-1a over the name, folded into the parent's current state without
   advancing the parent. *)
let hash_name name =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    name;
  !h

let split t name = of_state (mix64 (Int64.logxor (state t) (hash_name name)))

let split_int t i =
  of_state (mix64 (Int64.logxor (state t) (mix64 (Int64.of_int i))))

let derive seed i =
  mix64 (Int64.logxor (mix64 seed) (mix64 (Int64.of_int i)))

let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 2)

(* Rejection sampling to avoid modulo bias.  A top-level function, not
   a closure over [t] and [n], so a draw allocates nothing. *)
let rec below t n =
  let r = bits t in
  let v = r mod n in
  if r - v > (1 lsl 62) - n then below t n else v

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  below t n

let[@inline] float t =
  (* 53 random bits scaled into [0, 1). *)
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int r *. 0x1p-53

let uniform t lo hi = lo +. ((hi -. lo) *. float t)
let bool t = Int64.logand (int64 t) 1L = 1L

let[@inline] bernoulli t p =
  if p <= 0. then false else if p >= 1. then true else float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
