(* Open-addressing int-keyed table for the fabric's directed-pair hot
   lookups.  [Hashtbl] with int keys costs a polymorphic-hash C call per
   operation and [find_opt] boxes an option per hit; here the hash is a
   single Fibonacci multiply and [find] returns the option box stored at
   insertion, so a lookup allocates nothing.  Linear probing, power-of-2
   capacity, load factor <= 1/2; deletion is a filtering rebuild (only
   [remove_node] deletes, and that is rare and O(n) anyway). *)

type 'a t = {
  mutable keys : int array;  (* -1 = empty *)
  mutable vals : 'a option array;  (* physically paired with [keys] *)
  mutable mask : int;  (* capacity - 1 *)
  mutable shift : int;  (* 63 - log2 capacity *)
  mutable count : int;
}

(* Odd 64-bit multiplier (Fibonacci hashing): the top bits of [k * phi]
   are well mixed even for sequential keys.  [lsr] is a logical shift,
   so a negative product still indexes correctly. *)
let phi = 0x2545F4914F6CDD1D

let[@inline] slot t k = ((k * phi) lsr t.shift) land t.mask

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let sized_arrays cap = (Array.make cap (-1), Array.make cap None)

let create n =
  let rec cap c = if c >= 2 * n then c else cap (2 * c) in
  let cap = cap 16 in
  let keys, vals = sized_arrays cap in
  { keys; vals; mask = cap - 1; shift = 63 - log2 cap; count = 0 }

let rec probe_find t k i =
  let key = t.keys.(i) in
  if key = k then t.vals.(i)
  else if key < 0 then None
  else probe_find t k ((i + 1) land t.mask)

let[@inline] find t k = probe_find t k (slot t k)

let rec probe_slot t k i =
  let key = t.keys.(i) in
  if key = k || key < 0 then i else probe_slot t k ((i + 1) land t.mask)

let rec add t k v =
  if 2 * (t.count + 1) > t.mask + 1 then grow t;
  let i = probe_slot t k (slot t k) in
  if t.keys.(i) < 0 then begin
    t.keys.(i) <- k;
    t.count <- t.count + 1
  end;
  t.vals.(i) <- Some v

and grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * (t.mask + 1) in
  let keys, vals = sized_arrays cap in
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- cap - 1;
  t.shift <- 63 - log2 cap;
  t.count <- 0;
  Array.iteri
    (fun i k ->
      if k >= 0 then
        match old_vals.(i) with Some v -> add t k v | None -> ())
    old_keys

let fold f t init =
  let rec go i acc =
    if i > t.mask then acc
    else
      match t.vals.(i) with
      | Some v -> go (i + 1) (f t.keys.(i) v acc)
      | None -> go (i + 1) acc
  in
  go 0 init

(* Rebuild keeping only entries the predicate accepts — deletion without
   tombstones, so probe chains stay intact. *)
let filter t f =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = t.mask + 1 in
  let keys, vals = sized_arrays cap in
  t.keys <- keys;
  t.vals <- vals;
  t.count <- 0;
  Array.iteri
    (fun i k ->
      if k >= 0 then
        match old_vals.(i) with
        | Some v -> if f k v then add t k v
        | None -> ())
    old_keys
