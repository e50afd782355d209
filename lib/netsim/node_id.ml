type t = int

let of_int i =
  if i < 0 then invalid_arg "Node_id.of_int: negative id";
  i

let to_int i = i
let equal = Int.equal
let hash i = i
let pp ppf i = Format.fprintf ppf "n%d" i

(* Digits of [n], most significant first; [abs] of a remainder is a
   digit even for [min_int]. *)
let rec add_digits b n =
  if n / 10 <> 0 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + abs (n mod 10)))

let add_int_to_buffer b n =
  if n < 0 then Buffer.add_char b '-';
  add_digits b n

(* The [pp] text: probe text rendered with either printer is hashed
   into trace digests. *)
let add_to_buffer b i =
  Buffer.add_char b 'n';
  add_int_to_buffer b i
let range n = List.init n (fun i -> i)

module Map = Map.Make (Int)
module Set = Set.Make (Int)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
