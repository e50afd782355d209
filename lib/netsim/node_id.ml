type t = int

let of_int i =
  if i < 0 then invalid_arg "Node_id.of_int: negative id";
  i

let to_int i = i
let equal = Int.equal
let hash i = i
(* One format for both printers: probe text rendered with either is
   hashed into trace digests. *)
let format : (int -> unit, 'b, unit) format = "n%d"
let pp ppf i = Format.fprintf ppf format i
let add_to_buffer b i = Printf.bprintf b format i
let range n = List.init n (fun i -> i)

module Map = Map.Make (Int)
module Set = Set.Make (Int)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
