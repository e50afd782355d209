(* Implementation of the bad_exports.mli fixture. *)

type t = int

let aliased = 1

module Ord = struct
  type t = int

  let compare = Int.compare
end

let beside_ord = 2
let shaped x = x
let helper x = x + 1
let mean xs = helper (List.length xs) |> float_of_int
