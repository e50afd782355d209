(* Implementation of the good_exports.mli fixture. *)

type t = int

let aliased = 1

module Ord = struct
  type t = int

  let compare = Int.compare
end

module Shape = struct
  let shaped x = x
end

module Packed = struct
  let size = 3
end

let helper x = x + 1
let mean xs = helper (List.length xs) |> float_of_int
