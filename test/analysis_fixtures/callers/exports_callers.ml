(* Callers of the exports fixtures: each reference to good_exports.mli
   counts, and none to bad_exports.mli does. *)

(* A module alias is not a use of the module's values; a value reached
   through one is. *)
module B = Bad_exports
module G = Good_exports

type bad = B.t

let aliased = G.aliased

(* A functor argument uses every value of the module passed, and only
   those; an include uses every value too, [module type of] none. *)
module Bad_set = Set.Make (Bad_exports.Ord)
module Good_set = Set.Make (Good_exports.Ord)

module type Bad_shape = module type of Bad_exports

include Good_exports.Shape

(* A pack hands over the whole module. *)
module type Size = sig
  val size : int
end

let packed = (module Good_exports.Packed : Size)
let helper = Good_exports.helper 1

(* A [mean] of this module's own is no use of Bad_exports.mean. *)
let mean xs = List.fold_left ( +. ) 0. xs
let own_mean = mean [ 1. ]
let good_mean = Good_exports.mean [ 1. ]
