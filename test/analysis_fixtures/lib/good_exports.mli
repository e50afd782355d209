(* Analyzer self-test fixture: the near-misses of bad_exports.mli, each
   value used from outside this module, by ../callers alone. *)

type t = int

val aliased : t
(* reached through a module alias *)

module Ord : sig
  type t = int

  val compare : t -> t -> int
end
(* a functor argument: [Set.Make (Good_exports.Ord)] uses [compare] *)

module Shape : sig
  val shaped : int -> int
end
(* included whole by a caller *)

module Packed : sig
  val size : int
end
(* packed as a first-class module *)

val helper : int -> int
(* called by this module's own .ml and by a caller *)

val mean : float list -> float
(* a caller has a [mean] of its own, and calls this one too *)
