(* Analyzer self-test fixture for [unused-export]: values nothing
   outside this module uses, each reached from ../callers only in a way
   that must not count.  good_exports.mli holds the near-misses. *)

type t = int

val aliased : t
(* a caller aliases this module and names its type, never this value *)

module Ord : sig
  type t = int

  val compare : t -> t -> int
end

val beside_ord : int
(* a functor argument hands over [Ord]'s values, not its neighbours' *)

val shaped : int -> int
(* [module type of] reads the signature, not the values behind it *)

val helper : int -> int
(* only this module's own .ml calls it *)

val mean : float list -> float
(* a caller defines and calls a [mean] of its own *)
