(* Analyzer self-test fixture for [unset-optional]: optional parameters
   no caller outside this module passes.  good_unset.mli holds the
   near-misses. *)

val make : ?size:int -> unit -> int
(* only this module's own .ml passes [~size], and a caller passes it to
   a [make] of its own: still unset *)

val pick : ?seed:int64 -> choices:int list -> unit -> int
(* the callers' one application leaves [?seed] out *)

module Inner : sig
  val build : ?depth:int -> unit -> int
end
