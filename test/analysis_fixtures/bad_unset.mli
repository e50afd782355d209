(* Analyzer self-test fixture for [unset-optional]: optional parameters
   no caller outside this module passes.  Never compiled. *)

val make : ?size:int -> unit -> int
(* only this module's own .ml passes [~size]: still unset *)

val pick : ?seed:int64 -> choices:int list -> unit -> int
(* nobody passes [?seed] at all *)

module Inner : sig
  val build : ?depth:int -> unit -> int
end
