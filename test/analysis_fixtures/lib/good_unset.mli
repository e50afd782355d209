(* Analyzer self-test fixture: optional parameters that callers outside
   the module do pass, through every form [unset-optional] must see;
   the callers are in ../callers, as if in the tests directory. *)

val make : ?size:int -> unit -> int
(* passed as [~size] through a module alias *)

val pick : ?seed:int64 -> choices:int list -> unit -> int
(* passed as [?seed], forwarding an option *)

val plain : width:int -> unit -> int
(* labelled but not optional: outside the rule *)

module Inner : sig
  val build : ?depth:int -> unit -> int
  (* a nested module's value, passed by its qualified name *)
end
