(* Analyzer fixture: one finding of each kind, planted in this module
   and its .ml; read as callers, the same files raise nothing. *)

val f : ?x:int -> unit -> bool
