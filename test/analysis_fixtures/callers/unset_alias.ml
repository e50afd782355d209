(* Callers of the optional-parameter fixtures that pass a label through
   a module alias or a qualified name, and the applications of
   Bad_unset that must not count. *)

module U = Good_unset

let sized () = U.make ~size:4 ()
let deep () = Good_unset.Inner.build ~depth:1 ()
let wide () = Good_unset.plain ~width:2 ()

(* a [make] of this module's own: setting its [?size] sets nothing of
   Bad_unset.make *)
let make ?(size = 0) () = size
let own () = make ~size:2 ()
let picked () = Bad_unset.pick ~choices:[ 1 ] ()
let built () = Bad_unset.Inner.build ()
let planted () = Bad_planted.f ()
