(* The callers of the good_unset.mli fixture: one application per
   optional parameter, each from outside its module.  Never compiled. *)

module U = Good_unset

let sized () = U.make ~size:4 ()
let seeded seed = Good_unset.pick ?seed ~choices:[ 1; 2 ] ()
let deep () = Good_unset.Inner.build ~depth:1 ()
