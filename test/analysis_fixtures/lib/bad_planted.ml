(* Implementation of the bad_planted.mli fixture: a boxed comparison
   and a mutable global. *)

let f ?x () = x <> Some 1
let counter = ref 0
