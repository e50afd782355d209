(* Implementation of the bad_unset.mli fixture: the module passes its
   own optional parameter, which does not count as a caller setting
   it.  Never compiled. *)

let make ?(size = 1) () = size
let twice () = make ~size:2 () + make ()
let pick ?(seed = 0L) ~choices () = List.length choices + Int64.to_int seed

module Inner = struct
  let build ?(depth = 3) () = depth
end
