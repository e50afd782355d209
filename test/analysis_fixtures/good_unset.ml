(* Implementation of the good_unset.mli fixture.  Never compiled. *)

let make ?(size = 1) () = size
let pick ?(seed = 0L) ~choices () = List.length choices + Int64.to_int seed
let plain ~width () = width

module Inner = struct
  let build ?(depth = 3) () = depth
end
