(* A caller that sets Good_unset.pick's [?seed] by forwarding an
   option. *)

let seeded seed = Good_unset.pick ?seed ~choices:[ 1; 2 ] ()
