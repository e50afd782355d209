(* Analyzer self-test fixture for lib/'s source discipline: every
   pattern the nine rules forbid.  Never compiled. *)

(* wall-clock *)
let now () = Unix.gettimeofday ()
let cpu_seconds = Sys.time ()
let epoch = Unix.time ()

(* global-rng *)
let roll () = Random.int 6
let seed () = Random.self_init ()

(* obj-magic *)
let cast x = Obj.magic x

(* poly-compare *)
let cmp a b = Stdlib.compare a b
let bucket x = Hashtbl.hash x
let order xs = List.sort compare xs
let larger a b = max a b
let smaller a b = Stdlib.min a b
let changed leader from = leader <> Some from
let same_pair a b = (a, b) = (1, 2)
let before x = x < `Tag 3

(* mutable-global *)
let counter = ref 0
let total : float ref = ref 0.

(* stdlib-exit *)
let bail () = exit 1
let die code = Stdlib.exit code

(* raw-fabric-send *)
let ship fabric kind ~src ~dst msg = Netsim.Fabric.send fabric kind ~src ~dst msg
let ship_aliased fabric kind ~src ~dst msg = Fabric.send fabric kind ~src ~dst msg

(* hot-alloc: a [@hot] binding calling allocating combinators, formatting,
   and holding a lambda literal *)
let[@hot] relay_all peers msg =
  let framed = List.map (fun p -> (p, msg)) peers in
  Format.eprintf "relaying %d@." (List.length framed);
  Array.of_list framed

(* ambient-effect: printing *)
let show x = Printf.printf "%d\n" x
let complain msg = Format.eprintf "%s@." msg
let announce () = print_endline "ready"
let default_ppf = Format.std_formatter

(* hot-alloc, continued: an [and] binding marked [@@hot] whose lambda
   follows [@@] with no parenthesis to give it away, and a [@hot]
   binding nested in a module *)
let plain xs = xs
and drain t f =
  Mutex.protect t.lock @@ fun () -> Queue.iter f t.queue
[@@hot]

module Relay = struct
  let[@hot] wrap msg = Printf.sprintf "<%s>" msg
end
