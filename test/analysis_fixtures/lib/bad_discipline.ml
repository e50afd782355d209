(* Analyzer self-test fixture for lib/'s source discipline: every
   pattern the analyzer's three discipline rules forbid, as compiled. *)

(* poly-compare: a comparison against a boxed operand *)
let changed leader from = leader <> Some from
let same_pair a b = (a, b) = (1, 2)
let before x = x < `Tag 3

(* mutable-global *)
let counter = ref 0
let total : float ref = ref 0.

(* hot-alloc: a [@hot] binding calling allocating combinators, formatting,
   and holding a lambda literal *)
let[@hot] relay_all peers msg =
  let framed = List.map (fun p -> (p, msg)) peers in
  Format.eprintf "relaying %d@." (List.length framed);
  Array.of_list framed

(* hot-alloc, continued: an [and] binding marked [@@hot] whose lambda
   follows [@@] unparenthesized, and a [@hot] binding in a module *)
type relay = { lock : Mutex.t; queue : int Queue.t }
let plain xs = xs
and drain t f =
  Mutex.protect t.lock @@ fun () -> Queue.iter f t.queue
[@@hot]

module Relay = struct
  let[@hot] wrap msg = Printf.sprintf "<%s>" msg
end
