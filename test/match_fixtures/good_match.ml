(* Fragile-match near-misses: each match below compiles under lib/'s
   and bin/'s warning policy ([-w +4 -warn-error +4]). *)

type msg = Ping | Pong | Payload of int

(* Every constructor named. *)
let to_int = function Ping -> 0 | Pong -> 1 | Payload n -> n

(* The rest of the type spelled out under [Some]. *)
let nested m =
  match Some m with Some Pong -> 1 | Some (Ping | Payload _) | None -> 0

(* A guarded variable arm: the unguarded arms must still cover every
   constructor (warning 8, an error in lib/), so growing [msg] still
   fails that build. *)
let guarded m =
  match m with Ping -> 0 | p when p = Pong -> 1 | Pong | Payload _ -> 2

(* A wildcard over a payload or a non-variant value hides no
   constructor. *)
let positive = function
  | Payload n when n > 0 -> true
  | Payload _ | Ping | Pong -> false

let is_zero = function 0 -> true | _ -> false
