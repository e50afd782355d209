(* Fragile-match fixture: every match below ends in an arm that would
   swallow a constructor added to its type later.  Under lib/'s and
   bin/'s warning policy ([-w +4 -warn-error +4]) each one is a build
   error; bad_match.expected pins the compiler's report. *)

type msg = Ping | Pong | Payload of int

(* A catch-all arm. *)
let swallow = function Ping -> 0 | _ -> 1

(* A wildcard nested under a constructor: [Some _] hides [Ping] and
   [Payload]. *)
let nested m = match Some m with Some Pong -> 1 | Some _ | None -> 0

(* A catch-all over a wrapped scrutinee. *)
let wrapped m = match Some m with Some Pong -> 1 | _ -> 0

(* A constructor name two variants declare: the match is typed, so the
   shared [Read] hides nothing. *)
type event = Read | Tick
type request = Read of { key : string } | Write of { key : string }

let is_read (r : request) = match r with Read _ -> true | _ -> false
