(* Analyzer self-test fixture: effect taint through local wrappers.
   Never compiled — parsed by [analyze --self-test] under a virtual
   lib/raft/ path, so every value here is a taint entry point.  The
   banned effects hide behind one and two levels of wrapping; the
   per-file discipline rules only see the direct uses, the taint pass
   must also walk [stamp] and [doubly_wrapped] to them. *)

(* wall clock, direct and wrapped *)
let now () = Unix.gettimeofday ()
let stamp () = now () +. 1.
let doubly_wrapped () = stamp () *. 2.

(* global Random behind a helper *)
let jitter () = Random.float 1.0
let jittered x = x +. jitter ()

(* ambient Sys *)
let home () = Sys.getenv "HOME"

(* ambient I/O *)
let log_line s = print_endline s
