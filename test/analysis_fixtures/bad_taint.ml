(* Analyzer self-test fixture: ambient effects, each flagged where it is
   named.  Never compiled — parsed by [analyze --self-test] under a
   virtual lib/raft/ path.  [stamp] and [jittered] only call a
   flagged value, so they stay quiet: the site that names the effect is
   the one that answers for it. *)

(* wall clock, and a wrapper around it *)
let now () = Unix.gettimeofday ()
let stamp () = now () +. 1.

(* global Random, and a wrapper around it *)
let jitter () = Random.float 1.0
let jittered x = x +. jitter ()

(* ambient-effect: Sys, Unix and channels *)
let home () = Sys.getenv "HOME"
let args () = Sys.argv
let pid () = Unix.getpid ()
let log_line s = print_endline s
let trace_file path = open_out path
let err = Stdlib.stderr
