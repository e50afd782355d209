(* Analyzer self-test fixture: near-misses that must NOT fire, even
   though this file is analyzed under a virtual lib/raft/ path, inside
   every rule's scope. *)

(* Functions returning fresh mutable state are fine; only top-level
   allocations are shared. *)
let fresh_table () : (string, int) Hashtbl.t = Hashtbl.create 16

let bump () =
  let local = ref 0 in
  incr local;
  !local

(* Names that merely look like effects are not effects: a local named
   [stdout] is the caller's channel, and the benign Sys constants
   describe the build, not the ambient system. *)
let gettimeofday = 3
let render x = Printf.sprintf "%d" x
let emit stdout s = output_string stdout s
let word_bytes = Sys.word_size / 8

(* Immutable top-level data is fine. *)
let constant = 42
let digits = [ 3; 1; 4 ]
let helper x = constant + x
