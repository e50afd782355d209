(* Analyzer self-test fixture: near-misses that must NOT fire, even
   though this file is analyzed under a virtual lib/raft/ path (taint
   entry domain). *)

(* Functions returning fresh mutable state are fine; only top-level
   allocations are shared. *)
let fresh_table () : (string, int) Hashtbl.t = Hashtbl.create 16

let bump () =
  let local = ref 0 in
  incr local;
  !local

(* Names that merely look like effects are not effects. *)
let gettimeofday = 3
let render x = Printf.sprintf "%d" x

(* Immutable top-level data is fine. *)
let constant = 42
let digits = [ 3; 1; 4 ]
let helper x = constant + x
