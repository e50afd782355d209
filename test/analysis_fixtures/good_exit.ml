(* stdlib-exit false-positive guard: identifiers merely *named* [exit]
   — record fields, puns, labelled and optional arguments, bindings,
   annotations — are not process exits.  The record-building values are
   functions so the fixture's virtual lib/raft/ path does not also make
   them mutable globals. *)

type outcome = { mutable exit : int; label : string }

let mk code = { exit = code; label = "run" }
let merge o = { o with exit = 0 }
let pun exit = { exit; label = "pun" }
let update o = o.exit <- o.exit + 1
let with_label ~exit:code () = code + 1
let optional ?exit:(code = 0) () = code
let annotated (exit : int) = { label = "annot"; exit }
let relabel ~exit = mk exit

let multi_line () =
  {
    exit = 1;
    label = "multi";
  }

let rec loop n = if n = 0 then mk 0 else loop (n - 1)
and exit () = { exit = 9; label = "shadow" }
