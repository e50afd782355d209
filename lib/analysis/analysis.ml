(* Root module of the [analysis] library — the repository's static
   checker (see DESIGN.md §12).  Re-exports the passes and the driver
   entry point. *)

module Finding = Finding
module Source = Source
module Callgraph = Callgraph
module Effects = Effects
module Shared_state = Shared_state
module Exhaustive = Exhaustive
module Discipline = Discipline
module Driver = Driver

type file = Driver.file = { path : string; content : string }

let analyze = Driver.analyze
let rules = Driver.rules
