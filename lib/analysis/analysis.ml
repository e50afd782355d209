(* Root module of the [analysis] library — the repository's static
   checker (see DESIGN.md §12).  Re-exports the passes and the
   driver. *)

module Finding = Finding
module Source = Source
module Callgraph = Callgraph
module Effects = Effects
module Shared_state = Shared_state
module Exhaustive = Exhaustive
module Discipline = Discipline
module Unset_optional = Unset_optional
module Driver = Driver
