(* Root module of the [analysis] library — the repository's static
   checker (see DESIGN.md §12).  Re-exports the passes and the
   driver. *)

module Finding = Finding
module Index = Index
module Discipline = Discipline
module Exports = Exports
module Driver = Driver
