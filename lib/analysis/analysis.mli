(** The repository's static checker (DESIGN.md §12).

    Parses every [.ml]/[.mli] into a Parsetree ([compiler-libs.common])
    and runs per-file rules ({!Discipline}: banned identifiers, ambient
    effects, mutable globals in lib/ and bin/, allocation in [[@hot]]
    bindings) plus one over the whole tree: optional parameters no
    caller passes ({!Unset_optional}).  {!Driver.analyze} runs them all.
    Catch-all match arms are no rule here: fragile-match (warning 4)
    is a build error in lib/ and bin/.

    The library is pure: callers ([bin/analyze.ml], tests) own file
    loading, printing and process exit. *)

module Finding = Finding
module Source = Source
module Callgraph = Callgraph
module Effects = Effects
module Shared_state = Shared_state
module Discipline = Discipline
module Unset_optional = Unset_optional
module Driver = Driver
