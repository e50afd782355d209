(** The repository's static checker (DESIGN.md §12).

    Parses every [.ml]/[.mli] into a Parsetree ([compiler-libs.common])
    and runs two kinds of rules: semantic ones over the whole tree —
    interprocedural effect taint from DES/raft/parallel entry points,
    cross-domain shared-state detection, protocol-match exhaustiveness
    over [[@@protocol]]-marked variants, optional parameters no caller
    passes ({!Unset_optional}) — and lib/'s per-file source discipline
    ({!Discipline}: banned identifiers, mutable globals in lib/raft,
    allocation in [[@hot]] bindings).  {!Driver.analyze} runs them all.

    The library is pure: callers ([bin/analyze.ml], tests) own file
    loading, printing and process exit. *)

module Finding = Finding
module Source = Source
module Callgraph = Callgraph
module Effects = Effects
module Shared_state = Shared_state
module Exhaustive = Exhaustive
module Discipline = Discipline
module Unset_optional = Unset_optional
module Driver = Driver
