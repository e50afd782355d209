(** The repository's static checker (DESIGN.md §12).

    Parses every [.ml]/[.mli] into a Parsetree ([compiler-libs.common])
    and runs per-file rules ({!Discipline}: comparisons against a boxed
    operand, mutable globals in lib/ and bin/, allocation in [[@hot]]
    bindings), then reads the compiler's [.cmt]/[.cmti] files into a
    typed reference index ({!Index}) for two rules over the values of
    lib/ interfaces ({!Exports}): exports nothing outside their module
    references, and optional parameters no caller passes.
    {!Driver.analyze} runs them all.
    Two bans are the compiler's, not rules here: catch-all match arms
    (fragile-match, warning 4, a build error in lib/ and bin/) and the
    identifiers lib/prelude marks with an alert (errors in lib/).

    The library is pure: callers ([bin/analyze.ml], tests) own file
    loading, printing and process exit. *)

module Finding = Finding
module Source = Source
module Index = Index
module Shared_state = Shared_state
module Discipline = Discipline
module Exports = Exports
module Driver = Driver
