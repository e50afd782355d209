(** The repository's static checker (DESIGN.md §12).

    Reads the compiler's [.cmt]/[.cmti] files ([compiler-libs.common])
    and runs per-file rules over each implementation's typed tree
    ({!Discipline}: comparisons against a boxed operand, mutable
    globals in lib/ and bin/, allocation in [[@hot]] bindings), and two
    rules over the values of lib/ interfaces, read from a typed
    reference index ({!Index}, {!Exports}): exports nothing outside
    their module references, and optional parameters no caller passes.
    {!Driver.analyze} runs them all.
    Two bans are the compiler's, not rules here: catch-all match arms
    (fragile-match, warning 4, a build error in lib/ and bin/) and the
    identifiers lib/prelude marks with an alert (errors in lib/).

    The library is pure: callers ([bin/analyze.ml], tests) own file
    loading, printing and process exit. *)

module Finding = Finding
module Index = Index
module Discipline = Discipline
module Exports = Exports
module Driver = Driver
