(** The per-file source discipline of lib/ and bin/: nine rules that
    need no call graph, each flagging a hazard where it is named.

    - Identifier bans, one table over every identifier expression:
      [wall-clock], [global-rng], [ambient-effect] (all three via
      {!Effects.classify}; [ambient-effect] covers its ambient Sys,
      Unix and I/O categories, in lib/ minus
      [telemetry/chrome_trace.ml]), [obj-magic], [poly-compare],
      [stdlib-exit], [raw-fabric-send] (lib/raft/ minus
      [replication.*]).  An unqualified name bound by an enclosing
      pattern is a local and never fires.  [poly-compare] also fires on
      [=], [<>], [<], [>], [<=], [>=] with an operand that is a
      constructor with a payload or a tuple literal.
    - [mutable-global]: a module-level binding in lib/ or bin/ that
      {!Shared_state.mutable_bindings} classifies as mutable: campaign
      domains would share it.
    - [hot-alloc]: a [[@hot]]/[[@@hot]] binding whose body, below its
      own parameters, names an allocating list/array combinator or
      [Printf]/[Format], or holds a [fun]/[function].

    Every rule but [mutable-global] applies to files under lib/ only. *)

val rules : (string * string) list
(** [(rule-id, one-line doc)] for the nine rules. *)

val findings : Source.t list -> Finding.t list
