(** lib/'s per-file source discipline: nine rules that need no call
    graph.

    - Identifier bans, one table over every identifier expression:
      [wall-clock], [global-rng] (both via {!Effects.classify}),
      [obj-magic], [poly-compare], [direct-print] (lib/ minus
      [scenarios/report.ml]), [stdlib-exit], [raw-fabric-send]
      (lib/raft/ minus [replication.*]).  An unqualified name bound by
      an enclosing pattern is a local and never fires.  [poly-compare]
      also fires on [=], [<>], [<], [>], [<=], [>=] with an operand
      that is a constructor with a payload or a tuple literal.
    - [mutable-global]: a module-level binding in lib/raft/ that
      {!Shared_state.mutable_bindings} classifies as mutable.
    - [hot-alloc]: a [[@hot]]/[[@@hot]] binding whose body, below its
      own parameters, names an allocating list/array combinator or
      [Printf]/[Format], or holds a [fun]/[function].

    Every rule applies to files under lib/ only. *)

val rules : (string * string) list
(** [(rule-id, one-line doc)] for the nine rules. *)

val findings : Source.t list -> Finding.t list
