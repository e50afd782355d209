(** The per-file source discipline of lib/ and bin/ that the compiler
    does not enforce (lib/prelude's alerts ban identifiers): three rules
    that need no call graph, each flagging a hazard where it is named.

    - [poly-compare]: [=], [<>], [<], [>], [<=], [>=] with an operand
      that is a constructor with a payload or a tuple literal.  An
      operator bound by an enclosing pattern is a local and never fires.
    - [mutable-global]: a module-level binding in lib/ or bin/ that
      {!Shared_state.mutable_bindings} classifies as mutable: campaign
      domains would share it.
    - [hot-alloc]: a [[@hot]]/[[@@hot]] binding whose body, below its
      own parameters, names an allocating list/array combinator or
      [Printf]/[Format], or holds a [fun]/[function].

    Every rule but [mutable-global] applies to files under lib/ only. *)

val rules : (string * string) list
(** [(rule-id, one-line doc)] for the three rules. *)

val findings : Source.t list -> Finding.t list
