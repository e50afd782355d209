(** The per-file source discipline of lib/ and bin/ that the compiler
    does not enforce (lib/prelude's alerts ban identifiers): three rules
    that need no call graph, each flagging a hazard where it is named,
    read from the typed tree of each compiled implementation.

    - [poly-compare]: a Stdlib comparison primitive ([=], [<>], [<],
      [>], [<=], [>=]) with an operand that is a constructor with a
      payload or a tuple literal.  A locally bound operator is no
      primitive and never fires.
    - [mutable-global]: a module-level binding in lib/ or bin/ (nested
      [struct]s included) whose right-hand side allocates a ref, array,
      hash table, queue, buffer, atomic, bytes or a record whose type
      has a mutable field: campaign domains would share it.  Functions
      never count.
    - [hot-alloc]: a [[@hot]]/[[@@hot]] binding whose body, below its
      own parameters, names an allocating list/array combinator or
      [Printf]/[Format], or holds a [fun]/[function].

    An identifier counts by the declaration it resolved to, whatever
    alias spells it.  Every rule but [mutable-global] applies to files
    under lib/ only. *)

val rules : (string * string) list
(** [(rule-id, one-line doc)] for the three rules. *)

val findings : Cmt_format.cmt_infos list -> Finding.t list
(** The findings in the implementations among the units, at the source
    path each was compiled from. *)
