(** The two rules over the values of lib/ interfaces, answered by the
    {!Index}: what other modules reference, as the compiler resolved it.

    - [unused-export]: a [val] of a [lib/**/*.mli] that nothing outside
      its own module references.  lib/prelude is exempt: its [val]s
      exist to carry alerts.
    - [unset-optional]: a [?label] of such a [val] that no application
      outside its own module passes as [~label] or [?label].  A call
      through a record field or a higher-order parameter is invisible,
      so such a parameter needs a direct caller somewhere. *)

val rules : (string * string) list
(** [(rule-id, one-line doc)] for both rules. *)

val findings : Index.t -> Finding.t list
