(** The [unset-optional] rule: a [?label] on a [val] of a [lib/**/*.mli]
    that no application outside the module's own [.ml] passes as
    [~label] or [?label].  Applications are resolved through
    {!Callgraph.resolve}, module aliases included; a call through a
    record field or a higher-order parameter is invisible, so such a
    parameter needs a direct caller somewhere. *)

val rule : string
val doc : string

val findings :
  Callgraph.t ->
  scanned:Source.t list ->
  callers:Source.t list ->
  Finding.t list
(** Check the interfaces among [scanned] against the applications in
    [callers]; the call graph must be built over [callers]. *)
