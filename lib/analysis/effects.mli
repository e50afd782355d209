(** Interprocedural effect-taint rule ([effect-taint]).

    Walks the call graph forward from every value defined under the
    entry directories and reports each reached value that directly
    references a banned ambient effect — wall clock, global [Random],
    ambient [Sys], ambient I/O — with the full call chain as evidence. *)

val rule : string

val classify : string list -> string option
(** [Some category] when the flattened identifier is a banned effect:
    ["wall clock"], ["global Random"], ["ambient Sys"], ["ambient Unix"]
    or ["ambient I/O"]. *)

val findings : entry_dirs:string list -> Callgraph.t -> Finding.t list
(** Each finding points at the value that references the effect, so an
    allowlist entry for a file cuts the taint there. *)
