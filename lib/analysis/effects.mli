(** Ambient-effect classification: the identifier table behind the
    [wall-clock], [global-rng] and [ambient-effect] rules of
    {!Discipline}. *)

val classify : string list -> string option
(** [Some category] when the flattened identifier is a banned effect:
    ["wall clock"], ["global Random"], ["ambient Sys"], ["ambient Unix"]
    or ["ambient I/O"]. *)
