val rules : (string * string) list
(** [(rule-id, one-line doc)] for every rule the driver can emit. *)

val analyze :
  ?allow:Finding.allow ->
  callers:Cmt_format.cmt_infos list ->
  Cmt_format.cmt_infos list ->
  Finding.t list * Finding.allow
(** [analyze ?allow ~callers units]: the unsuppressed findings in
    [units], sorted and de-duplicated, minus those [allow] suppresses,
    and the stale allowlist entries: those that suppressed no finding.
    [callers] are read only for the references the interface rules
    count; no rule checks them.  Pure: never prints, never exits. *)

val uncompiled : Cmt_format.cmt_infos list -> string list -> string list
(** [uncompiled units sources]: the [sources] no unit among [units] was
    compiled from, in order: an [.ml] with no [.cmt], an [.mli] with no
    [.cmti].  A file that does not parse or type-check has none, and
    neither has a directory missing from the build, so the caller stops
    on any of them instead of passing with fewer files. *)

val stale :
  Cmt_format.cmt_infos list -> (string * Digest.t) list -> Cmt_format.cmt_infos list
(** [stale units sources]: the [units], in order, compiled from one of
    [sources] (each a path and the digest of its contents now) whose
    recorded source digest differs: the source changed after the unit
    was compiled, so its typed tree no longer describes it.  A unit
    built from a preprocessed [.pp.ml] names that file, which is never
    among [sources], and is not judged. *)
