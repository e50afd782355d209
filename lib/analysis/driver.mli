type file = { path : string; content : string }

val rules : (string * string) list
(** [(rule-id, one-line doc)] for every rule the driver can emit. *)

val analyze :
  ?allow:Finding.allow ->
  callers:Cmt_format.cmt_infos list ->
  units:Cmt_format.cmt_infos list ->
  file list ->
  (Finding.t list * Finding.allow, string) result
(** Unsuppressed findings in [files] and in the interfaces among
    [units], sorted and de-duplicated, minus those [allow] suppresses,
    and the stale allowlist entries: those that suppressed no finding.  [callers] are read only for the
    references the interface rules count; no rule checks them.  Pure:
    never prints, never exits; a file that does not parse is
    [Error "path:line: syntax error"]. *)
