(** Analyzer driver: parse, run every rule, apply the allowlist. *)

type file = { path : string; content : string }

type config = {
  libraries : (string * string) list;
      (** directory prefix -> wrapper module name *)
  allow : Finding.allow;
}

val default_config : ?allow:Finding.allow -> unit -> config

val rules : (string * string) list
(** [(rule-id, one-line doc)] for every rule the driver can emit. *)

val analyze :
  ?config:config ->
  callers:file list ->
  file list ->
  Finding.t list * Finding.allow
(** Unsuppressed findings in [files], sorted and de-duplicated, and the
    stale allowlist entries: those that suppressed no finding.
    [callers] are read only for the applications [unset-optional]
    counts; no rule checks them.  Pure: never
    prints, never exits, never raises on malformed input (parse failures
    come back as [parse-error] findings). *)
