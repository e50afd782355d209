(** Analyzer driver: parse, run every rule, apply the allowlist. *)

type file = { path : string; content : string }

type config = {
  entry_dirs : string list;
      (** directories whose values are taint entry points *)
  libraries : (string * string) list;
      (** directory prefix -> wrapper module name *)
  allow : Finding.allow;
}

val default_libraries : (string * string) list
(** This repository's layout: [lib/core] -> [Dynatune], [lib/cluster]
    -> [Harness], every other [lib/<d>] -> capitalized [<d>]. *)

val default_entry_dirs : string list
(** [lib/des/], [lib/raft/], [lib/parallel/], [lib/multiraft/] and the
    cause and recorder modules of [lib/telemetry]. *)

val default_config : ?allow:Finding.allow -> unit -> config

val rules : (string * string) list
(** [(rule-id, one-line doc)] for every rule the driver can emit. *)

val analyze : ?config:config -> file list -> Finding.t list * Finding.allow
(** Unsuppressed findings, sorted and de-duplicated, and the stale
    allowlist entries: those that suppressed no finding.  Pure: never
    prints, never exits, never raises on malformed input (parse failures
    come back as [parse-error] findings). *)
