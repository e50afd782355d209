(** Structured analyzer findings and the [suffix:rule] allowlist.

    The allowlist ([lint.allow]) holds one [path-suffix:rule-id] per
    line, [#] comments and blank lines ignored.  A finding is suppressed
    when its path ends with the suffix at a path-component boundary
    ([engine.ml] covers [lib/des/engine.ml], not [lib/myengine.ml]) and
    the rule id matches exactly. *)

type t = {
  path : string;  (** path of the file the finding points at *)
  line : int;  (** 1-based line of the offending construct *)
  rule : string;  (** rule id, e.g. ["mutable-global"] *)
  message : string;  (** human-readable explanation *)
}

val v : path:string -> line:int -> rule:string -> string -> t

val line : Location.t -> int
(** 1-based start line. *)

val contains : string -> string -> bool
(** [contains path sub]: [sub] occurs in [path] (rule scopes such as
    ["lib/"] are substrings of the path a unit names). *)

val render : t -> string
(** ["path:line: [rule] message"]. *)

val compare : t -> t -> int
(** Path, then line, then rule, then message. *)

type entry = {
  suffix : string;
  rule_id : string;
  lineno : int;  (** 1-based line of the entry in its file *)
}

type allow = entry list

val parse_allow : string -> (allow, string) result
(** Parse allowlist file contents; [Error line] on a malformed entry:
    one without a [:], or with an empty suffix or rule id. *)

val suppresses : entry -> t -> bool
