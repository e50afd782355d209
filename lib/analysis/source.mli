(** Parsed source files, via the compiler frontend. *)

type kind = Impl of Parsetree.structure | Intf of Parsetree.signature

type t = {
  path : string;  (** as given, e.g. ["lib/raft/rpc.ml"] *)
  library : string;  (** wrapper module of the owning library, [""] if none *)
  modname : string;  (** capitalized basename, e.g. ["Rpc"] *)
  kind : kind;
}

val parse : library:string -> path:string -> string -> (t, string) result
(** Parse [.ml] as a structure, [.mli] as a signature.  Never raises on
    bad input: a syntax or lexing failure is [Error "path:line: syntax
    error"]. *)

val line_of_loc : Location.t -> int
(** 1-based start line. *)

val contains : string -> string -> bool
(** [contains path sub]: [sub] occurs in [path] (rule scopes such as
    ["lib/raft/"] are substrings of the path as given). *)

val flatten_longident : Longident.t -> string list option
(** Like [Longident.flatten], but [None] on functor-application paths
    instead of raising. *)

val pattern_names : Parsetree.pattern -> string list
(** All variable names a pattern binds, in source order. *)
