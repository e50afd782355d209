(** Value-level call graph over the parsed tree.

    Nodes are top-level value bindings (nested modules contribute
    dot-prefixed names; module-initialization code pools into a
    per-file ["(init)"] node).  Edges are identifier references,
    resolved same-file first, then same-library module, then
    library-qualified ([Stats.Rng.float]), then unique global module.
    A module alias of the referencing file ([module Gm =
    Multiraft.Group_manager]) or of a library wrapper
    ([Scenarios.Multiraft]) is expanded first.
    Unresolved references (locals, stdlib, external libraries)
    contribute no edge. *)

type value = {
  vpath : string;  (** file the binding lives in *)
  vlib : string;  (** wrapper module name of its library, [""] if none *)
  vmod : string;  (** module name, e.g. ["Server"] *)
  vname : string;  (** ["f"], ["Sub.g"], or ["(init)"] *)
  vline : int;
  vrefs : (string list * int) list;
      (** every flattened identifier the body references, with its line *)
}

type t = {
  by_key : (string, value) Hashtbl.t;
  module_file : (string, string) Hashtbl.t;
  mod_paths : (string, string list) Hashtbl.t;
  libraries : (string, unit) Hashtbl.t;
  aliases : (string, string list) Hashtbl.t;
      (** [path ^ "#" ^ M] -> target of [module M = A.B] in that file *)
}

val display : value -> string
(** ["Raft.Server.tick"]-style name for reports. *)

val build : Source.t list -> t

val lookup : t -> path:string -> name:string -> value option

val resolve : t -> path:string -> lib:string -> string list -> value option
(** Resolve a flattened identifier as referenced from a file of library
    [lib]. *)

val callees : t -> value -> (value * int) list
(** Resolved outgoing edges of a value, with the referencing line. *)

val pattern_names : Parsetree.pattern -> string list
(** All variable names a pattern binds, in source order. *)
