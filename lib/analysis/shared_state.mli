(** Cross-domain shared-state rule ([shared-state]).

    Flags top-level mutable values (refs, arrays, hash tables, queues,
    buffers, atomics, bytes, records with mutable fields) in any module
    reachable from closures handed to [Parallel.Pool] /
    [Parallel.Campaign] / [Domain.spawn] — those run on other domains,
    and module-level state is process-global. *)

val rule : string

type binding = {
  bpath : string;
  bname : string;  (** ["x"], or ["Sub.x"] inside [module Sub = struct] *)
  bline : int;
  bshape : string;  (** what allocates, e.g. ["Hashtbl.create"] *)
}

val mutable_bindings : Source.t list -> Source.t -> binding list
(** [mutable_bindings tree file]: the module-level bindings of [file]
    (nested [struct]s included) whose right-hand side allocates mutable
    state at initialization.  Functions never count; record literals
    count when a field is mutable in the type [tree] declares for it. *)

val findings : Callgraph.t -> Source.t list -> Finding.t list
