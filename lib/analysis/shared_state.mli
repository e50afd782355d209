(** Module-level mutable state: the classifier behind {!Discipline}'s
    [mutable-global] rule.  Campaign domains share whatever a module
    allocates at initialization, so a top-level ref, array, hash table,
    queue, buffer, atomic, bytes or record with a mutable field is
    process-global state. *)

type binding = {
  bname : string;  (** ["x"], or ["Sub.x"] inside [module Sub = struct] *)
  bline : int;
  bshape : string;  (** what allocates, e.g. ["Hashtbl.create"] *)
}

val mutable_bindings : Source.t list -> Source.t -> binding list
(** [mutable_bindings tree file]: the module-level bindings of [file]
    (nested [struct]s included) whose right-hand side allocates mutable
    state at initialization.  Functions never count; record literals
    count when a field is mutable in the type [tree] declares for it. *)
