(** Typed reference index: every value reference of the compiled tree,
    keyed by the declaration the compiler resolved it to.

    Built from the [.cmt]/[.cmti] files dune writes ([-bin-annot]).  A
    [Texp_ident] carries the value description it resolved to; across a
    module boundary its location is the [val] of the declaring [.mli],
    inside the module it is the module's own [let], so a module's own
    uses never reach its interface.  A plain module alias
    ([module X = A.B]) is not a use of [A.B]'s values; a functor
    argument, an [include] or a [(module M)] pack uses every value of
    [M]'s signature. *)

type decl = {
  path : string;  (** the declaring interface, e.g. ["lib/raft/server.mli"] *)
  name : string;  (** ["f"], or ["Sub.f"] inside [module Sub : sig ... end] *)
  desc : Typedtree.value_description;
}

type t

val build : callers:Cmt_format.cmt_infos list -> Cmt_format.cmt_infos list -> t
(** [build ~callers units]: the [val]s of the interfaces among [units],
    and the references of every implementation among both lists. *)

val decls : t -> decl list
(** In unit order, then source order. *)

val referenced : t -> decl -> bool

val passed : t -> decl -> string -> bool
(** [passed t d label]: some application of [d] passes [~label] or
    [?label]; an optional argument the application leaves out does not
    count. *)

val source : Cmt_format.cmt_infos -> string option
(** The source file a unit was compiled from, with a preprocessor's
    [.pp] infix dropped: ["lib/raft/rpc.mli"] for [rpc.pp.mli]. *)
