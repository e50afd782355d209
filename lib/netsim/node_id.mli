(** Server identity within a cluster.

    A small integer wrapped in a private type so node ids, indices and
    counters cannot be confused. *)

type t = private int

val of_int : int -> t
(** Requires a non-negative argument. *)

val to_int : t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** Render as ["n<id>"], e.g. ["n3"]. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Append the {!pp} text, without a format interpreter. *)

val add_int_to_buffer : Buffer.t -> int -> unit
(** Append [string_of_int n] without building the string: the integer
    writer of the digested probe text. *)

val range : int -> t list
(** [range n] is the ids [0 .. n-1] — a convenience for building
    clusters. *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Table : Hashtbl.S with type key = t
