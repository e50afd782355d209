(** Open-addressing table keyed by non-negative ints, for the fabric's
    directed-pair hot lookups.

    Unlike [(int, _) Hashtbl.t], {!find} makes no C call (the hash is
    one Fibonacci multiply) and allocates nothing — it returns the
    option box stored at insertion.  Linear probing over power-of-2
    capacity at load factor <= 1/2.  Keys must be [>= 0]. *)

type 'a t

val create : int -> 'a t
(** Table expecting around [n] entries (grows as needed). *)

val find : 'a t -> int -> 'a option
(** Allocation-free lookup: the returned option is the box stored by
    {!add}, shared across calls. *)

val add : 'a t -> int -> 'a -> unit
(** Insert or replace. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold over every entry in slot order: deterministic, but
    unspecified — sort the result where order matters. *)

val filter : 'a t -> (int -> 'a -> bool) -> unit
(** Drop every entry the predicate rejects (rebuilds in place —
    deletion is assumed rare). *)
