(** Bounded sliding window of float samples with running statistics.

    This is the data structure behind Dynatune's [RTTs] list: samples are
    appended, the oldest is evicted once [capacity] is exceeded, and the
    mean / standard deviation of the current contents are available in
    O(1).  Running sums are periodically recomputed from the stored samples
    to bound floating-point drift. *)

type t

val create : capacity:int -> t
(** [create ~capacity] holds at most [capacity] samples.
    Requires [capacity > 0]. *)

val capacity : t -> int
val length : t -> int
val clear : t -> unit

val push : t -> float -> unit
(** Append a sample, evicting the oldest when full. *)

val mean : t -> float
(** Mean of the current contents; [0.] when empty. *)

val std : t -> float
(** Population standard deviation of the current contents. *)

val min : t -> float
(** Smallest current sample; [nan] when empty. O(n). *)

val max : t -> float
(** Largest current sample; [nan] when empty. O(n). *)

val get : t -> int -> float
(** [get t i] is the i-th oldest sample, [0 <= i < length t]. *)

val last : t -> float option
(** Most recently pushed sample. *)

val to_list : t -> float list
(** Contents, oldest first. *)

val fold : t -> init:'a -> f:('a -> float -> 'a) -> 'a
(** Left fold, oldest first. *)
