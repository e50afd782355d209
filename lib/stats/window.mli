(** Bounded sliding window of float samples with running statistics.

    This is the data structure behind Dynatune's [RTTs] list: samples are
    appended, the oldest is evicted once [capacity] is exceeded.  The mean
    of the current contents is O(1), from a running sum that is
    periodically recomputed from the stored samples to bound
    floating-point drift; the standard deviation is a two-pass O(n) scan
    of the contents. *)

type t

val create : capacity:int -> t
(** [create ~capacity] holds at most [capacity] samples.
    Requires [capacity > 0]. *)

val length : t -> int
val clear : t -> unit

val push : t -> float -> unit
(** Append a sample, evicting the oldest when full. *)

val mean : t -> float
(** Mean of the current contents; [0.] when empty. *)

val std : t -> float
(** Population standard deviation of the current contents; [0.] below two
    samples.  O(n). *)

val min : t -> float
(** Smallest current sample; [nan] when empty. O(n). *)

val max : t -> float
(** Largest current sample; [nan] when empty. O(n). *)

val to_list : t -> float list
(** Contents, oldest first. *)
