(** Append-only time series of (time, value) points with bucketed
    aggregation.

    Scenario monitors record samples against the simulation clock
    (seconds); the benchmark harness then aggregates them into fixed-width
    buckets to print the per-second / per-interval series shown in the
    paper's figures 6 and 7. *)

type t

val create : unit -> t
val length : t -> int

val push : t -> time:float -> value:float -> unit
(** Record one point.  Times should be non-decreasing; this is asserted. *)

val points : t -> (float * float) list
(** All points, oldest first. *)

type agg = Mean | Sum | Max | Min | Last | Count

val bucket : t -> width:float -> agg:agg -> (float * float) list
(** [bucket t ~width ~agg] groups points into consecutive buckets of
    [width] time units starting at the first point's time, and reduces each
    non-empty bucket with [agg].  Returns [(bucket_start_time, value)]
    pairs, oldest first. *)

val values_in : t -> lo:float -> hi:float -> float list
(** Values of points with time in [\[lo, hi)]. *)
