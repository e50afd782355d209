(** Time-series recorder: DES-clock-cadence sampling of a metrics
    registry into columnar series.

    {!attach} schedules a self-rescheduling sampling event on the DES
    engine; at each tick it snapshots the registry and appends every
    counter and gauge value (histograms are skipped — they are already
    cumulative) to its series.  The sampling events consume engine
    sequence numbers but draw no randomness and emit no probes, so trace
    digests are unaffected by the recorder being on — the property the
    jobs-bit-identity tests pin.

    A recorder reschedules itself forever; drive the engine with
    [run_for]/[run_until] (as every scenario does), never run-to-empty.

    The disabled recorder ({!noop}) never touches the engine: {!attach}
    is a no-op, keeping the disabled path free of extra events and
    allocation. *)

type t

val create : every:Des.Time.span -> unit -> t
(** An enabled recorder sampling every [every] of virtual time (first
    sample one period after {!attach}).  Raises [Invalid_argument] if
    [every <= 0]. *)

val noop : t
(** A shared disabled recorder. *)

val attach : t -> Des.Engine.t -> (unit -> Metrics.snapshot) -> unit
(** Start sampling [snapshot ()] on the engine's clock.  No-op when
    disabled.  Attach at most once per recorder. *)

val samples : t -> int
(** Ticks recorded so far. *)

type dump = (string * (float * float) array) list
(** Columnar series, sorted by key ({!Metrics.key_label}): for each key
    the [(t_ms, value)] samples in time order.  Counters are rendered as
    their integer value, gauges as the level. *)

val dump : t -> dump

val merge : dump list -> dump
(** Shard merge: part [i]'s keys are prefixed ["s<i>/"] and the parts
    concatenated in the given order, so the result depends only on the
    shard plan — [--jobs 1] and [--jobs N] merges are equal. *)

val to_csv : dump -> string
(** Wide CSV: header [t_ms,<key>,...], one row per sampled instant
    (union over keys), empty cells where a key has no sample.
    Deterministic bytes for equal dumps. *)

val to_openmetrics : dump -> string
(** OpenMetrics text: one gauge family per key (label characters outside
    [[a-zA-Z0-9_:]] become [_]; a ["@node"] suffix becomes a [node]
    label), every sample with its timestamp in seconds, terminated by
    [# EOF]. *)

val window : t -> int -> string list
(** The last [n] ticks rendered one line each (["<time> k=v k=v ..."]) —
    the flight-recorder view dumped beside violations. *)
