(** Chrome trace-event JSON sink — the format Perfetto
    ({{:https://ui.perfetto.dev}ui.perfetto.dev}) and [chrome://tracing]
    load directly.

    A sink accumulates events in memory and serializes once via
    {!to_string}/{!write}.  Timestamps are exact virtual {!Des.Time}
    instants rendered in the format's microsecond unit with nanosecond
    precision ([ts] is [ns / 1000] with three decimals), so a trace from
    a deterministic run is itself deterministic.

    Convention used by the simulator: one {e process} ([pid]) per
    cluster, one {e thread} ([tid]) per node, named via {!thread_name}.
    Election lifecycles are [B]/[E] duration spans, tuner decisions and
    fault/timeout markers are [i] instants, and link/fabric statistics
    are [C] counter tracks. *)

type t

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

val create : unit -> t

val event_count : t -> int
(** Events emitted so far (metadata records included). *)

val duration_begin :
  t ->
  name:string ->
  pid:int ->
  tid:int ->
  at:Des.Time.t ->
  ?args:(string * arg) list ->
  unit ->
  unit

val duration_end :
  t -> name:string -> pid:int -> tid:int -> at:Des.Time.t -> unit -> unit
(** An [E] event carries no arguments; its [B] holds them.  [B]/[E]
    pairs must nest properly per [(pid, tid)]; the tracing
    bridge guarantees this by closing a node's open span before opening
    the next one. *)

val instant :
  t ->
  name:string ->
  pid:int ->
  tid:int ->
  at:Des.Time.t ->
  ?args:(string * arg) list ->
  unit ->
  unit
(** Thread-scoped instant event ([ph:"i"], [s:"t"]). *)

val counter :
  t ->
  name:string ->
  pid:int ->
  tid:int ->
  at:Des.Time.t ->
  values:(string * float) list ->
  unit ->
  unit
(** Counter track sample ([ph:"C"]); each [values] entry becomes one
    series of the track. *)

val thread_name : t -> pid:int -> tid:int -> string -> unit
val process_name : t -> pid:int -> string -> unit

val to_string : t -> string
(** The complete JSON document:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}]. *)

val write : t -> string -> unit
(** [write t path] saves {!to_string} to [path]. *)
