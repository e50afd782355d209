(** Typed metrics registry: counters, gauges and histograms keyed by
    [(scope, name, node)].

    The registry is the quantitative half of the observability layer (the
    qualitative half is span tracing, {!Chrome_trace}).  Design contract:

    - {b Handles, not lookups, on the hot path.}  Instrumented code
      registers once and keeps the returned handle; each emission
      ([Counter.incr], [Histogram.observe]) is a field mutation.
    - {b Near-no-op when disabled.}  A disabled registry (or {!noop})
      hands out {e dead} handles; emitting on a dead handle is a single
      load-and-branch, so instrumented hot paths stay within noise of the
      uninstrumented build.
    - {b Mergeable per shard.}  {!snapshot} is a pure value; {!merge}
      combines per-shard snapshots associatively (counters sum, gauges
      max, histograms bin-wise add), so a [--jobs N] campaign
      aggregates to the same bytes whatever the worker count. *)

type t
(** A registry.  Not thread-safe: each campaign shard owns its own
    registry and the shard snapshots are merged afterwards. *)

type key = private { scope : string; name : string; node : string }
(** [scope] groups related metrics ("des", "net", "link", "raft"); [node]
    is a free-form instance label (["n3"], ["n0->n1"], or [""] for
    process-wide metrics). *)

val key_label : key -> string
(** ["scope/name"] or ["scope/name\@node"]. *)

val create : ?enabled:bool -> unit -> t
(** A fresh registry, enabled by default. *)

val noop : t
(** A shared disabled registry: registration returns dead handles and
    never mutates shared state, so [noop] is safe to use concurrently
    from campaign domains. *)

val enabled : t -> bool

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val set_max : t -> float -> unit
  (** Keep the maximum of all observations (high-water marks). *)

  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  (** Record one sample. *)
end

val counter : t -> scope:string -> name:string -> ?node:string -> unit -> Counter.t
(** Find-or-create.  Raises [Invalid_argument] if the key is already
    registered with a different kind. *)

val gauge : t -> scope:string -> name:string -> ?node:string -> unit -> Gauge.t
(** Gauges appear in snapshots only once set. *)

val histogram :
  t ->
  scope:string ->
  name:string ->
  ?node:string ->
  lo:float ->
  hi:float ->
  bins:int ->
  unit ->
  Histogram.t
(** [lo]/[hi]/[bins] fix the histogram layout; shards must register the
    same layout for {!merge} to accept their snapshots (they do, since
    they run the same code). *)

(** {2 Snapshots} *)

type value =
  | Count of int
  | Level of float
  | Series of Stats.Histogram.t  (** an independent copy *)

type snapshot = (key * value) list
(** Sorted by key; a pure value, detached from the registry. *)

val snapshot : t -> snapshot
(** Empty for a disabled registry. *)

val merge : snapshot list -> snapshot
(** Associative shard merge: counters sum, gauges keep the max,
    histograms add bin-wise ({!Stats.Histogram.merge}).  Raises
    [Invalid_argument] on kind or histogram-layout mismatch. *)

val to_json : snapshot -> string
(** A deterministic JSON object, one member per key in sorted order:
    counters as integers, gauges as numbers, histograms as
    [{"count", "lo", "hi", "underflow", "overflow", "bins"}].  Equal
    snapshots render to equal bytes — the property the [--jobs]
    bit-identity test pins. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable listing, one line per key. *)
