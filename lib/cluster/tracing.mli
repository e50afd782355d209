(** Bridge from the cluster's probe trace to a Chrome trace-event sink.

    Renders election lifecycles as duration spans on one Chrome thread
    per node — pre-vote → campaign → leader, each span closed by the
    next role change — with timeout expiries, pre-vote aborts, tuner
    resets and tuner decisions (measured RTT/loss in, chosen [Et]/[H]/[k]
    out) as instant markers.  Open the result in Perfetto
    ({{:https://ui.perfetto.dev}ui.perfetto.dev}) or [chrome://tracing].

    The bridge rides a live {!Des.Mtrace.subscribe} observer, so it sees
    every probe emitted after {!attach}. *)

type t

val attach : ?pid:int -> ?name:string -> Cluster.t -> Telemetry.Chrome_trace.t -> t
(** Subscribe to the cluster's trace and start emitting.  [pid]
    (default 1) is the Chrome process id used for this cluster — give
    each cluster its own when several share a sink; [name] labels the
    process in the viewer.  Emits one [thread_name] metadata record per
    node immediately. *)

val finish : t -> unit
(** Close any still-open role spans at the cluster's current virtual
    time and append fabric-wide counter samples and, for each directed
    link between two of the cluster's nodes, per-link ones (sent / lost /
    duplicated / retransmissions, egress high water): clusters sharing a
    fabric each list only their own links.  Call once, after the run;
    further probes are then ignored.  Idempotent. *)
