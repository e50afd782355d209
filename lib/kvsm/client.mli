(** An open-loop client: requests arrive at a configured rate regardless
    of completions (the load model of the paper's peak-throughput
    experiment, Section IV-B2).

    The client is decoupled from the cluster by a [target] function —
    usually a wrapper that finds the current leader and calls
    {!Raft.Node.submit}. *)

type submit_result = [ `Accepted | `Not_leader of Netsim.Node_id.t option ]

type target =
  payload:string ->
  client_id:int ->
  seq:int ->
  on_result:(committed:bool -> unit) ->
  submit_result
(** How the client injects a request into the service. *)

type t

val create :
  engine:Des.Engine.t ->
  target:target ->
  client_id:int ->
  rate:float ->
  ?client_rtt:Des.Time.span ->
  ?route:(Netsim.Node_id.t -> target) ->
  unit ->
  t
(** A stopped client issuing [Put] requests of a 64-byte value at [rate]
    per second with exponential inter-arrival gaps.  Write [seq] goes to
    key slot [seq mod 1024], and a slot's payload is
    {!Command.client_put_payload} of the slot alone: the client encodes
    it at the slot's first write and hands the same string to every
    later write of that key, so the log, the wire and every replica's
    store share one payload per key.  The cache grows with the slots
    written, up to 1024 strings.  [client_rtt] is
    added to every recorded latency (the client→leader network round
    trip, which the simulation fabric does not carry).  Raises
    [Invalid_argument] unless [rate] is finite and positive: a NaN or
    infinite rate would draw zero gaps, so arrivals would repeat at one
    instant forever.

    With [route], the client follows leader hints: a [`Not_leader (Some
    hint)] reply re-submits the request to [route hint] after 1 ms, at
    most 3 times per request.  Latency still runs from the first send.  A request whose reply carries no hint, or that
    exhausts the hop budget, is dropped and counted in {!abandoned}.
    Without [route] (the default) behaviour is unchanged: every
    [`Not_leader] is terminal. *)

val start : t -> unit
val stop : t -> unit
(** Stop generating arrivals and release the payload cache; outstanding
    requests may still complete. *)

(** {2 Counters} *)

val offered : t -> int
(** Requests submitted (arrival events). *)

val completed : t -> int
(** Requests committed. *)

val rejected : t -> int
(** Proposals that lost leadership mid-flight. *)

val redirected : t -> int
(** [`Not_leader] replies received (one per hop when following
    redirects). *)

val abandoned : t -> int
(** Requests dropped after a hint-less [`Not_leader] or an exhausted
    redirect budget. *)

val latencies_ms : t -> float list
(** Commit latencies (ms) of completed requests, in completion order. *)
