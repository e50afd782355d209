(** Figure 8 — the real-distributed (geo-replicated) experiment of
    Section IV-D: the Fig 4 failure campaign on a five-region WAN
    (Tokyo, London, California, Sydney, São Paulo) with heterogeneous
    RTTs, jitter and residual loss.

    The paper's deployment measures times across NTP-synchronized hosts
    (tens of ms of error); the simulation's shared clock measures them
    exactly, so our numbers are the error-free analogue. *)

val run :
  ?seed:int64 ->
  ?failures:int ->
  ?jobs:int ->
  ?instrument:bool ->
  ?record:Des.Time.span ->
  config:Raft.Config.t ->
  unit ->
  Fig4.result
(** {!Fig4.run} with [n = 5] and {!Geo.apply}'s default WAN installed
    on every shard cluster before it starts, so [jobs], [instrument]
    and [record] mean exactly what they mean there.
    Defaults: seed 23, 300 failures. *)

val compare_modes : ?failures:int -> ?jobs:int -> unit -> Fig4.result list
(** Default Raft vs Dynatune on the geo WAN, at {!run}'s default seed. *)

val print : Format.formatter -> Fig4.result list -> unit
