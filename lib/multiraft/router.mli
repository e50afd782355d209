(** The shard router: a KV front door over {!Group_manager}.

    Keys hash-partition onto groups ({!shard_of_key}: FNV-1a mod group
    count — a pure, total, stable function of [(key, groups)]); requests
    go to the key's group through a per-group cached leader hint,
    refreshed by every [`Not_leader] reply, exactly the redirect
    protocol {!Kvsm.Client} speaks. *)

type request =
  | Write of { key : string; value : string }
  | Read of { key : string }
(** The front-door protocol. *)

type response =
  | Committed  (** the write committed *)
  | Value of string option  (** linearizable read result *)
  | Failed  (** no leader / leadership lost mid-request *)

type t

val create : Group_manager.t -> t
(** A router with an empty hint cache.  Registers
    [multiraft/router_hint_{hits,misses,refreshes}] counters on the
    manager's telemetry registry. *)

val shard_of_key : groups:int -> string -> int
(** The partition function, exposed pure for property tests.  Raises
    [Invalid_argument] unless [groups > 0]. *)

val group_of_key : t -> string -> int

val hint : t -> int -> Netsim.Node_id.t option
(** The cached leader for a group, if any. *)

val target : t -> Kvsm.Client.target
(** The open-loop client's injection point: decodes the payload's key,
    shard-routes to its group's hinted leader (falling back to a leader
    scan on a cold cache), and learns from the reply.  An undecodable
    payload is answered [`Not_leader None]. *)

val route : t -> Netsim.Node_id.t -> Kvsm.Client.target
(** Redirect follower (the client's [route] parameter): installs the
    hint the reply carried and pins the retry to that node. *)

val dispatch :
  t ->
  request ->
  client_id:int ->
  seq:int ->
  on_result:(response -> unit) ->
  Kvsm.Client.submit_result
(** One-shot front door used by tests and the chaos sweep: [Write]
    submits a [Put] to the key's group ([on_result] fires exactly once,
    immediately on rejection); [Read] runs the group's linearizable
    read and always returns [`Accepted]. *)

(** {2 Cache statistics} *)

val hint_hits : t -> int
val hint_misses : t -> int
val hint_refreshes : t -> int
