(** Hot-path loop builders shared by the bechamel microbenchmarks and
    the perf-regression guard (`selfcheck --perf`).

    Every [make_*] builder returns a closure that replays one pinned
    operation; its minor-heap allocation per call is a constant of the
    code path (no GC- or time-dependent branching), so {!words_per_op}
    figures are exact and comparable across hosts.  The same holds for
    {!words_per_event} of a pinned-seed simulation. *)

val bench_log : unit -> Raft.Log.t
(** A 1000-entry log of identical KV [Put] commands. *)

val make_heartbeat_loop : unit -> unit -> unit
(** Follower handling one dynatune heartbeat (tuner observation
    included). *)

val make_leader_append_loop : unit -> unit -> unit
(** Leader handling a conflict nack that forces a 64-entry rebatch — a
    batch-cache hit in steady state. *)

val make_follower_append_loop : unit -> unit -> unit
(** Follower handling a duplicate 64-entry append through
    [Server.handle]: the full RPC path over the prefix scan. *)

val make_try_append_loop : unit -> unit -> unit
(** The same duplicate 64-entry append straight into
    [Raft.Log.try_append]: the log-matching prefix scan alone, the floor
    under the follower figure. *)

val make_vote_round_loop : unit -> unit -> unit
(** Follower granting one replayed pre-vote request: the vote checks and
    the response build, with no durable-state mutation. *)

val make_snapshot_install_loop : unit -> unit -> unit
(** Follower handling a replayed stale [Install_snapshot] (its commit
    point already covers the boundary): the receive path minus the
    one-off log wipe. *)

val make_read_index_loop : unit -> unit -> unit
(** Leader registering one linearizable read and handling the two
    heartbeat echoes that serve the read registered 32 ops earlier: the
    ReadIndex round with 32 reads in flight. *)

val make_schedule_op_loop : unit -> unit -> unit
(** One opcode event through the DES kernel: [Engine.schedule_op_after]
    then [Engine.step].  Allocates exactly 0 minor words per call once
    the event pool is warm. *)

val make_mtrace_emit_loop : unit -> unit -> unit
(** One probe through [Des.Mtrace.emit] to a single counting observer:
    the bus retains nothing, so this allocates exactly 0 minor words. *)

val make_client_encode_loop : unit -> unit -> unit
(** [Kvsm.Command.client_put_payload] of one write with a 64-byte
    value: the payload string is its only allocation. *)

val make_decode_put_loop : unit -> unit -> unit
(** [Kvsm.Command.of_payload] on that write: the key, the value, the
    command and the result. *)

val make_store_put_loop : unit -> unit -> unit
(** [Kvsm.Store.apply_entry] of that write with its key already present:
    the value is kept by reference, so only the key is copied. *)

val make_idle_await_loop : unit -> unit -> unit
(** One [Des.Engine.await] of 1 s in 1 ms slices on an engine with no
    events: the harness's wait loop with nothing to do.  [cond] runs
    once per call, so this prices the 1000 slices themselves. *)

type loop = {
  name : string;
  budget : float;  (** the words/op [selfcheck --perf] allows *)
  make : unit -> unit -> unit;  (** one of the builders above *)
}

val loops : loop list
(** Every loop [selfcheck --perf] gates, in the order it and the
    microbenchmarks' allocation report print them.  Each budget is the
    loop's measured constant. *)

val words_per_op : (unit -> unit) -> float
(** Minor words allocated per call of [f], measured over 100k iterations
    after a 100-call warmup. *)

val words_per_event : (unit -> 'a) -> 'a * float
(** [words_per_event f] runs [f] and returns its result with the minor
    words allocated per DES event processed meanwhile.  [f] must run its
    engines on the calling domain. *)

val cluster_words_per_event : ?forensics:Raft.Forensics.t -> unit -> float
(** {!words_per_event} of a pinned steady-state 3-node dynatune cluster
    (seed 5) over 120 s of virtual time, after its first election and a
    10 s settle.  [forensics] is handed to the cluster as is. *)
