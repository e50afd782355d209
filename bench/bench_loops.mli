(** Hot-path loop builders shared by the bechamel microbenchmarks and
    the perf-regression guard (`selfcheck --perf`).

    Every {!loops} row builds a closure that replays one pinned
    operation; its minor-heap allocation per call is a constant of the
    code path (no GC- or time-dependent branching), so {!words_per_op}
    figures are exact and comparable across hosts.  The same holds for
    {!words_per_event} of a pinned-seed simulation. *)

val bench_log : unit -> Raft.Log.t
(** A 1000-entry log of identical KV [Put] commands. *)

type loop = {
  name : string;
  budget : float;  (** the words/op [selfcheck --perf] allows *)
  make : unit -> unit -> unit;
      (** builds the closure; each call replays the operation once *)
}

val loops : loop list
(** Every loop [selfcheck --perf] gates and [bench micro] times, in the
    order both print them.  Each budget is the loop's measured
    constant. *)

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
