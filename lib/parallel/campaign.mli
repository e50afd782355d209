(** Deterministic sharding of simulation campaigns across domains.

    A campaign is a batch of [total] independent trials (e.g. leader
    failures to measure) driven by a single root seed.  [sharded]
    splits the batch into [min 4 total] shards; each shard gets a quota
    of trials and an independent seed derived from the campaign seed
    with {!Stats.Rng.derive}.  The plan — and therefore every shard's
    draw sequence — is a pure function of [(seed, total)]: running it
    with any worker count, or on any machine, produces identical
    results.  The worker count only chooses how many domains execute
    the shards; workers beyond the shard count sit idle. *)

type shard = {
  index : int;  (** 0-based shard number. *)
  shards : int;  (** Total number of shards in the plan. *)
  seed : int64;  (** Root seed for this shard's PRNG streams. *)
  quota : int;  (** Number of trials this shard must complete. *)
}

val plan : seed:int64 -> total:int -> shard list
(** The shard plan that {!sharded} executes, exposed for testing:
    [min 4 total] shards whose quotas differ by at most one and sum to
    [total].  A multi-shard plan gives shard [i] the seed
    [Stats.Rng.derive seed i]; a campaign of at most one trial is the
    single shard [{index = 0; shards = 1; seed; quota = total}], its
    seed unchanged. *)

val sharded :
  jobs:int -> seed:int64 -> total:int -> f:(shard -> 'a) -> 'a list
(** [sharded ~jobs ~seed ~total ~f] is {!all} applied to [f] on every
    shard of [plan ~seed ~total]: the results in shard order, the same
    whatever [jobs] is. *)

val all : jobs:int -> (unit -> 'a) list -> 'a list
(** [all ~jobs thunks] runs independent thunks — complete scenario
    runs that cannot be subdivided, such as the legs of a parameter
    sweep — and returns their results in order.  Workers claim the next
    unrun thunk until none is left: [jobs <= 1] or a single thunk runs
    that loop on the calling domain, with no domain spawned; otherwise
    [min jobs (List.length thunks)] spawned domains run it and the
    caller joins them.  Thunks must not share mutable state.  A
    raising thunk does not stop the others: once every thunk has run,
    the exception of the lowest-indexed failure is re-raised with its
    backtrace. *)
