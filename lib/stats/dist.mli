(** Samplers for the probability distributions used by the network model.

    All samplers draw from an explicit {!Rng.t}; none touch global state.
    The [jitter] family is mean-preserving: multiplying a base delay by a
    jitter sample leaves its expectation unchanged, which keeps a link's
    configured RTT equal to its long-run average RTT. *)

val exponential : Rng.t -> rate:float -> float
(** [exponential rng ~rate] samples Exp(rate); mean [1/rate].  Raises
    [Invalid_argument] unless [rate] is finite and positive. *)

val normal : Rng.t -> mu:float -> sigma:float -> float
(** Gaussian via the Box–Muller transform (no cached spare, so draw
    sequences stay reproducible under stream splitting). *)

val lognormal : Rng.t -> mu:float -> sigma:float -> float
(** [lognormal rng ~mu ~sigma] is [exp] of a Normal(mu, sigma) draw. *)

val lognormal_mean_preserving : Rng.t -> sigma:float -> float
(** A lognormal multiplier with expectation exactly 1: [exp(sigma·Z −
    sigma²/2)].  Used as multiplicative delay jitter. [sigma = 0.] always
    yields [1.]. *)
