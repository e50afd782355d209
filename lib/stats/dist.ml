(* Every sampler is [@inline]: a float crossing a call that is not
   inlined is boxed, and the network model draws one or two per
   datagram. *)

let[@inline] exponential rng ~rate =
  if not (Float.is_finite rate && rate > 0.) then
    invalid_arg "Dist.exponential: rate must be finite and positive";
  (* 1 - u avoids log 0 since Rng.float is in [0, 1). *)
  -.log (1. -. Rng.float rng) /. rate

let[@inline] normal rng ~mu ~sigma =
  let u1 = 1. -. Rng.float rng in
  let u2 = Rng.float rng in
  let r = sqrt (-2. *. log u1) in
  mu +. (sigma *. r *. cos (2. *. Float.pi *. u2))

let[@inline] lognormal rng ~mu ~sigma = exp (normal rng ~mu ~sigma)

let[@inline] lognormal_mean_preserving rng ~sigma =
  if sigma = 0. then 1.
  else lognormal rng ~mu:(-.sigma *. sigma /. 2.) ~sigma
