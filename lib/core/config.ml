type estimator = Sliding_window | Ewma of float

type t = {
  rtt_estimator : estimator;
  safety_factor : float;
  arrival_probability : float;
  min_list_size : int;
  max_list_size : int;
}

let min_election_timeout = Des.Time.ms 10
let max_election_timeout = Des.Time.ms 5000
let min_heartbeat_interval = Des.Time.ms 1

let default =
  {
    rtt_estimator = Sliding_window;
    safety_factor = 2.;
    arrival_probability = 0.999;
    min_list_size = 20;
    max_list_size = 100;
  }

let validate t =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  if (match t.rtt_estimator with
     | Sliding_window -> false
     | Ewma alpha -> not (alpha > 0. && alpha <= 1.))
  then err "ewma alpha must be in (0, 1]"
  else if not (Float.is_finite t.safety_factor && t.safety_factor >= 0.) then
    err "safety_factor must be finite and non-negative"
  else if not (t.arrival_probability > 0. && t.arrival_probability < 1.) then
    err "arrival_probability must be in (0, 1)"
  else if t.min_list_size < 2 then err "min_list_size must be at least 2"
  else if t.max_list_size < t.min_list_size then
    err "max_list_size must be >= min_list_size"
  else Ok t
