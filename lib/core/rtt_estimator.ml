type t = { min_size : int; window : Stats.Window.t }

let create ~min_size ~max_size =
  if min_size <= 0 || max_size < min_size then
    invalid_arg "Rtt_estimator.create: requires 0 < min_size <= max_size";
  { min_size; window = Stats.Window.create ~capacity:max_size }

(* Samples are stored as float milliseconds: the statistics are about
   durations of that magnitude and the window's running sums stay well
   conditioned. *)
let observe t rtt = Stats.Window.push t.window (Des.Time.to_ms_f rtt)
let length t = Stats.Window.length t.window
let warmed_up t = length t >= t.min_size
let[@inline] mean_ms t = Stats.Window.mean t.window
let[@inline] std_ms t = Stats.Window.std t.window
let mean t = Des.Time.of_ms_f (mean_ms t)
let std t = Des.Time.of_ms_f (std_ms t)
let election_timeout t ~s = Des.Time.of_ms_f (mean_ms t +. (s *. std_ms t))

let clear t = Stats.Window.clear t.window
