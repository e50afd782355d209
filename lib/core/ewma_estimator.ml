(* The two estimators live in an all-float record: a float field of a
   record that also holds ints is boxed, so every store to it would
   allocate. *)
type est = { mutable srtt : float; (* ms *) mutable rttvar : float (* ms *) }

type t = {
  alpha : float;
  beta : float;
  min_samples : int;
  est : est;
  mutable count : int;
}

let create ?(alpha = 0.125) ~min_samples () =
  if not (alpha > 0. && alpha <= 1.) then
    invalid_arg "Ewma_estimator.create: alpha must be in (0, 1]";
  if min_samples <= 0 then
    invalid_arg "Ewma_estimator.create: min_samples must be positive";
  {
    alpha;
    beta = Float.min 1. (2. *. alpha);
    min_samples;
    est = { srtt = 0.; rttvar = 0. };
    count = 0;
  }


let observe t rtt =
  let r = Des.Time.to_ms_f rtt and e = t.est in
  if t.count = 0 then begin
    (* TCP's initialization: first sample seeds both estimators. *)
    e.srtt <- r;
    e.rttvar <- r /. 2.
  end
  else begin
    e.rttvar <-
      ((1. -. t.beta) *. e.rttvar) +. (t.beta *. abs_float (r -. e.srtt));
    e.srtt <- ((1. -. t.alpha) *. e.srtt) +. (t.alpha *. r)
  end;
  if t.count < max_int then t.count <- t.count + 1

let length t = t.count
let warmed_up t = t.count >= t.min_samples
let mean t = Des.Time.of_ms_f t.est.srtt
let deviation t = Des.Time.of_ms_f t.est.rttvar
let election_timeout t ~s = Des.Time.of_ms_f (t.est.srtt +. (s *. t.est.rttvar))

let clear t =
  t.est.srtt <- 0.;
  t.est.rttvar <- 0.;
  t.count <- 0
