type phase = Warming | Tuned

type rtt_backend =
  | Window of Rtt_estimator.t
  | Smoothed of Ewma_estimator.t

type t = {
  config : Config.t;
  base_et : Des.Time.span;  (* Et while warming, and after [reset] *)
  base_h : Des.Time.span;  (* h while warming *)
  rtt : rtt_backend;
  loss : Loss_estimator.t;
  log_miss : float;  (* log (1 - arrival_probability), for K *)
  (* Derived values are queried on every heartbeat (to arm the election
     timer and pick the piggybacked h) but change only when a sample is
     recorded, so they are cached behind a dirty flag.  The cached
     numbers are exactly what the direct computation would produce —
     recomputing them eagerly would give bit-identical traces, just three
     O(window) statistics passes per heartbeat instead of one.

     The raw Et of the RTT estimator (before the clamp) has a flag of
     its own: it depends on the RTT samples alone, so a heartbeat that
     is recorded without an RTT sample moves the loss rate, K and h but
     leaves it as it was, and the window's O(window) std is not rerun. *)
  mutable dirty : bool;
  mutable rtt_dirty : bool;
  mutable cached_raw_et : Des.Time.span;
  mutable cached_et : Des.Time.span;
  mutable cached_k : int;
  mutable cached_h : Des.Time.span;
}

let create config ~election_timeout ~heartbeat_interval =
  if election_timeout <= 0 || heartbeat_interval <= 0 then
    invalid_arg "Tuner.create: base Et and h must be positive";
  match Config.validate config with
  | Error msg -> invalid_arg ("Tuner.create: " ^ msg)
  | Ok config ->
      {
        config;
        base_et = election_timeout;
        base_h = heartbeat_interval;
        rtt =
          (match config.rtt_estimator with
          | Config.Sliding_window ->
              Window
                (Rtt_estimator.create ~min_size:config.min_list_size
                   ~max_size:config.max_list_size)
          | Config.Ewma alpha ->
              Smoothed
                (Ewma_estimator.create ~alpha
                   ~min_samples:config.min_list_size ()));
        loss =
          Loss_estimator.create ~min_size:config.min_list_size
            ~max_size:config.max_list_size;
        log_miss = log (1. -. config.arrival_probability);
        dirty = true;
        rtt_dirty = true;
        cached_raw_et = election_timeout;
        cached_et = election_timeout;
        cached_k = 1;
        cached_h = heartbeat_interval;
      }


let rtt_warmed t =
  match t.rtt with
  | Window w -> Rtt_estimator.warmed_up w
  | Smoothed e -> Ewma_estimator.warmed_up e

let rtt_observe t sample =
  match t.rtt with
  | Window w -> Rtt_estimator.observe w sample
  | Smoothed e -> Ewma_estimator.observe e sample

(* Only asked once the estimator is warmed up. *)
let rtt_et t =
  if t.rtt_dirty then begin
    let s = t.config.safety_factor in
    t.cached_raw_et <-
      (match t.rtt with
      | Window w -> Rtt_estimator.election_timeout w ~s
      | Smoothed e -> Ewma_estimator.election_timeout e ~s);
    t.rtt_dirty <- false
  end;
  t.cached_raw_et

let phase t =
  if rtt_warmed t && Loss_estimator.warmed_up t.loss then Tuned else Warming

let observe_heartbeat t ~hb_id ~rtt =
  (match Loss_estimator.observe t.loss hb_id with
  | `Duplicate -> ()
  | `Recorded -> (
      t.dirty <- true;
      match rtt with
      | Some sample ->
          rtt_observe t sample;
          t.rtt_dirty <- true
      | None -> ()))

(* [@inline] keeps [p] unboxed on the per-heartbeat path.  [log_miss]
   is [log (1 - x)], which a tuner takes once. *)
let[@inline] heartbeats_needed ~p ~log_miss =
  if p <= 0. then 1
  else if p >= 1. then max_int
  else
    (* 1 - p^K >= x  ⟺  K >= log_p(1 - x); both logs are negative. *)
    let k = log_miss /. log p in
    Int.max 1 (int_of_float (ceil k))

let required_heartbeats_for ~p ~x =
  heartbeats_needed ~p ~log_miss:(log (1. -. x))

let compute_election_timeout t =
  match phase t with
  | Tuned ->
      Des.Time.clamp
        (rtt_et t)
        ~lo:Config.min_election_timeout ~hi:t.config.max_election_timeout
  | Warming -> t.base_et

let loss_rate t = Loss_estimator.loss_rate t.loss

let compute_required_heartbeats t ~et =
  match phase t with
  | Warming -> 1
  | Tuned ->
      (* Not [loss_rate t]: its float result would be boxed. *)
      let p = Loss_estimator.loss_rate t.loss in
      let k = heartbeats_needed ~p ~log_miss:t.log_miss in
      (* K beyond Et / min_h cannot be honoured; clamp so h stays above
         its floor. *)
      let cap = Int.max 1 (et / t.config.min_heartbeat_interval) in
      Int.min k cap

let compute_heartbeat_interval t ~et ~k =
  match phase t with
  | Warming -> t.base_h
  | Tuned -> Des.Time.max_span t.config.min_heartbeat_interval (et / k)

let refresh t =
  if t.dirty then begin
    let et = compute_election_timeout t in
    let k = compute_required_heartbeats t ~et in
    t.cached_et <- et;
    t.cached_k <- k;
    t.cached_h <- compute_heartbeat_interval t ~et ~k;
    t.dirty <- false
  end

let election_timeout t =
  refresh t;
  t.cached_et

let required_heartbeats t =
  refresh t;
  t.cached_k

let heartbeat_interval t =
  refresh t;
  t.cached_h

let rtt_mean t =
  match t.rtt with
  | Window w -> Rtt_estimator.mean w
  | Smoothed e -> Ewma_estimator.mean e

let rtt_std t =
  match t.rtt with
  | Window w -> Rtt_estimator.std w
  | Smoothed e -> Ewma_estimator.deviation e

let samples t =
  match t.rtt with
  | Window w -> Rtt_estimator.length w
  | Smoothed e -> Ewma_estimator.length e

let reset t =
  (match t.rtt with
  | Window w -> Rtt_estimator.clear w
  | Smoothed e -> Ewma_estimator.clear e);
  Loss_estimator.clear t.loss;
  t.dirty <- true;
  t.rtt_dirty <- true

let pp ppf t =
  let phase_str = match phase t with Warming -> "warming" | Tuned -> "tuned" in
  Format.fprintf ppf
    "phase=%s n=%d rtt=%.1f±%.1fms p=%.3f K=%d Et=%a h=%a" phase_str
    (samples t)
    (Des.Time.to_ms_f (rtt_mean t))
    (Des.Time.to_ms_f (rtt_std t))
    (loss_rate t) (required_heartbeats t) Des.Time.pp_ms (election_timeout t)
    Des.Time.pp_ms (heartbeat_interval t)
