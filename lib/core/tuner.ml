type phase = Warming | Tuned
type decision = Unchanged | First | Moved

type rtt_backend =
  | Window of Rtt_estimator.t
  | Smoothed of Ewma_estimator.t

type t = {
  config : Config.t;
  base_et : Des.Time.span;  (* Et while warming, and after [reset] *)
  base_h : Des.Time.span;  (* h while warming *)
  fixed_k : int;  (* Fix-K's k; 0 under Dynatune's K rule *)
  rtt : rtt_backend;
  loss : Loss_estimator.t;
  log_miss : float;  (* log (1 - arrival_probability), for K *)
  (* The derived values, recomputed when their inputs change: the raw Et
     of the RTT estimator (before the clamp) on each RTT sample once the
     estimator is warm, and Et, K and h on each recorded heartbeat and on
     [reset].  A heartbeat recorded without an RTT sample moves the loss
     rate, K and h but not the raw Et, so the window's O(window) std is
     not rerun. *)
  mutable raw_et : Des.Time.span;
  mutable et : Des.Time.span;
  mutable k : int;
  mutable h : Des.Time.span;
  mutable piggyback : Des.Time.span option;
      (* the last [Some h] handed out, handed out again while h is
         unchanged; a tuned h moves with most RTT samples, so only 5-24%
         of responses reuse it (fig4 7.7%, fig5 23%, fig7 23.7%,
         multiraft 4.9%) *)
  mutable decision : decision;  (* what {!take_decision} reports next *)
}

let create ?fixed_k config ~election_timeout ~heartbeat_interval =
  if election_timeout <= 0 || heartbeat_interval <= 0 then
    invalid_arg "Tuner.create: base Et and h must be positive";
  let fixed_k =
    match fixed_k with
    | None -> 0
    | Some k when k > 0 -> k
    | Some _ -> invalid_arg "Tuner.create: fixed_k must be positive"
  in
  match Config.validate config with
  | Error msg -> invalid_arg ("Tuner.create: " ^ msg)
  | Ok config ->
      {
        config;
        base_et = election_timeout;
        base_h = heartbeat_interval;
        fixed_k;
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
        raw_et = election_timeout;
        et = election_timeout;
        k = 1;
        h = heartbeat_interval;
        piggyback = None;
        decision = First;
      }

let rtt_warmed t =
  match t.rtt with
  | Window w -> Rtt_estimator.warmed_up w
  | Smoothed e -> Ewma_estimator.warmed_up e

let phase t =
  if rtt_warmed t && Loss_estimator.warmed_up t.loss then Tuned else Warming

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

let[@inline] set t ~et ~k ~h =
  if not (Int.equal et t.et && Int.equal k t.k && Int.equal h t.h) then begin
    (match t.decision with
    | Unchanged -> t.decision <- Moved
    | First | Moved -> ());
    t.et <- et;
    t.k <- k;
    t.h <- h
  end

let retune t =
  match phase t with
  | Warming -> set t ~et:t.base_et ~k:1 ~h:t.base_h
  | Tuned ->
      let min_h = Config.min_heartbeat_interval in
      let et =
        Des.Time.clamp t.raw_et ~lo:Config.min_election_timeout
          ~hi:Config.max_election_timeout
      in
      let k =
        if t.fixed_k > 0 then t.fixed_k
        else
          (* Not [loss_rate t]: its float result would be boxed.  K
             beyond Et / min_h cannot be honoured; clamp so h stays
             above its floor. *)
          let p = Loss_estimator.loss_rate t.loss in
          Int.min
            (heartbeats_needed ~p ~log_miss:t.log_miss)
            (Int.max 1 (et / min_h))
      in
      set t ~et ~k ~h:(Des.Time.max_span min_h (et / k))

let observe_heartbeat t ~hb_id ~rtt =
  match Loss_estimator.observe t.loss hb_id with
  | `Duplicate -> ()
  | `Recorded ->
      (match (rtt, t.rtt) with
      | None, _ -> ()
      | Some sample, Window w ->
          Rtt_estimator.observe w sample;
          if Rtt_estimator.warmed_up w then
            t.raw_et <-
              Rtt_estimator.election_timeout w ~s:t.config.safety_factor
      | Some sample, Smoothed e ->
          Ewma_estimator.observe e sample;
          if Ewma_estimator.warmed_up e then
            t.raw_et <-
              Ewma_estimator.election_timeout e ~s:t.config.safety_factor);
      retune t

let election_timeout t = t.et
let required_heartbeats t = t.k
let heartbeat_interval t = t.h

let piggyback_h t =
  match phase t with
  | Warming -> None
  | Tuned -> (
      match t.piggyback with
      | Some h as box when Int.equal h t.h -> box
      | Some _ | None ->
          let box = Some t.h in
          t.piggyback <- box;
          box)

let take_decision t =
  match t.decision with
  | Unchanged -> Unchanged
  | (First | Moved) as d -> (
      match phase t with
      | Warming -> Unchanged
      | Tuned ->
          t.decision <- Unchanged;
          d)

let loss_rate t = Loss_estimator.loss_rate t.loss

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
  t.decision <- First;
  retune t

let pp ppf t =
  let phase_str = match phase t with Warming -> "warming" | Tuned -> "tuned" in
  Format.fprintf ppf
    "phase=%s n=%d rtt=%.1f±%.1fms p=%.3f K=%d Et=%a h=%a" phase_str
    (samples t)
    (Des.Time.to_ms_f (rtt_mean t))
    (Des.Time.to_ms_f (rtt_std t))
    (loss_rate t) t.k Des.Time.pp_ms t.et Des.Time.pp_ms t.h
