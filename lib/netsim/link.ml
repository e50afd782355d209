type counters = {
  sent : int;
  delivered : int;
  lost : int;
  duplicated : int;
  retransmissions : int;
}

type t = {
  engine : Des.Engine.t;
  rng : Stats.Rng.t;
  (* The segment of the link's schedule in force at the last lookup.
     The clock never goes back, so a message searches the schedule
     again only when it crosses into a later segment. *)
  mutable segment : Conditions.segment;
  mutable sent : int;
  mutable delivered : int;
  mutable lost : int;
  mutable duplicated : int;
  mutable retransmissions : int;
  mutable dup : int;  (* second-copy latency of the last packed sample *)
}

let create engine ~rng conditions =
  {
    engine;
    rng;
    segment = Conditions.segment_at conditions (Des.Engine.now engine);
    sent = 0;
    delivered = 0;
    lost = 0;
    duplicated = 0;
    retransmissions = 0;
    dup = -1;
  }

let set_conditions t c =
  t.segment <- Conditions.segment_at c (Des.Engine.now t.engine)

let counters t =
  {
    sent = t.sent;
    delivered = t.delivered;
    lost = t.lost;
    duplicated = t.duplicated;
    retransmissions = t.retransmissions;
  }

let find_segment t now =
  let s = Conditions.segment_at t.segment.Conditions.seg_schedule now in
  t.segment <- s;
  s.Conditions.seg_profile

let profile_now t =
  let now = Des.Engine.now t.engine and s = t.segment in
  if now < s.Conditions.seg_until then s.Conditions.seg_profile
  else find_segment t now

let one_way t (p : Conditions.profile) =
  let base = p.rtt_ms /. 2. in
  let mult = Stats.Dist.lognormal_mean_preserving t.rng ~sigma:p.jitter in
  Des.Time.of_ms_f (base *. mult)

(* The outcome is an int (-1 = lost, else the one-way latency) with any
   duplicate's latency parked in [t.dup] until the next sample: no
   outcome block per message on the fabric's hot path. *)
let sample_datagram t =
  t.sent <- t.sent + 1;
  let p = profile_now t in
  if Stats.Rng.bernoulli t.rng p.loss then begin
    t.lost <- t.lost + 1;
    t.dup <- -1;
    -1
  end
  else begin
    t.delivered <- t.delivered + 1;
    let d1 = one_way t p in
    if p.duplicate > 0. && Stats.Rng.bernoulli t.rng p.duplicate then begin
      t.duplicated <- t.duplicated + 1;
      t.dup <- one_way t p
    end
    else t.dup <- -1;
    d1
  end

let dup_latency t = t.dup
let min_rto = Des.Time.ms 200
let max_retransmissions = 8

let sample_reliable t =
  t.sent <- t.sent + 1;
  t.delivered <- t.delivered + 1;
  let p = profile_now t in
  let rto = Des.Time.max_span min_rto (Des.Time.of_ms_f (2. *. p.rtt_ms)) in
  let rec attempt n penalty =
    if n >= max_retransmissions then penalty
    else if Stats.Rng.bernoulli t.rng p.loss then begin
      t.retransmissions <- t.retransmissions + 1;
      attempt (n + 1) (penalty + (rto * (1 lsl n)))
    end
    else penalty
  in
  attempt 0 0 + one_way t p
