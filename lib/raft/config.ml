type tuning =
  | Static
  | Dynatune of Dynatune.Config.t
  | Fix_k of { cfg : Dynatune.Config.t; k : int }

type t = {
  election_timeout : Des.Time.span;
  heartbeat_interval : Des.Time.span;
  pre_vote : bool;
  leader_stickiness : bool;
  check_quorum : bool;
  tuning : tuning;
  heartbeat_transport : Netsim.Transport.kind;
  max_entries_per_append : int;
  suppress_heartbeats_under_load : bool;
  consolidated_timer : bool;
  snapshot_threshold : int;
  learner_promotion_gap : int;
  max_inflight_appends : int;
  append_backpressure : int;
  priority_lanes : bool;
}

let with_replication ?max_inflight_appends ?append_backpressure
    ?max_entries_per_append ?priority_lanes t =
  let pick v = function Some v' -> v' | None -> v in
  {
    t with
    max_inflight_appends = pick t.max_inflight_appends max_inflight_appends;
    append_backpressure = pick t.append_backpressure append_backpressure;
    max_entries_per_append = pick t.max_entries_per_append max_entries_per_append;
    priority_lanes = pick t.priority_lanes priority_lanes;
  }

let with_snapshots ~threshold t =
  if threshold < 0 then invalid_arg "Config.with_snapshots: negative threshold";
  { t with snapshot_threshold = threshold }

let with_extensions ?(suppress_heartbeats_under_load = true)
    ?(consolidated_timer = false) t =
  { t with suppress_heartbeats_under_load; consolidated_timer }

let static_with ~election_timeout ~heartbeat_interval =
  {
    election_timeout;
    heartbeat_interval;
    pre_vote = true;
    leader_stickiness = true;
    check_quorum = true;
    tuning = Static;
    heartbeat_transport = Netsim.Transport.Reliable;
    max_entries_per_append = 1024;
    suppress_heartbeats_under_load = false;
    consolidated_timer = false;
    snapshot_threshold = 0;
    learner_promotion_gap = 64;
    max_inflight_appends = 1024;
    append_backpressure = 64;
    priority_lanes = true;
  }

let static () =
  static_with ~election_timeout:(Des.Time.ms 1000)
    ~heartbeat_interval:(Des.Time.ms 100)

let raft_low () =
  static_with ~election_timeout:(Des.Time.ms 100)
    ~heartbeat_interval:(Des.Time.ms 10)

let dynatune ?(cfg = Dynatune.Config.default) () =
  {
    election_timeout = cfg.Dynatune.Config.default_election_timeout;
    heartbeat_interval = cfg.Dynatune.Config.default_heartbeat_interval;
    pre_vote = true;
    leader_stickiness = true;
    check_quorum = true;
    tuning = Dynatune cfg;
    heartbeat_transport = Netsim.Transport.Datagram;
    max_entries_per_append = 1024;
    suppress_heartbeats_under_load = false;
    consolidated_timer = false;
    snapshot_threshold = 0;
    learner_promotion_gap = 64;
    max_inflight_appends = 1024;
    append_backpressure = 64;
    priority_lanes = true;
  }

let fix_k ~k () =
  if k <= 0 then invalid_arg "Config.fix_k: k must be positive";
  { (dynatune ()) with tuning = Fix_k { cfg = Dynatune.Config.default; k } }

let validate t =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  if t.election_timeout <= 0 then err "election_timeout must be positive"
  else if t.heartbeat_interval <= 0 then
    err "heartbeat_interval must be positive"
  else if t.heartbeat_interval >= t.election_timeout then
    err "heartbeat_interval must be below election_timeout"
  else if t.max_entries_per_append <= 0 then
    err "max_entries_per_append must be positive"
  else if t.snapshot_threshold < 0 then
    err "snapshot_threshold must be non-negative"
  else if t.learner_promotion_gap < 0 then
    err "learner_promotion_gap must be non-negative"
  else if t.max_inflight_appends <= 0 then
    err "max_inflight_appends must be positive"
  else if t.append_backpressure <= 0 then
    err "append_backpressure must be positive"
  else
    match t.tuning with
    | Static -> Ok t
    | Dynatune cfg | Fix_k { cfg; _ } -> (
        match Dynatune.Config.validate cfg with
        | Ok _ -> Ok t
        | Error msg -> err "tuning config: %s" msg)

let election_timeout_base t =
  match t.tuning with
  | Static -> t.election_timeout
  | Dynatune cfg | Fix_k { cfg; _ } ->
      cfg.Dynatune.Config.default_election_timeout

let heartbeat_interval_base t =
  match t.tuning with
  | Static -> t.heartbeat_interval
  | Dynatune cfg | Fix_k { cfg; _ } ->
      cfg.Dynatune.Config.default_heartbeat_interval

let mode_name t =
  match t.tuning with
  | Dynatune _ -> "dynatune"
  | Fix_k _ -> "fix-k"
  | Static ->
      if t.election_timeout <= Des.Time.ms 100 then "raft-low" else "raft"
