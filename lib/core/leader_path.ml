type t = {
  mutable next_id : int;
  mutable pending_rtt : Des.Time.span option;
  mutable interval : Des.Time.span;
}

let create ~heartbeat_interval =
  {
    next_id = 0;
    pending_rtt = None;
    interval = heartbeat_interval;
  }

let next_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* Hands over the stored [Some rtt] box itself — the caller ships it in
   the next heartbeat without re-boxing. *)
let take_rtt t =
  let rtt = t.pending_rtt in
  t.pending_rtt <- None;
  rtt

let on_response t ~now ~echo_sent_at ~tuned_h =
  if echo_sent_at <= now then
    t.pending_rtt <- Some (Des.Time.diff now echo_sent_at);
  match tuned_h with
  | Some h ->
      t.interval <- Des.Time.max_span Config.min_heartbeat_interval h
  | None -> ()

let interval t = t.interval
