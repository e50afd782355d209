type submit_result = [ `Accepted | `Not_leader of Netsim.Node_id.t option ]

type target =
  payload:string ->
  client_id:int ->
  seq:int ->
  on_result:(committed:bool -> unit) ->
  submit_result

type t = {
  engine : Des.Engine.t;
  arrival : (t, unit) Des.Engine.op;
      (* the engine's shared arrival handler: an arrival event is an op
         on this client, so it allocates no closure *)
  target : target;
  client_id : int;
  rate : float;
  client_rtt : Des.Time.span;
  route : (Netsim.Node_id.t -> target) option;
  rng : Stats.Rng.t;
  mutable running : bool;
  mutable seq : int;
  mutable offered : int;
  mutable completed : int;
  mutable rejected : int;
  mutable redirected : int;
  mutable abandoned : int;
  mutable latencies : Float.Array.t;
      (* ms, in completion order, in the first [n_latencies] slots:
         unboxed, so a sample costs neither a list cell nor a float box *)
  mutable n_latencies : int;
  mutable payloads : string array;
      (* the Put payload of each key slot written so far, "" where none
         is built yet; grown on demand up to [key_slots], and released
         by [stop] *)
}

(* Every request writes a 64-byte value to one of [key_slots] keys in
   turn; a redirected one is re-sent 1 ms after the hint, at most 3
   times. *)
let value = String.make 64 'v'
let key_slots = 1024
let max_redirects = 3
let redirect_backoff = Des.Time.ms 1

let record_latency t elapsed =
  let n = t.n_latencies in
  if n = Float.Array.length t.latencies then begin
    let bigger = Float.Array.create (Int.max 8 (2 * n)) in
    Float.Array.blit t.latencies 0 bigger 0 n;
    t.latencies <- bigger
  end;
  Float.Array.set t.latencies n (Des.Time.to_ms_f elapsed);
  t.n_latencies <- n + 1

(* A key's payload depends only on its slot, so it is encoded once and
   every later write of the key reuses it: the log, the wire and every
   replica's store then share one string per key. *)
let payload t slot =
  while slot >= Array.length t.payloads do
    let n = Array.length t.payloads in
    let bigger = Array.make (Int.min key_slots (Int.max 16 (2 * n))) "" in
    Array.blit t.payloads 0 bigger 0 n;
    t.payloads <- bigger
  done;
  let p = t.payloads.(slot) in
  if String.length p > 0 then p
  else begin
    let p = Command.client_put_payload ~client_id:t.client_id ~slot ~value in
    t.payloads.(slot) <- p;
    p
  end

let issue t =
  let seq = t.seq in
  t.seq <- seq + 1;
  t.offered <- t.offered + 1;
  let payload = payload t (seq mod key_slots) in
  let sent_at = Des.Engine.now t.engine in
  let on_result ~committed =
    if committed then begin
      t.completed <- t.completed + 1;
      (* Latency runs from the {e first} send, so redirect hops are
         charged to the request that needed them. *)
      record_latency t
        (Des.Time.diff (Des.Engine.now t.engine) sent_at + t.client_rtt)
    end
    else t.rejected <- t.rejected + 1
  in
  let rec attempt ~via ~hops =
    match via ~payload ~client_id:t.client_id ~seq ~on_result with
    | `Accepted -> ()
    | `Not_leader hint -> (
        t.redirected <- t.redirected + 1;
        match (t.route, hint) with
        | Some route, Some next when hops < max_redirects ->
            ignore
              (Des.Engine.schedule_after t.engine redirect_backoff
                 (fun () -> attempt ~via:(route next) ~hops:(hops + 1))
                : Des.Engine.handle)
        | _ -> t.abandoned <- t.abandoned + 1)
  in
  attempt ~via:t.target ~hops:0

(* Open-loop arrivals: each one issues a request and draws the gap to
   the next. *)
let rec schedule_next t =
  let gap = Stats.Dist.exponential t.rng ~rate:t.rate in
  Des.Engine.schedule_op_after t.engine (Des.Time.of_sec_f gap) t.arrival t ()
    0

and arrive t () (_ : int) =
  if t.running then begin
    issue t;
    schedule_next t
  end

let create ~engine ~target ~client_id ~rate ?(client_rtt = 0) ?route () =
  if not (Float.is_finite rate && rate > 0.) then
    invalid_arg "Client.create: rate must be finite and positive";
  {
    engine;
    arrival =
      Des.Engine.cached_op engine ~slot:Des.Engine.slot_client_arrival
        (fun () -> Des.Engine.register_op engine arrive);
    target;
    client_id;
    rate;
    client_rtt;
    route;
    rng =
      Stats.Rng.split_int
        (Stats.Rng.split (Des.Engine.rng engine) "kv-client")
        client_id;
    running = false;
    seq = 0;
    offered = 0;
    completed = 0;
    rejected = 0;
    redirected = 0;
    abandoned = 0;
    latencies = Float.Array.create 0;
    n_latencies = 0;
    payloads = [||];
  }

let start t =
  if not t.running then begin
    t.running <- true;
    schedule_next t
  end

let stop t =
  t.running <- false;
  t.payloads <- [||]
let offered t = t.offered
let completed t = t.completed
let rejected t = t.rejected
let redirected t = t.redirected
let abandoned t = t.abandoned
let latencies_ms t = List.init t.n_latencies (Float.Array.get t.latencies)
