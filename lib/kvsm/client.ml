type submit_result = [ `Accepted | `Not_leader of Netsim.Node_id.t option ]

type target =
  payload:string ->
  client_id:int ->
  seq:int ->
  on_result:(committed:bool -> unit) ->
  submit_result

type t = {
  engine : Des.Engine.t;
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
}

(* Every request writes a 64-byte value; a redirected one is re-sent
   1 ms after the hint, at most 3 times. *)
let value = String.make 64 'v'
let max_redirects = 3
let redirect_backoff = Des.Time.ms 1

let create ~engine ~target ~client_id ~rate ?(client_rtt = 0) ?route () =
  if rate <= 0. then invalid_arg "Client.create: rate must be positive";
  {
    engine;
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
  }

let record_latency t elapsed =
  let n = t.n_latencies in
  if n = Float.Array.length t.latencies then begin
    let bigger = Float.Array.create (Stdlib.max 8 (2 * n)) in
    Float.Array.blit t.latencies 0 bigger 0 n;
    t.latencies <- bigger
  end;
  Float.Array.set t.latencies n (Des.Time.to_ms_f elapsed);
  t.n_latencies <- n + 1

let issue t =
  let seq = t.seq in
  t.seq <- seq + 1;
  t.offered <- t.offered + 1;
  let payload =
    Command.client_put_payload ~client_id:t.client_id ~slot:(seq mod 1024)
      ~value
  in
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

let rec schedule_next t =
  let gap = Stats.Dist.exponential t.rng ~rate:t.rate in
  ignore
    (Des.Engine.schedule_after t.engine (Des.Time.of_sec_f gap) (fun () ->
         if t.running then begin
           issue t;
           schedule_next t
         end)
      : Des.Engine.handle)

let start t =
  if not t.running then begin
    t.running <- true;
    schedule_next t
  end

let stop t = t.running <- false
let offered t = t.offered
let completed t = t.completed
let rejected t = t.rejected
let redirected t = t.redirected
let abandoned t = t.abandoned
let latencies_ms t = List.init t.n_latencies (Float.Array.get t.latencies)
