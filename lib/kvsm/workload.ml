type level_report = {
  offered_rps : float;
  offered : int;
  completed : int;
  throughput_rps : float;
  mean_latency_ms : float;
  p50_latency_ms : float;
  p99_latency_ms : float;
  redirected : int;
  abandoned : int;
}

let run_level ~engine ~target ?route ~rate ~hold ~client_rtt ~client_id () =
  let client =
    Client.create ~engine ~target ~client_id ~rate ?client_rtt:(Some client_rtt)
      ?route ()
  in
  Client.start client;
  Des.Engine.run_for engine hold;
  Client.stop client;
  let latencies = Stats.Summary.of_list (Client.latencies_ms client) in
  let window = Des.Time.to_sec_f hold in
  {
    offered_rps = rate;
    offered = Client.offered client;
    completed = Client.completed client;
    throughput_rps = float_of_int (Client.completed client) /. window;
    mean_latency_ms = Stats.Summary.mean latencies;
    p50_latency_ms = Stats.Summary.percentile latencies 50.;
    p99_latency_ms = Stats.Summary.percentile latencies 99.;
    redirected = Client.redirected client;
    abandoned = Client.abandoned client;
  }

let run_ramp ~engine ~target ?route ~rates ~hold ?(client_rtt = 0) () =
  List.mapi
    (fun i rate ->
      run_level ~engine ~target ?route ~rate ~hold ~client_rtt
        ~client_id:(i + 1) ())
    rates

let peak_throughput reports =
  List.fold_left
    (fun acc r -> if acc >= r.throughput_rps then acc else r.throughput_rps)
    0. reports

let saturation_rate reports =
  List.find_map
    (fun r ->
      if r.throughput_rps < 0.95 *. r.offered_rps then Some r.offered_rps
      else None)
    reports

let pp_report ppf r =
  Format.fprintf ppf
    "offered=%8.0f rps achieved=%8.1f rps latency mean=%7.2fms p50=%7.2fms \
     p99=%7.2fms"
    r.offered_rps r.throughput_rps r.mean_latency_ms r.p50_latency_ms
    r.p99_latency_ms
