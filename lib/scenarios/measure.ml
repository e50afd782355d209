module Cluster = Harness.Cluster
module Fault = Harness.Fault

let failures ?(metrics = Telemetry.Metrics.noop) cluster ~quota =
  let m_attempts =
    Telemetry.Metrics.counter metrics ~scope:"measure" ~name:"attempts" ()
  and m_measured =
    Telemetry.Metrics.counter metrics ~scope:"measure" ~name:"measured" ()
  and m_errors =
    Telemetry.Metrics.counter metrics ~scope:"measure" ~name:"errors" ()
  in
  let outcomes = ref [] and measured = ref 0 and attempts = ref 0 in
  while !measured < quota && !attempts < 2 * quota do
    incr attempts;
    Telemetry.Metrics.Counter.incr m_attempts;
    match Fault.fail_and_measure cluster () with
    | Error _ ->
        Telemetry.Metrics.Counter.incr m_errors;
        (* Give the cluster a chance to re-stabilise before retrying. *)
        Cluster.run_for cluster (Des.Time.sec 5)
    | Ok o ->
        incr measured;
        Telemetry.Metrics.Counter.incr m_measured;
        outcomes := o :: !outcomes
  done;
  List.rev !outcomes
