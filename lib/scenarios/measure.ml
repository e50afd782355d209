module Cluster = Harness.Cluster
module Fault = Harness.Fault

type raw = {
  measured : int;
  detection : float list;
  majority : float list;
  ots : float list;
  randomized : float list;
  rounds : float list;
}

let empty =
  {
    measured = 0;
    detection = [];
    majority = [];
    ots = [];
    randomized = [];
    rounds = [];
  }

let failures ?(metrics = Telemetry.Metrics.noop) cluster ~quota =
  let m_attempts =
    Telemetry.Metrics.counter metrics ~scope:"measure" ~name:"attempts" ()
  and m_measured =
    Telemetry.Metrics.counter metrics ~scope:"measure" ~name:"measured" ()
  and m_errors =
    Telemetry.Metrics.counter metrics ~scope:"measure" ~name:"errors" ()
  in
  let detection = ref [] and majority = ref [] and ots = ref [] in
  let randomized = ref [] and rounds = ref [] in
  let measured = ref 0 and attempts = ref 0 in
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
        detection := o.Fault.detection_ms :: !detection;
        majority := o.Fault.majority_detection_ms :: !majority;
        ots := o.Fault.ots_ms :: !ots;
        randomized := o.Fault.randomized_at_detection_ms :: !randomized;
        rounds := float_of_int o.Fault.election_rounds :: !rounds
  done;
  {
    measured = !measured;
    detection = !detection;
    majority = !majority;
    ots = !ots;
    randomized = !randomized;
    rounds = !rounds;
  }

let merge parts =
  List.fold_left
    (fun acc p ->
      {
        measured = acc.measured + p.measured;
        detection = acc.detection @ p.detection;
        majority = acc.majority @ p.majority;
        ots = acc.ots @ p.ots;
        randomized = acc.randomized @ p.randomized;
        rounds = acc.rounds @ p.rounds;
      })
    empty parts
