(* Fluctuating WAN: watch Dynatune's election timeout follow the RTT as
   the network degrades and recovers (a miniature of Fig 6a).

     dune exec examples/fluctuating_wan.exe *)

module Cluster = Harness.Cluster
module Monitor = Harness.Monitor

let printf = Format.printf

let () =
  (* RTT climbs 50 -> 250 ms and back, 10 s per step. *)
  let hold = Des.Time.sec 10 in
  let up = List.init 5 (fun i -> 50. +. (50. *. float_of_int i)) in
  let rtts = up @ List.tl (List.rev up) in
  let conditions =
    Netsim.Conditions.rtt_staircase
      ~base:(Netsim.Conditions.profile ~rtt_ms:50. ~jitter:0.05 ())
      ~hold ~rtts_ms:rtts
  in
  let cluster =
    Cluster.create ~seed:3L ~n:5 ~config:(Raft.Config.dynatune ()) ~conditions
      ()
  in
  ignore (Cluster.boot cluster ~label:"fluctuating_wan" : Raft.Node.t);

  printf "RTT staircase: %s ms, %.0fs per step@."
    (String.concat " -> " (List.map (fun r -> Printf.sprintf "%.0f" r) rtts))
    (Des.Time.to_sec_f hold);
  printf "@.  %6s %10s %22s %14s@." "t(s)" "RTT(ms)" "majority randTO (ms)"
    "leader?";
  let duration = List.length rtts * hold in
  let samples =
    Monitor.watch cluster ~every:(Des.Time.sec 2) ~duration (fun c ->
        ( Monitor.gap (Monitor.majority_randomized_ms c),
          Monitor.has_leader c ))
  in
  List.iter
    (fun (t, (v, led)) ->
      let rtt =
        (Netsim.Conditions.at conditions (Des.Time.of_sec_f t))
          .Netsim.Conditions.rtt_ms
      in
      let bar =
        String.make (Stdlib.max 1 (int_of_float (v /. 25.))) '#'
      in
      printf "  %6.0f %10.0f %10.0f %s%s@." t rtt v
        (if led then "" else "[NO LEADER] ")
        bar)
    samples;
  printf
    "@.the timeout hugs the RTT curve: fast detection at low RTT, safety at \
     high RTT.@.static Raft would sit at ~1500ms throughout; Raft-Low \
     (Et=100ms) would lose the leader once RTT approaches 100ms.@."
