(* Coverage for the remaining public surfaces: Rpc rendering, cost
   model accounting, config validation, report/workload printers, and
   small stats/des corners not exercised elsewhere. *)

module Time = Des.Time

let asprintf = Format.asprintf

(* {2 Types / Rpc} *)

let test_role_helpers () =
  Alcotest.(check bool) "leader" true (Raft.Types.is_leader Raft.Types.Leader);
  List.iter
    (fun r -> Alcotest.(check bool) "not leader" false (Raft.Types.is_leader r))
    [ Raft.Types.Follower; Raft.Types.Pre_candidate; Raft.Types.Candidate ];
  Alcotest.(check string) "names" "pre-candidate"
    (Raft.Types.role_name Raft.Types.Pre_candidate)

let all_messages : Raft.Rpc.message list =
  [
    Raft.Rpc.Vote_request
      { term = 1; last_log_index = 2; last_log_term = 1; pre_vote = true; force = false };
    Raft.Rpc.Vote_request
      { term = 1; last_log_index = 2; last_log_term = 1; pre_vote = false; force = false };
    Raft.Rpc.Vote_response { term = 1; granted = true; pre_vote = true };
    Raft.Rpc.Vote_response { term = 1; granted = false; pre_vote = false };
    Raft.Rpc.Append_request
      {
        term = 1;
        prev_index = 0;
        prev_term = 0;
        entries = [||];
        commit = 0;
        ar_gen = 0;
      };
    Raft.Rpc.Append_response
      {
        term = 1;
        success = true;
        match_index = 4;
        conflict_hint = 0;
        req_prev = 0;
        ap_gen = 0;
      };
    Raft.Rpc.Heartbeat
      {
        term = 1;
        commit = 0;
        hb_id = 3;
        sent_at = 0;
        measured_rtt = None;
        hb_gen = 0;
      };
    Raft.Rpc.Heartbeat_response
      { term = 1; hb_id = 3; echo_sent_at = 0; tuned_h = None; hr_gen = 0 };
  ]

let test_rpc_kind_names () =
  let names = List.map Raft.Rpc.kind_name all_messages in
  Alcotest.(check (list string)) "tags"
    [
      "prevote_req"; "vote_req"; "prevote_resp"; "vote_resp"; "append_req";
      "append_resp"; "hb"; "hb_resp";
    ]
    names

let test_rpc_pp_total () =
  List.iter
    (fun m ->
      let rendered = asprintf "%a" Raft.Rpc.pp m in
      Alcotest.(check bool) "non-empty rendering" true
        (String.length rendered > 3))
    all_messages

let test_probe_pp_total () =
  let id = Netsim.Node_id.of_int 2 in
  List.iter
    (fun p ->
      Alcotest.(check bool) "non-empty" true
        (String.length (asprintf "%a" Raft.Probe.pp p) > 2))
    [
      Raft.Probe.Role_change { id; role = Raft.Types.Leader; term = 3 };
      Raft.Probe.Timeout_expired
        {
          id;
          term = 3;
          randomized = Time.ms 120;
          et = Time.ms 100;
          h = Time.ms 50;
          k = 2;
        };
      Raft.Probe.Tuner_decision
        {
          id;
          rtt_ms = 99.4;
          rtt_std_ms = 1.2;
          loss = 0.01;
          k = 2;
          et = Time.ms 140;
          h = Time.ms 60;
          reason = Raft.Probe.Warmed;
        };
      Raft.Probe.Pre_vote_aborted { id; term = 3 };
      Raft.Probe.Tuner_reset { id };
      Raft.Probe.Election_started { id; term = 4 };
      Raft.Probe.Node_paused { id };
      Raft.Probe.Node_resumed { id };
    ]

(* {2 Cost model} *)

let test_cost_model_zero_is_free () =
  List.iter
    (fun m ->
      Alcotest.(check int) "recv free" 0
        (Raft.Cost_model.message_recv_cost Raft.Cost_model.zero
           ~tuning_active:true m);
      Alcotest.(check int) "send free" 0
        (Raft.Cost_model.message_send_cost Raft.Cost_model.zero
           ~tuning_active:true m))
    all_messages

let test_cost_model_tuning_surcharge () =
  let c = Raft.Cost_model.etcd_like in
  let hb =
    Raft.Rpc.Heartbeat
      {
        term = 1;
        commit = 0;
        hb_id = 3;
        sent_at = 0;
        measured_rtt = None;
        hb_gen = 0;
      }
  in
  let base = Raft.Cost_model.message_recv_cost c ~tuning_active:false hb in
  let tuned = Raft.Cost_model.message_recv_cost c ~tuning_active:true hb in
  Alcotest.(check int) "tuning surcharge"
    c.Raft.Cost_model.tuning_overhead (tuned - base);
  (* Appends are not surcharged: tuning works on heartbeats only. *)
  let ap =
    Raft.Rpc.Append_request
      {
        term = 1;
        prev_index = 0;
        prev_term = 0;
        entries = [||];
        commit = 0;
        ar_gen = 0;
      }
  in
  Alcotest.(check int) "append unaffected"
    (Raft.Cost_model.message_recv_cost c ~tuning_active:false ap)
    (Raft.Cost_model.message_recv_cost c ~tuning_active:true ap)

let test_cost_model_per_entry () =
  let c = Raft.Cost_model.etcd_like in
  let entry i = { Raft.Log.term = 1; index = i; command = Raft.Log.Noop } in
  let ap n =
    Raft.Rpc.Append_request
      {
        term = 1;
        prev_index = 0;
        prev_term = 0;
        entries = Array.init n (fun i -> entry (i + 1));
        commit = 0;
        ar_gen = 0;
      }
  in
  let cost n =
    Raft.Cost_model.message_send_cost c ~tuning_active:false (ap n)
  in
  Alcotest.(check int) "linear in entries"
    (10 * c.Raft.Cost_model.append_entry)
    (cost 10 - cost 0)

(* {2 Raft.Config} *)

let test_config_validation () =
  let bad =
    {
      (Raft.Config.static ()) with
      Raft.Config.heartbeat_interval = Time.ms 1000;
      election_timeout = Time.ms 1000;
    }
  in
  (match Raft.Config.validate bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "h >= Et must be rejected");
  match Raft.Config.validate (Raft.Config.dynatune ()) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "dynatune default invalid: %s" m

let test_config_mode_names () =
  Alcotest.(check string) "raft" "raft"
    (Raft.Config.mode_name (Raft.Config.static ()));
  Alcotest.(check string) "raft-low" "raft-low"
    (Raft.Config.mode_name (Raft.Config.raft_low ()));
  Alcotest.(check string) "dynatune" "dynatune"
    (Raft.Config.mode_name (Raft.Config.dynatune ()));
  Alcotest.(check string) "fix-k" "fix-k"
    (Raft.Config.mode_name (Raft.Config.fix_k ~k:10 ()))

let test_config_fix_k_rejects_nonpositive () =
  Alcotest.(check bool) "k=0 rejected" true
    (try
       ignore (Raft.Config.fix_k ~k:0 ());
       false
     with Invalid_argument _ -> true)

let test_config_bases () =
  let d = Raft.Config.dynatune () in
  Alcotest.(check int) "dynatune base Et is the fallback" (Time.ms 1000)
    (Raft.Config.election_timeout_base d);
  Alcotest.(check int) "dynatune base h is the fallback" (Time.ms 100)
    (Raft.Config.heartbeat_interval_base d);
  let low = Raft.Config.raft_low () in
  Alcotest.(check int) "raft-low base" (Time.ms 100)
    (Raft.Config.election_timeout_base low)

(* {2 Report} *)

let test_report_float_cell () =
  Alcotest.(check string) "nan renders as dash" "-"
    (String.trim (Scenarios.Report.float_cell nan));
  Alcotest.(check string) "number" "12.3"
    (String.trim (Scenarios.Report.float_cell 12.34))

let test_report_renders () =
  let s = Stats.Summary.of_list [ 1.; 2.; 3. ] in
  let out =
    asprintf "%a"
      (fun ppf () ->
        Scenarios.Report.banner ppf "Title";
        Scenarios.Report.subhead ppf "sub";
        Scenarios.Report.kv ppf "key" "value";
        Scenarios.Report.summary_row ppf ~label:"lbl" s;
        Scenarios.Report.cdf_table ppf ~label:"p" ~series:[ ("a", s) ]
          ~points:4;
        Scenarios.Report.series_table ppf ~time_label:"t"
          ~columns:[ ("c1", [ (0., 1.); (1., 2.) ]) ];
        Scenarios.Report.intervals ppf ~label:"gaps"
          [ (Time.sec 1, Time.sec 2) ])
      ()
  in
  let contains needle =
    let nl = String.length needle and hl = String.length out in
    let rec go i = i + nl <= hl && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains needle))
    [ "Title"; "sub"; "key"; "lbl"; "gaps" ]

(* Columns sampled at different instants still line up: a column with
   no point at a row's instant renders [-] in its own cell.  Indexing
   cells by row position (the old bug) paired unrelated instants. *)
let test_report_series_table_ragged () =
  let out =
    asprintf "%a"
      (fun ppf () ->
        Scenarios.Report.series_table ppf ~time_label:"t"
          ~columns:
            [
              ("left", [ (0., 1.); (10., 2.) ]);
              ("right", [ (0., 5.); (5., 6.); (10., 7.) ]);
            ])
      ()
  in
  let lines =
    String.split_on_char '\n' out
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun l ->
           String.split_on_char ' ' l |> List.filter (fun w -> w <> ""))
  in
  Alcotest.(check (list (list string)))
    "rows are the union of instants; gaps render as -"
    [
      [ "t"; "left"; "right" ];
      [ "0"; "1.0"; "5.0" ];
      [ "5"; "-"; "6.0" ];
      [ "10"; "2.0"; "7.0" ];
    ]
    lines

(* {2 Workload} *)

let test_workload_empty () =
  Alcotest.(check (float 1e-9)) "empty peak" 0.
    (Kvsm.Workload.peak_throughput []);
  Alcotest.(check bool) "no saturation" true
    (Kvsm.Workload.saturation_rate [] = None)

(* {2 Time formatting} *)

let test_time_pp () =
  Alcotest.(check string) "seconds" "1.500s" (asprintf "%a" Time.pp (Time.of_ms_f 1500.));
  Alcotest.(check string) "milliseconds" "237.1ms"
    (asprintf "%a" Time.pp_ms (Time.of_ms_f 237.1))

(* {2 Server misc} *)

let test_server_rejects_self_peer () =
  let id = Netsim.Node_id.of_int 0 in
  Alcotest.(check bool) "self in peers rejected" true
    (try
       ignore
         (Raft.Server.create ~id ~peers:[ id ] ~config:(Raft.Config.static ())
            ~rng:(Stats.Rng.create ()) ());
       false
     with Invalid_argument _ -> true)

let test_single_node_cluster_self_elects () =
  let s =
    Raft.Server.create
      ~id:(Netsim.Node_id.of_int 0)
      ~peers:[] ~config:(Raft.Config.static ())
      ~rng:(Stats.Rng.create ~seed:5L ())
      ()
  in
  ignore (Raft.Server.start s);
  ignore (Raft.Server.handle s ~now:Time.zero Raft.Server.Election_timeout_fired);
  Alcotest.(check bool) "instant self-election" true
    (Raft.Types.is_leader (Raft.Server.role s));
  (* Proposals commit without any network. *)
  let acts =
    Raft.Server.handle s ~now:(Time.ms 1)
      (Raft.Server.Propose { payload = "p"; client_id = 1; seq = 1 })
  in
  let committed =
    List.exists
      (function
        | Raft.Server.Commit es -> Array.length es > 0
        | _ -> false)
      acts
  in
  Alcotest.(check bool) "commits alone" true committed

let tests =
  [
    Alcotest.test_case "types: role helpers" `Quick test_role_helpers;
    Alcotest.test_case "rpc: kind names" `Quick test_rpc_kind_names;
    Alcotest.test_case "rpc: pp total" `Quick test_rpc_pp_total;
    Alcotest.test_case "probe: pp total" `Quick test_probe_pp_total;
    Alcotest.test_case "cost: zero is free" `Quick test_cost_model_zero_is_free;
    Alcotest.test_case "cost: tuning surcharge" `Quick
      test_cost_model_tuning_surcharge;
    Alcotest.test_case "cost: per-entry" `Quick test_cost_model_per_entry;
    Alcotest.test_case "config: validation" `Quick test_config_validation;
    Alcotest.test_case "config: mode names" `Quick test_config_mode_names;
    Alcotest.test_case "config: fix_k bounds" `Quick
      test_config_fix_k_rejects_nonpositive;
    Alcotest.test_case "config: base parameters" `Quick test_config_bases;
    Alcotest.test_case "report: float cell" `Quick test_report_float_cell;
    Alcotest.test_case "report: renders" `Quick test_report_renders;
    Alcotest.test_case "report: ragged series table" `Quick
      test_report_series_table_ragged;
    Alcotest.test_case "workload: empty" `Quick test_workload_empty;
    Alcotest.test_case "time: pp" `Quick test_time_pp;
    Alcotest.test_case "server: rejects self peer" `Quick
      test_server_rejects_self_peer;
    Alcotest.test_case "server: single-node self-election" `Quick
      test_single_node_cluster_self_elects;
  ]
