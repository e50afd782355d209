let () =
  if Qcheck_case.random then
    Alcotest.run "dynatune-qcheck" [ ("properties", Qcheck_case.registered ()) ]
  else
    Alcotest.run "dynatune"
      [
        ("stats", Test_stats.tests);
        ("parallel", Test_parallel.tests);
        ("des", Test_des.tests);
        ("netsim", Test_netsim.tests);
        ("tuner", Test_tuner.tests);
        ("raft-log", Test_log.tests);
        ("raft-server", Test_server.tests);
        ("raft-server-ext", Test_server_ext.tests);
        ("raft-node", Test_node.tests);
        ("kvsm", Test_kvsm.tests);
        ("harness", Test_harness.tests);
        ("faults", Test_faults.tests);
        ("snapshots", Test_snapshot.tests);
        ("reads-transfer", Test_reads_transfer.tests);
        ("reconfig", Test_reconfig.tests);
        ("check", Test_check.tests);
        ("chaos", Test_chaos.tests);
        ("reproduction", Test_reproduction.tests);
        ("integration", Test_integration.tests);
        ("properties", Test_props.tests);
        ("misc", Test_misc.tests);
        ("telemetry", Test_telemetry.tests);
        ("analysis", Test_analysis.tests);
        ("forensics", Test_forensics.tests);
        ("multiraft", Test_multiraft.tests);
      ]
