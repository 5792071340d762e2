let () =
  Alcotest.run "dpmr"
    (Test_ir.suites @ Test_memsim.suites @ Test_vm.suites @ Test_shadow_type.suites @ Test_transform.suites @ Test_dsa.suites @ Test_wrappers.suites @ Test_faultinject.suites @ Test_workloads.suites @ Test_differential.suites @ Test_lowered.suites @ Test_fidelity.suites @ Test_rx.suites @ Test_text.suites @ Test_engine.suites @ Test_supervisor.suites @ Test_cache_concurrent.suites @ Test_server.suites @ Test_dispatch.suites @ Test_trace.suites @ Test_tier.suites @ Test_nversion.suites @ Test_transform_digests.suites)
