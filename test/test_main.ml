let () =
  Alcotest.run "mtj"
    [
      ("core", Test_core.suite);
      ("machine", Test_machine.suite);
      ("rbigint", Test_rbigint.suite);
      ("rt", Test_rt.suite);
      ("gc", Test_gc.suite);
      ("rt-model", Test_rt_model.suite);
      ("pylite", Test_pylite.suite);
      ("rklite", Test_rklite.suite);
      ("pintool", Test_pintool.suite);
      ("annot-stream", Test_annot_stream.suite);
      ("jit-machinery", Test_jit_machinery.suite);
      ("jit-optimizer", Test_opt.suite);
      ("jit-executor", Test_executor.suite);
      ("jit-opt-property", Test_opt_prop.suite);
      ("jit-threaded-diff", Test_threaded_diff.suite);
      ("machine-property", Test_machine_prop.suite);
      ("charge-diff", Test_charge_diff.suite);
      ("dispatch-diff", Test_program_diff.dispatch_suite);
      ("tier-diff", Test_program_diff.tier_suite);
      ("jit-equivalence", Test_program_diff.py_suite);
      ("jit-equivalence-rk", Test_program_diff.rk_suite);
      ("obs", Test_obs.suite);
      ("lang-internals", Test_lang_internals.suite);
      ("error-paths", Test_errors.suite);
      ("pool", Test_pool.suite);
      ("serve-diff", Test_serve_diff.suite);
      ("value-diff", Test_value_diff.suite);
      ("value-repr-diff", Test_value_repr_diff.suite);
      ("integration", Test_integration.suite);
    ]
