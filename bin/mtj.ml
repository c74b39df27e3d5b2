(* The mtj command-line tool.

   Subcommands:
     list              enumerate the benchmark registry
     run               run a benchmark (or source file) under a VM config,
                       with phase breakdown and JIT statistics
     trace             dump the compiled JIT traces of a run under a VM
                       config, or export its timeline and counters
     serve             multi-tenant serving mode: stream a seeded Zipf mix
                       of short requests onto worker domains, with the
                       cross-context shared JIT code cache on or off
     exec              execute a pylite / rklite source file and print its
                       program output *)

open Cmdliner
module R = Mtj_harness.Runner
module B = Mtj_benchmarks.Registry

let config_conv =
  let parse s =
    match s with
    | "cpython" -> Ok R.Cpython
    | "pypy-nojit" -> Ok R.Pypy_nojit
    | "pypy" -> Ok R.Pypy_jit
    | "pypy-2tier" -> Ok R.Pypy_tiered
    | "pypy-1tier" -> Ok R.Pypy_baseline
    | "racket" -> Ok R.Racket
    | "pycket-nojit" -> Ok R.Pycket_nojit
    | "pycket" -> Ok R.Pycket_jit
    | "c" -> Ok R.Native_c
    | other -> Error (`Msg ("unknown VM config: " ^ other))
  in
  Arg.conv (parse, fun fmt c -> Format.pp_print_string fmt (R.config_name c))

(* --- list --- *)

let list_cmd =
  let doc = "List the benchmark registry" in
  let run () =
    Printf.printf "%-20s %-4s %-6s %s\n" "name" "lang" "suite" "regime";
    Printf.printf "%s\n" (String.make 90 '-');
    List.iter
      (fun (b : B.bench) ->
        Printf.printf "%-20s %-4s %-6s %s\n" b.B.name
          (Mtj_harness.Hosted.name b.B.lang)
          (match b.B.suite with B.Pypy_suite -> "pypy" | B.Clbg -> "clbg")
          b.B.regime)
      B.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- run --- *)

let bench_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK")

let benches_arg =
  Arg.(non_empty & pos_all string [] & info [] ~docv:"BENCHMARK")

let jobs_arg =
  Arg.(value & opt int 0
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"worker domains for multi-benchmark runs (0 = auto: \
                 \\$(b,MTJ_JOBS) or the hardware's recommended count)")

let config_arg =
  Arg.(value & opt config_conv R.Pypy_jit & info [ "vm" ] ~docv:"VM"
         ~doc:"VM configuration: cpython, pypy-nojit, pypy, pypy-2tier, \
               pypy-1tier, racket, pycket-nojit, pycket, c")

let budget_arg =
  Arg.(value & opt int R.default_budget
       & info [ "budget" ] ~docv:"INSNS" ~doc:"instruction budget")

let tier_policy_arg =
  let policy =
    Arg.enum
      (List.map
         (fun p -> (Mtj_core.Config.tier_policy_name p, p))
         Mtj_core.Config.all_tier_policies)
  in
  Arg.(value & opt (some policy) None
       & info [ "tier-policy" ] ~docv:"POLICY"
           ~doc:"trace-compilation tier policy: $(b,optimizing) compiles \
                 every trace through the full optimizer (the default), \
                 $(b,baseline) compiles cheap unoptimized traces early and \
                 never promotes, $(b,adaptive) starts at the baseline tier \
                 and promotes hot guard-stable traces (demoting them again \
                 if bridges proliferate)")

let apply_tier_policy = function Some p -> R.set_tier_policy p | None -> ()

let show_output_arg =
  Arg.(value & flag & info [ "output" ] ~doc:"print the program's output")

let print_result (r : R.result) show_output =
  Printf.printf "benchmark: %s   vm: %s\n" r.R.bench_name
    (R.config_name r.R.config);
  Printf.printf "status:    %s\n"
    (match r.R.status with
    | R.Ok_run -> "completed"
    | R.Hit_budget -> "stopped at instruction budget"
    | R.Failed e -> "FAILED: " ^ e);
  Printf.printf "instructions: %d   cycles: %.0f   IPC: %.2f   MPKI: %.1f\n"
    r.R.insns r.R.cycles (R.ipc r) (R.mpki r);
  Printf.printf "work (dispatch ticks): %d\n" r.R.ticks;
  Printf.printf "\nphases:\n";
  List.iter
    (fun (p, n) ->
      if n > 0 then
        Printf.printf "  %-12s %10d  (%.1f%%)\n" (Mtj_core.Phase.name p) n
          (100.0 *. R.phase_fraction r p))
    r.R.phase_insns;
  (match r.R.jit with
  | Some j when j.R.traces > 0 ->
      Printf.printf
        "\njit: %d traces (%d bridges), %d deopts, %d aborts, %d IR compiled, \
         hot-95%% = %.1f%%\n"
        j.R.traces j.R.bridges j.R.deopts j.R.aborts j.R.ir_compiled
        j.R.hot_fraction_95
  | _ -> ());
  let g = r.R.gc in
  Printf.printf
    "gc: %d minor, %d major, %d objects allocated, %d freed, %d promoted\n"
    g.Mtj_rt.Gc_sim.minor_collections g.Mtj_rt.Gc_sim.major_collections
    g.Mtj_rt.Gc_sim.allocated_objects g.Mtj_rt.Gc_sim.freed_objects
    g.Mtj_rt.Gc_sim.promoted_objects;
  if r.R.aot_top <> [] then begin
    Printf.printf "\ntop AOT functions called from JIT code:\n";
    List.iteri
      (fun i (src, name, insns) ->
        if i < 6 then
          Printf.printf "  %4.1f%%  %s  %s\n"
            (100.0 *. float_of_int insns /. float_of_int (max 1 r.R.insns))
            src name)
      r.R.aot_top
  end;
  if show_output then begin
    Printf.printf "\nprogram output:\n%s" r.R.output
  end

let run_cmd =
  let doc =
    "Run benchmarks under a VM configuration (several benchmarks run in \
     parallel on worker domains; results print in argument order)"
  in
  let run names vm budget jobs show_output tier_policy =
    apply_tier_policy tier_policy;
    if jobs > 0 then R.set_jobs jobs;
    (* fill the cache in parallel; a benchmark that fails to run is
       reported per-name below, after the others have completed *)
    (try R.prefetch ~budget (List.map (fun n -> (n, vm)) names)
     with Invalid_argument _ -> ());
    let ok = ref true in
    List.iteri
      (fun i name ->
        if i > 0 then print_newline ();
        match R.run ~budget name vm with
        | r ->
            print_result r show_output;
            (match r.R.status with R.Failed _ -> ok := false | _ -> ())
        | exception Invalid_argument msg ->
            ok := false;
            Printf.eprintf "error: %s\n" msg)
      names;
    if not !ok then exit 1
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ benches_arg $ config_arg $ budget_arg $ jobs_arg
      $ show_output_arg $ tier_policy_arg)

(* --- trace --- *)

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"record the run's cross-layer event stream and write it as \
                 Chrome trace-event JSON (load in Perfetto or \
                 chrome://tracing)")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"write the run's per-phase and per-trace counters as \
                 versioned JSON")

let trace_cmd =
  let doc =
    "Dump the JIT traces compiled for a benchmark, or (with \
     $(b,--trace-out)/$(b,--metrics-out)) export the run's timeline and \
     counters as JSON"
  in
  let run name vm budget trace_out metrics_out tier_policy =
    apply_tier_policy tier_policy;
    let fail msg =
      Printf.eprintf "error: %s\n" msg;
      exit 1
    in
    let lang =
      match R.lang_of vm with
      | Some lang -> lang
      | None -> fail (R.config_name vm ^ " runs no hosted VM to trace")
    in
    let b = try B.find_exn ~lang name with Invalid_argument msg -> fail msg in
    let observing = trace_out <> None || metrics_out <> None in
    let (module V : Mtj_harness.Hosted.VM) = Mtj_harness.Hosted.vm lang in
    let v =
      V.create ~config:(R.config_of ~budget vm) ~profile:(R.profile_of vm) ()
    in
    let eng = V.engine v in
    let sink = if observing then Some (Mtj_obs.Sink.attach eng) else None in
    let outcome = V.run_source v b.B.source in
    let jl = V.jitlog v and rtc = V.rtc v in
    let header = R.config_name vm in
    Option.iter Mtj_obs.Sink.finalize sink;
    (match (trace_out, sink) with
    | Some file, Some s ->
        Mtj_obs.Chrome_trace.write ~bench:name ~vm:header ~file s;
        Printf.eprintf "[trace written to %s]\n%!" file
    | _ -> ());
    (match metrics_out with
    | Some file ->
        let run_record =
          Mtj_obs.Metrics.run_json ~bench:name ~config:header
            ~status:(R.status_name (R.status_of outcome))
            ~engine:eng ~jitlog:jl
            ~gc:(Mtj_rt.Gc_sim.stats (Mtj_rt.Ctx.gc rtc)) ()
        in
        Mtj_obs.Metrics.write ~file ~runs:[ run_record ] ();
        Printf.eprintf "[metrics written to %s]\n%!" file
    | None -> ());
    if not observing then begin
      Printf.printf "%s: %d traces, %d aborts, %d deopts\n\n" header
        (Mtj_rjit.Jitlog.num_traces jl)
        jl.Mtj_rjit.Jitlog.aborts jl.Mtj_rjit.Jitlog.deopts;
      List.iter
        (fun (tr : Mtj_rjit.Ir.trace) ->
          Printf.printf "=== trace %d  %s  ops=%d  entries=%d\n" tr.trace_id
            (match tr.kind with
            | Mtj_rjit.Ir.Loop { loop_code; loop_pc } ->
                Printf.sprintf "loop code=%d pc=%d" loop_code loop_pc
            | Mtj_rjit.Ir.Bridge { from_guard; _ } ->
                Printf.sprintf "bridge from guard %d" from_guard)
            (Array.length tr.ops) tr.exec_count;
          Array.iteri
            (fun i (op : Mtj_rjit.Ir.op) ->
              Printf.printf "%4d [%9d] %s%s\n" i tr.op_exec.(i)
                (if i = tr.loop_start && tr.loop_start > 0 then "LOOP: "
                 else "")
                (Format.asprintf "%a" Mtj_rjit.Ir.pp_op op))
            tr.ops;
          print_newline ())
        (Mtj_rjit.Jitlog.traces jl)
    end
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ bench_arg $ config_arg $ budget_arg $ trace_out_arg
      $ metrics_out_arg $ tier_policy_arg)

(* --- serve --- *)

let serve_cmd =
  let doc =
    "Multi-tenant serving mode: stream many short VM requests (mixed \
     pylite/rklite tenants, Zipf-distributed over the registry) onto a \
     fixed pool of worker domains, with an optional shared, domain-safe \
     cache of compiled-program bundles"
  in
  let requests_arg =
    Arg.(value & opt int 2000
         & info [ "requests" ] ~docv:"N" ~doc:"requests in the session")
  in
  let zipf_arg =
    Arg.(value & opt float 1.1
         & info [ "zipf-s"; "zipf-alpha" ] ~docv:"S"
             ~doc:"Zipf popularity exponent of the tenant program mix \
                   (weight of rank r is 1/r^S)")
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"workload seed; the request stream is a pure function \
                   of (corpus, requests, zipf-s, seed)")
  in
  let shared_arg =
    let mode = Arg.enum [ ("on", true); ("off", false) ] in
    Arg.(value & opt mode true
         & info [ "shared-cache" ] ~docv:"on|off"
             ~doc:"cross-context shared JIT code cache: compile each \
                   (program, config) once process-wide and import the \
                   bundle on later requests; simulated counters are \
                   identical either way, only host wall time changes")
  in
  let serve_budget_arg =
    Arg.(value & opt int Mtj_harness.Serve.default_budget
         & info [ "budget" ] ~docv:"INSNS"
             ~doc:"per-request instruction budget (serving requests are \
                   short by design)")
  in
  let profile_seed_arg =
    let mode = Arg.enum [ ("on", true); ("off", false) ] in
    Arg.(value & opt mode true
         & info [ "profile-seed" ] ~docv:"on|off"
             ~doc:"trace-profile seeding: publishers attach the trace \
                   profile their run learned and warm requests seed \
                   their JIT from it, so hot loops tier up on first \
                   entry; program outputs are identical either way, \
                   simulated JIT counters legitimately differ")
  in
  let cache_capacity_arg =
    Arg.(value & opt int 0
         & info [ "cache-capacity" ] ~docv:"N"
             ~doc:"bound the shared cache to N entries with per-shard \
                   LRU eviction (0 = unbounded)")
  in
  let tenant_quota_arg =
    Arg.(value & opt int 0
         & info [ "tenant-quota" ] ~docv:"N"
             ~doc:"bound any one tenant to N live published entries \
                   (0 = unbounded)")
  in
  let corpus_size_arg =
    Arg.(value & opt int 0
         & info [ "corpus-size" ] ~docv:"N"
             ~doc:"draw requests from only the first N corpus programs \
                   (0 = the whole corpus)")
  in
  let run requests jobs zipf_s seed shared profile_seed cache_capacity
      tenant_quota corpus_size budget metrics_out tier_policy =
    if requests < 1 then begin
      Printf.eprintf "mtj: --requests must be >= 1 (got %d)\n" requests;
      exit 2
    end;
    if budget < 1 then begin
      Printf.eprintf "mtj: --budget must be >= 1 (got %d)\n" budget;
      exit 2
    end;
    if not (Float.is_finite zipf_s && zipf_s > 0.0) then begin
      Printf.eprintf "mtj: --zipf-s must be finite and > 0 (got %g)\n" zipf_s;
      exit 2
    end;
    if cache_capacity < 0 then begin
      Printf.eprintf "mtj: --cache-capacity must be >= 0 (got %d)\n"
        cache_capacity;
      exit 2
    end;
    if tenant_quota < 0 then begin
      Printf.eprintf "mtj: --tenant-quota must be >= 0 (got %d)\n" tenant_quota;
      exit 2
    end;
    let corpus_len = List.length Mtj_harness.Serve.default_corpus in
    if corpus_size < 0 || corpus_size > corpus_len then begin
      Printf.eprintf "mtj: --corpus-size must be in 0..%d (got %d)\n"
        corpus_len corpus_size;
      exit 2
    end;
    apply_tier_policy tier_policy;
    if jobs > 0 then R.set_jobs jobs;
    let s =
      Mtj_harness.Serve.serve ~budget ~zipf_s ~seed ~shared ~profile_seed
        ~cache_capacity ~tenant_quota ~corpus_size ~requests ()
    in
    Mtj_harness.Serve.print_summary stdout s;
    match metrics_out with
    | None -> ()
    | Some file ->
        Mtj_obs.Metrics.write ~file ~runs:[]
          ~serve:(Mtj_harness.Serve.summary_json s) ();
        Printf.eprintf "[metrics written to %s]\n%!" file
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ requests_arg $ jobs_arg $ zipf_arg $ seed_arg $ shared_arg
      $ profile_seed_arg $ cache_capacity_arg $ tenant_quota_arg
      $ corpus_size_arg $ serve_budget_arg $ metrics_out_arg
      $ tier_policy_arg)

(* --- exec --- *)

let exec_cmd =
  let doc = "Execute a pylite (.py) or rklite (.rkt/.scm) source file" in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let nojit_arg =
    Arg.(value & flag & info [ "no-jit" ] ~doc:"disable the meta-tracing JIT")
  in
  let run file nojit budget tier_policy =
    apply_tier_policy tier_policy;
    let src = In_channel.with_open_text file In_channel.input_all in
    let config =
      R.config_of ~budget (if nojit then R.Pypy_nojit else R.Pypy_jit)
    in
    let lang =
      if Filename.check_suffix file ".rkt" || Filename.check_suffix file ".scm"
      then B.Rk
      else B.Py
    in
    let (module V : Mtj_harness.Hosted.VM) = Mtj_harness.Hosted.vm lang in
    let vm = V.create ~config () in
    let outcome =
      (* a frontend error, like a runtime error, fails the command *)
      try V.run_source vm src with
      | Mtj_pylite.Lexer.Syntax_error msg
      | Mtj_pylite.Compiler.Compile_error msg
      | Mtj_rklite.Reader.Syntax_error msg
      | Mtj_rklite.Kcompiler.Compile_error msg ->
          Printf.eprintf "error: %s: %s\n" file msg;
          exit 1
    in
    print_string (V.output vm);
    let label =
      match outcome with
      | Mtj_rjit.Driver.Completed _ -> "ok"
      | Mtj_rjit.Driver.Budget_exceeded -> "budget exceeded"
      | Mtj_rjit.Driver.Runtime_error e -> "error: " ^ e
    in
    Printf.eprintf "[%s; %d simulated instructions]\n" label
      (Mtj_machine.Engine.total_insns (V.engine vm));
    (* a budget stop is a clean end; a runtime error fails the command *)
    match outcome with Mtj_rjit.Driver.Runtime_error _ -> exit 1 | _ -> ()
  in
  Cmd.v (Cmd.info "exec" ~doc)
    Term.(
      const run $ file_arg $ nojit_arg $ budget_arg $ tier_policy_arg)

let () =
  let doc = "meta-tracing JIT workload characterization tools" in
  let info = Cmd.info "mtj" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; trace_cmd; serve_cmd; exec_cmd ]))
