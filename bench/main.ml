(* Benchmark harness entry point.

   With no arguments (or "all"), regenerates every table and figure of
   the paper from live simulated runs.  Individual experiments can be
   selected by name; "bechamel" runs wall-clock micro-benchmarks of the
   simulation substrate itself.

   The run matrix executes on a pool of worker domains: -j N (or
   MTJ_JOBS) selects the worker count, defaulting to what the hardware
   recommends, capped at the matrix size.  Table/figure output is
   byte-identical at any -j; --tier-policy rebinds the pypy/pycket rows
   (and so moves their simulated numbers); --timings FILE additionally
   writes a machine-readable JSON report of per-run and per-experiment
   wall-clock. *)

module E = Mtj_harness.Experiments
module R = Mtj_harness.Runner

(* --- bechamel micro-benchmarks of the substrate --- *)

let bechamel () =
  let open Bechamel in
  let open Toolkit in
  let pylite_src =
    "def f(n):\n    s = 0\n    for i in range(n):\n        s = s + i * i\n    return s\nprint(f(2000))\n"
  in
  let run_pylite jit () =
    let config =
      Mtj_core.Config.with_budget 30_000_000
        (if jit then Mtj_core.Config.default else Mtj_core.Config.no_jit)
    in
    ignore (Mtj_pylite.Vm.run ~config pylite_src)
  in
  let bigint () =
    let a = Mtj_rt.Rbigint.of_string "123456789012345678901234567890" in
    let b = Mtj_rt.Rbigint.of_string "98765432109876543210" in
    ignore (Mtj_rt.Rbigint.divmod (Mtj_rt.Rbigint.mul a b) b)
  in
  let predictor () =
    let p = Mtj_machine.Predictor.create () in
    for i = 0 to 999 do
      ignore (Mtj_machine.Predictor.conditional p ~site:(i land 15) ~taken:(i mod 3 <> 0))
    done
  in
  let engine () =
    let e = Mtj_machine.Engine.create () in
    let c = Mtj_core.Cost.make ~alu:4 ~load:2 ~store:1 () in
    for i = 0 to 999 do
      Mtj_machine.Engine.emit e c;
      Mtj_machine.Engine.branch e ~site:7 ~taken:(i land 3 <> 0)
    done
  in
  let tests =
    [
      Test.make ~name:"pylite-interp-run" (Staged.stage (run_pylite false));
      Test.make ~name:"pylite-jit-run" (Staged.stage (run_pylite true));
      Test.make ~name:"rbigint-mul-divmod" (Staged.stage bigint);
      Test.make ~name:"predictor-1k-branches" (Staged.stage predictor);
      Test.make ~name:"engine-1k-bundles" (Staged.stage engine);
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      (Instance.monotonic_clock) results
  in
  List.iter
    (fun t ->
      let results = benchmark (Test.make_grouped ~name:"g" [ t ]) in
      let res = analyze results in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] ->
              Printf.printf "%-28s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-28s (no estimate)\n" name)
        res)
    tests

(* --- serving mode: the shared JIT code cache and profile seeding --- *)

(* Host wall-clock comparison of a serving session across the three
   cache modes — off, shared bundles only, shared bundles + trace-
   profile seeding — on the same seeded workload.  Like "bechamel",
   this row reports real wall time, so it is selected by name and not
   part of "all" (whose output is byte-pinned). *)
let serve_bench ?(zipf_s = 1.1) ?(corpus_size = 0) () =
  let module S = Mtj_harness.Serve in
  let requests = 1000 in
  let off = S.serve ~shared:false ~zipf_s ~corpus_size ~requests () in
  let unseeded =
    S.serve ~shared:true ~profile_seed:false ~zipf_s ~corpus_size ~requests ()
  in
  let seeded =
    S.serve ~shared:true ~profile_seed:true ~zipf_s ~corpus_size ~requests ()
  in
  Printf.printf
    "serving: %d requests, %d jobs, zipf_s=%.2f seed=%d corpus=%d, budget %d \
     insns/request\n\n"
    requests seeded.S.sv_jobs seeded.S.sv_zipf_s seeded.S.sv_seed
    seeded.S.sv_corpus_size seeded.S.sv_budget;
  Printf.printf "%-22s %12s %12s %12s %12s %12s\n" "mode" "wall s"
    "req/s" "p50 ms" "p95 ms" "p99 ms";
  let row name (s : S.summary) =
    Printf.printf "%-22s %12.3f %12.1f %12.3f %12.3f %12.3f\n" name s.S.sv_wall_s
      s.S.sv_throughput s.S.sv_p50_ms s.S.sv_p95_ms s.S.sv_p99_ms
  in
  row "cache off" off;
  row "cache on" unseeded;
  row "cache on + seeding" seeded;
  Printf.printf
    "\nseeded session: %d cold (compile; p50 %.3f ms), %d warm (import; \
     p50 %.3f ms), %d profile-seeded\n"
    seeded.S.sv_cold seeded.S.sv_cold_p50_ms seeded.S.sv_warm
    seeded.S.sv_warm_p50_ms seeded.S.sv_seeded;
  Printf.printf
    "simulated insns to first trace entry: %.0f seeded vs %.0f unseeded \
     (same session) vs %.0f with seeding off\n"
    seeded.S.sv_seeded_first_entry_mean seeded.S.sv_unseeded_first_entry_mean
    unseeded.S.sv_unseeded_first_entry_mean;
  let c = seeded.S.sv_cache in
  Printf.printf
    "shared cache: %d hits, %d misses, %d publications, %d profiles \
     attached, %d seeded imports, %d lock contentions\n"
    (c.Mtj_rjit.Sharedcache.shared_hits + c.Mtj_rjit.Sharedcache.local_hits)
    c.Mtj_rjit.Sharedcache.misses c.Mtj_rjit.Sharedcache.publications
    c.Mtj_rjit.Sharedcache.profile_publications
    c.Mtj_rjit.Sharedcache.seeded_imports c.Mtj_rjit.Sharedcache.contention;
  if off.S.sv_wall_s > 0.0 then
    Printf.printf "session speedup from sharing: %.2fx (seeded %.2fx)\n"
      (off.S.sv_wall_s /. unseeded.S.sv_wall_s)
      (off.S.sv_wall_s /. seeded.S.sv_wall_s)

(* --- argument handling --- *)

let usage () =
  print_endline
    "usage: main.exe [-j N] [--tier-policy optimizing|baseline|adaptive] \
     [--zipf-alpha S] [--corpus-size N] \
     [--timings FILE] [--metrics-out FILE] \
     [all | bechamel | serve | <experiment> ...]";
  print_endline "experiments:";
  List.iter
    (fun (e : E.experiment) ->
      Printf.printf "  %-10s %s\n" e.E.ex_name e.E.ex_doc)
    E.registry

type parsed = {
  names : string list;  (* in command-line order *)
  run_all : bool;
  jobs : int option;
  tier_policy : Mtj_core.Config.tier_policy option;
  zipf_s : float option;       (* "serve" workload knobs *)
  corpus_size : int option;
  timings_file : string option;
  metrics_file : string option;
  help : bool;
}

let parse_args argv =
  let rec go acc = function
    | [] -> Ok acc
    | ("-j" | "--jobs") :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> go { acc with jobs = Some n } rest
        | _ -> Error (Printf.sprintf "bad job count %S" v))
    | [ ("-j" | "--jobs") ] -> Error "-j requires an argument"
    | "--tier-policy" :: v :: rest -> (
        match Mtj_core.Config.tier_policy_of_string v with
        | Some p -> go { acc with tier_policy = Some p } rest
        | None -> Error (Printf.sprintf "bad --tier-policy value %S" v))
    | [ "--tier-policy" ] ->
        Error "--tier-policy requires optimizing|baseline|adaptive"
    | ("--zipf-alpha" | "--zipf-s") :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when Float.is_finite s && s > 0.0 ->
            go { acc with zipf_s = Some s } rest
        | _ ->
            Error
              (Printf.sprintf "bad --zipf-alpha value %S (want finite > 0)" v))
    | [ ("--zipf-alpha" | "--zipf-s") ] ->
        Error "--zipf-alpha requires a positive exponent"
    | "--corpus-size" :: v :: rest -> (
        let corpus_len = List.length Mtj_harness.Serve.default_corpus in
        match int_of_string_opt v with
        | Some n when n >= 0 && n <= corpus_len ->
            go { acc with corpus_size = Some n } rest
        | _ ->
            Error
              (Printf.sprintf "bad --corpus-size value %S (want 0..%d)" v
                 corpus_len))
    | [ "--corpus-size" ] -> Error "--corpus-size requires an argument"
    | "--timings" :: f :: rest -> go { acc with timings_file = Some f } rest
    | [ "--timings" ] -> Error "--timings requires an argument"
    | "--metrics-out" :: f :: rest -> go { acc with metrics_file = Some f } rest
    | [ "--metrics-out" ] -> Error "--metrics-out requires an argument"
    | ("help" | "--help" | "-h") :: rest -> go { acc with help = true } rest
    | "all" :: rest -> go { acc with run_all = true } rest
    | name :: _ when String.length name > 0 && name.[0] = '-' ->
        Error (Printf.sprintf "unknown option %S" name)
    | name :: rest -> go { acc with names = acc.names @ [ name ] } rest
  in
  go
    { names = []; run_all = false; jobs = None; tier_policy = None;
      zipf_s = None; corpus_size = None; timings_file = None;
      metrics_file = None; help = false }
    argv

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  match parse_args argv with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      usage ();
      exit 2
  | Ok { help = true; _ } -> usage ()
  | Ok p ->
      Option.iter R.set_jobs p.jobs;
      Option.iter R.set_tier_policy p.tier_policy;
      (* validate every requested name before running anything *)
      let unknown =
        List.filter
          (fun n -> n <> "bechamel" && n <> "serve" && E.find n = None)
          p.names
      in
      if unknown <> [] then begin
        List.iter
          (fun n -> Printf.eprintf "unknown experiment %S\n" n)
          unknown;
        usage ();
        exit 2
      end;
      let t_start = Unix.gettimeofday () in
      let exp_walls = ref [] in
      let timed name f =
        let t0 = Unix.gettimeofday () in
        f ();
        exp_walls := (name, Unix.gettimeofday () -. t0) :: !exp_walls
      in
      if p.run_all || p.names = [] then begin
        print_endline
          "Cross-Layer Workload Characterization of Meta-Tracing JIT VMs";
        print_endline
          "(OCaml reproduction; times are simulated megacycles, see DESIGN.md)";
        timed "prefetch" (fun () -> E.prefetch_for E.registry);
        List.iter
          (fun (e : E.experiment) -> timed e.E.ex_name e.E.ex_render)
          E.registry
      end
      else begin
        (* one parallel prefetch wave over the union of the requested
           experiments' matrices, then render each in order *)
        let exps = List.filter_map E.find p.names in
        if exps <> [] then
          timed "prefetch" (fun () -> E.prefetch_for exps);
        List.iter
          (fun name ->
            if name = "bechamel" then timed name bechamel
            else if name = "serve" then
              timed name (fun () ->
                  serve_bench ?zipf_s:p.zipf_s ?corpus_size:p.corpus_size ())
            else
              match E.find name with
              | Some e -> timed name e.E.ex_render
              | None -> assert false)
          p.names
      end;
      (match p.timings_file with
      | None -> ()
      | Some file ->
          Mtj_harness.Report.write_timings ~file ~jobs:(R.jobs ())
            ~total_wall:(Unix.gettimeofday () -. t_start)
            ~experiments:(List.rev !exp_walls));
      match p.metrics_file with
      | None -> ()
      | Some file ->
          (* every cached run, in the stable (bench, config) order of the
             timing report *)
          let results =
            List.map
              (fun (rt : R.run_timing) -> R.run rt.R.rt_bench rt.R.rt_config)
              (R.run_timings ())
          in
          Mtj_harness.Report.write_metrics ~file results
