(** Round-trip tests for the observability subsystem: record a real run
    through {!Mtj_obs.Sink}, export trace / metrics / timings JSON,
    re-parse the bytes with {!Mtj_obs.Json.parse} and check them with
    the same {!Mtj_obs.Validate} used by the CI artifact gate.  The key
    cross-layer assertion: per-phase self time recovered purely from the
    exported span stream equals what the machine counters attributed to
    each phase. *)

open Mtj_obs
module Engine = Mtj_machine.Engine
module Counters = Mtj_machine.Counters
module B = Mtj_benchmarks.Registry
module Phase = Mtj_core.Phase

type observed = {
  o_eng : Engine.t;
  o_sink : Sink.t;
  o_baseline : (Phase.t * Counters.snapshot) list;
  o_jitlog : Mtj_rjit.Jitlog.t;
  o_gc : Mtj_rt.Gc_sim.stats;
  o_hstats : Mtj_rt.Hstats.t;
  o_status : string;
}

let run_observed ?capacity ~budget name =
  let config =
    Mtj_core.Config.with_budget budget Mtj_core.Config.default
  in
  let b = B.find_exn ~lang:B.Py name in
  let vm = Mtj_pylite.Vm.create ~config () in
  let eng = Mtj_pylite.Vm.engine vm in
  let baseline =
    List.map (fun p -> (p, Counters.phase (Engine.counters eng) p)) Phase.all
  in
  let sink = Sink.attach ?capacity eng in
  let outcome = Mtj_pylite.Vm.run_source vm b.B.source in
  Sink.finalize sink;
  {
    o_eng = eng;
    o_sink = sink;
    o_baseline = baseline;
    o_jitlog = Mtj_pylite.Vm.jitlog vm;
    o_gc = Mtj_rt.Gc_sim.stats (Mtj_rt.Ctx.gc (Mtj_pylite.Vm.rtc vm));
    o_hstats = Mtj_rt.Ctx.hstats (Mtj_pylite.Vm.rtc vm);
    o_status =
      (match outcome with
      | Mtj_rjit.Driver.Completed _ -> "ok"
      | Mtj_rjit.Driver.Budget_exceeded -> "budget"
      | Mtj_rjit.Driver.Runtime_error e -> "failed: " ^ e);
  }

(* one shared jitting run, reused by several tests *)
let observed = lazy (run_observed ~budget:2_000_000 "binarytrees")

let parse_ok what s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" what e

let validated_trace o =
  let doc = Chrome_trace.export ~bench:"binarytrees" ~vm:"pylite" o.o_sink in
  let reparsed = parse_ok "trace json" (Json.to_string doc) in
  match Validate.trace reparsed with
  | Ok stats -> stats
  | Error e -> Alcotest.failf "trace validation: %s" e

(* --- chrome trace --- *)

let test_trace_roundtrip () =
  let o = Lazy.force observed in
  let stats = validated_trace o in
  Alcotest.(check bool) "has events" true (stats.Validate.events > 100);
  Alcotest.(check bool)
    "phases + jit-traces + gc tracks" true
    (stats.Validate.duration_tracks >= 3);
  Alcotest.(check bool)
    "at least two counter tracks" true
    (stats.Validate.counter_tracks >= 2);
  Alcotest.(check bool)
    "compile/abort/guard instants present" true
    (stats.Validate.instants > 0);
  Alcotest.(check int) "nothing dropped" 0 (Sink.dropped o.o_sink)

let test_phase_self_time_agrees () =
  let o = Lazy.force observed in
  let stats = validated_trace o in
  let counters = Engine.counters o.o_eng in
  let close a b =
    Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.max a b)
  in
  List.iter
    (fun p ->
      let name = Phase.name p in
      let base = List.assoc p o.o_baseline in
      let expected =
        (Counters.phase counters p).Counters.cycles -. base.Counters.cycles
      in
      let got =
        Option.value ~default:0.0
          (List.assoc_opt name stats.Validate.phase_self_cycles)
      in
      if not (close expected got) then
        Alcotest.failf "phase %s: span self-time %f <> counters %f" name got
          expected)
    Phase.all

let test_trace_has_jit_activity () =
  (* the span stream really carries the cross-layer story: binarytrees
     under the default config compiles traces and runs them *)
  let o = Lazy.force observed in
  let kinds = Hashtbl.create 8 in
  Sink.iter_events o.o_sink (fun e ->
      let k =
        match e.Sink.kind with
        | Sink.Phase_begin _ -> "phase_begin"
        | Sink.Phase_end _ -> "phase_end"
        | Sink.Trace_enter _ -> "trace_enter"
        | Sink.Trace_exit _ -> "trace_exit"
        | Sink.Guard_fail _ -> "guard_fail"
        | Sink.Trace_compile _ -> "trace_compile"
        | Sink.Trace_abort _ -> "trace_abort"
        | Sink.Marker _ -> "marker"
      in
      Hashtbl.replace kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k)));
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " recorded") true (Hashtbl.mem kinds k))
    [ "phase_begin"; "phase_end"; "trace_enter"; "trace_exit"; "trace_compile" ]

let test_overflow_still_wellformed () =
  (* a tiny ring drops the tail of the stream; the exporter must still
     produce balanced, validating output *)
  let o = run_observed ~capacity:64 ~budget:1_000_000 "richards" in
  Alcotest.(check bool) "events were dropped" true (Sink.dropped o.o_sink > 0);
  let stats = validated_trace o in
  Alcotest.(check bool)
    "open spans were auto-closed" true
    (stats.Validate.auto_closed > 0)

(* --- metrics --- *)

let test_metrics_roundtrip () =
  let o = Lazy.force observed in
  let run =
    Metrics.run_json ~bench:"binarytrees" ~config:"pypy" ~status:o.o_status
      ~engine:o.o_eng ~jitlog:o.o_jitlog ~gc:o.o_gc
      ~ticks:(Sink.ticks o.o_sink) ~hstats:o.o_hstats ()
  in
  let doc = Metrics.document ~runs:[ run ] () in
  let reparsed = parse_ok "metrics json" (Json.to_string ~indent:2 doc) in
  (match Validate.metrics reparsed with
  | Ok n -> Alcotest.(check int) "one run record" 1 n
  | Error e -> Alcotest.failf "metrics validation: %s" e);
  (* v2 cache-effectiveness counters survive the round trip verbatim *)
  let jit =
    match
      Option.bind (Json.member "runs" reparsed) (fun runs ->
          match Json.get_arr runs with
          | Some (r :: _) -> Json.member "jit" r
          | _ -> None)
    with
    | Some j -> j
    | None -> Alcotest.fail "jit block missing from reparsed metrics"
  in
  let jint key =
    match Option.bind (Json.member key jit) Json.get_int with
    | Some v -> v
    | None -> Alcotest.failf "jit.%s missing" key
  in
  Alcotest.(check int)
    "translations round-trips" o.o_jitlog.Mtj_rjit.Jitlog.translations
    (jint "translations");
  Alcotest.(check int)
    "code_cache_hits round-trips" o.o_jitlog.Mtj_rjit.Jitlog.code_cache_hits
    (jint "code_cache_hits");
  Alcotest.(check bool)
    "a jitting run reuses cached code" true
    (jint "code_cache_hits" > 0);
  (* v4 threaded-interpreter counters survive the round trip verbatim *)
  Alcotest.(check int)
    "interp_translations round-trips"
    o.o_jitlog.Mtj_rjit.Jitlog.interp_translations
    (jint "interp_translations");
  Alcotest.(check int)
    "threaded_code_hits round-trips"
    o.o_jitlog.Mtj_rjit.Jitlog.threaded_code_hits
    (jint "threaded_code_hits");
  Alcotest.(check bool)
    "default config translates interpreter code" true
    (jint "interp_translations" > 0);
  Alcotest.(check bool)
    "code switches hit the threaded cache" true
    (jint "threaded_code_hits" > 0);
  (* v5 host fast-path counters survive the round trip verbatim *)
  let rint key =
    match
      Option.bind (Json.member "runs" reparsed) (fun runs ->
          match Json.get_arr runs with
          | Some (r :: _) -> Option.bind (Json.member key r) Json.get_int
          | _ -> None)
    with
    | Some v -> v
    | None -> Alcotest.failf "run.%s missing" key
  in
  Alcotest.(check int)
    "imm_fast_path_hits round-trips"
    o.o_hstats.Mtj_rt.Hstats.imm_fast_path_hits
    (rint "imm_fast_path_hits");
  Alcotest.(check int)
    "boxed_slow_path_hits round-trips"
    o.o_hstats.Mtj_rt.Hstats.boxed_slow_path_hits
    (rint "boxed_slow_path_hits");
  Alcotest.(check int)
    "typed_ops_total round-trips" o.o_hstats.Mtj_rt.Hstats.typed_ops_total
    (rint "typed_ops_total");
  Alcotest.(check int)
    "frame_pool_reuses round-trips"
    o.o_hstats.Mtj_rt.Hstats.frame_pool_reuses
    (rint "frame_pool_reuses");
  Alcotest.(check int)
    "dict_hash_skips round-trips" o.o_hstats.Mtj_rt.Hstats.dict_hash_skips
    (rint "dict_hash_skips");
  (* integer arithmetic dominates every bench, so the immediate fast
     path always fires, and the two buckets partition the total *)
  Alcotest.(check bool)
    "immediate fast path is live" true
    (rint "imm_fast_path_hits" > 0);
  Alcotest.(check int)
    "imm + boxed = typed total"
    (rint "typed_ops_total")
    (rint "imm_fast_path_hits" + rint "boxed_slow_path_hits")

let test_runner_metrics_roundtrip () =
  (* the memoized-result path used by `bench --metrics-out` *)
  let r = Mtj_harness.Runner.run ~budget:1_000_000 "nbody" Mtj_harness.Runner.Pypy_jit in
  let doc =
    Metrics.document ~runs:[ Mtj_harness.Report.metrics_json r ] ()
  in
  let reparsed = parse_ok "runner metrics json" (Json.to_string doc) in
  (match Validate.metrics reparsed with
  | Ok n -> Alcotest.(check int) "one run record" 1 n
  | Error e -> Alcotest.failf "runner metrics validation: %s" e);
  (* v3 charging fast-path stats survive the round trip verbatim *)
  let rint key =
    match
      Option.bind (Json.member "runs" reparsed) (fun runs ->
          match Json.get_arr runs with
          | Some (first :: _) -> Option.bind (Json.member key first) Json.get_int
          | _ -> None)
    with
    | Some v -> v
    | None -> Alcotest.failf "run.%s missing" key
  in
  Alcotest.(check int)
    "charge_flushes round-trips" r.Mtj_harness.Runner.charge_flushes
    (rint "charge_flushes");
  Alcotest.(check int)
    "fast_path_bundles round-trips" r.Mtj_harness.Runner.fast_path_bundles
    (rint "fast_path_bundles");
  Alcotest.(check bool)
    "bundles dominate flushes on a real run" true
    (rint "fast_path_bundles" > rint "charge_flushes" && rint "charge_flushes" > 0);
  (* v8 host fast-path counters flow through the memoized-result path *)
  Alcotest.(check int)
    "imm_fast_path_hits round-trips" r.Mtj_harness.Runner.imm_fast_path_hits
    (rint "imm_fast_path_hits");
  Alcotest.(check int)
    "boxed_slow_path_hits round-trips"
    r.Mtj_harness.Runner.boxed_slow_path_hits
    (rint "boxed_slow_path_hits");
  Alcotest.(check int)
    "typed_ops_total round-trips" r.Mtj_harness.Runner.typed_ops_total
    (rint "typed_ops_total");
  Alcotest.(check int)
    "frame_pool_reuses round-trips" r.Mtj_harness.Runner.frame_pool_reuses
    (rint "frame_pool_reuses");
  Alcotest.(check int)
    "dict_hash_skips round-trips" r.Mtj_harness.Runner.dict_hash_skips
    (rint "dict_hash_skips");
  Alcotest.(check bool)
    "immediate fast path is live" true
    (rint "imm_fast_path_hits" > 0);
  Alcotest.(check int)
    "imm + boxed = typed total"
    (rint "typed_ops_total")
    (rint "imm_fast_path_hits" + rint "boxed_slow_path_hits")

(* --- bench timings --- *)

let test_timings_roundtrip () =
  let runs =
    [
      {
        Mtj_harness.Runner.rt_bench = "nbody";
        rt_config = Mtj_harness.Runner.Pypy_jit;
        rt_wall_s = 0.25;
        rt_insns = 123_456;
        rt_cycles = 98_765.4;
        rt_minor_words = 1_024.0;
      };
    ]
  in
  let doc =
    Mtj_harness.Report.timings_json ~jobs:4 ~total_wall:1.5
      ~experiments:[ ("prefetch", 1.0); ("tab1", 0.5) ]
      ~runs
  in
  let reparsed = parse_ok "timings json" (Json.to_string ~indent:2 doc) in
  match Validate.timings reparsed with
  | Ok n -> Alcotest.(check int) "one run row" 1 n
  | Error e -> Alcotest.failf "timings validation: %s" e

(* --- json parser --- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd\te");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("whole", Json.Float 3.0);
        ("nested", Json.Arr [ Json.Null; Json.Bool true; Json.Obj [] ]);
      ]
  in
  List.iter
    (fun indent ->
      match Json.parse (Json.to_string ?indent v) with
      | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
      | Error e -> Alcotest.fail e)
    [ None; Some 2 ]

let test_json_errors () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "parse accepted %S" s
    | Error _ -> ()
  in
  List.iter bad [ "{"; "[1,]"; "{\"a\" 1}"; "1 2"; "tru"; "\"unterminated"; "" ]

(* --- validator rejections --- *)

let test_validator_rejects_corruption () =
  let expect_err what = function
    | Ok _ -> Alcotest.failf "validator accepted %s" what
    | Error _ -> ()
  in
  (* wrong schema *)
  expect_err "wrong schema"
    (Validate.trace
       (Json.Obj [ ("schema", Json.Str "bogus/9"); ("traceEvents", Json.Arr []) ]));
  (* unbalanced E *)
  let ev ph name ts =
    Json.Obj
      [
        ("name", Json.Str name);
        ("cat", Json.Str "phase");
        ("ph", Json.Str ph);
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("ts", Json.Float ts);
        ("args", Json.Obj []);
      ]
  in
  let doc events =
    Json.Obj
      [ ("schema", Json.Str "mtj-trace/1"); ("traceEvents", Json.Arr events) ]
  in
  expect_err "E without B" (Validate.trace (doc [ ev "E" "x" 1.0 ]));
  expect_err "unclosed B" (Validate.trace (doc [ ev "B" "x" 1.0 ]));
  expect_err "time going backwards"
    (Validate.trace
       (doc [ ev "B" "x" 2.0; ev "E" "x" 1.0 ]));
  expect_err "mismatched close"
    (Validate.trace
       (doc [ ev "B" "x" 1.0; ev "B" "y" 2.0; ev "E" "x" 3.0; ev "E" "y" 4.0 ]));
  (* metrics: per-phase sum disagreeing with the total *)
  let snap insns =
    Json.Obj
      [
        ("insns", Json.Int insns);
        ("cycles", Json.Float 10.0);
        ("branches", Json.Int 1);
        ("branch_misses", Json.Int 0);
        ("loads", Json.Int 1);
        ("stores", Json.Int 0);
        ("cache_misses", Json.Int 0);
        ("ipc", Json.Float 1.0);
        ("branch_mpki", Json.Float 0.0);
        ("branch_miss_rate", Json.Float 0.0);
        ("cache_miss_rate", Json.Float 0.0);
      ]
  in
  let mdoc ?(flushes = 3) ?(bundles = 5) ?(imm = Json.Int 2)
      ?(boxed = Json.Int 1) ?(typed = Json.Int 3) ?(pooled = Json.Null)
      ?(hash_skips = Json.Int 0) total =
    Json.Obj
      [
        ("schema", Json.Str "mtj-metrics/9");
        ( "runs",
          Json.Arr
            [
              Json.Obj
                [
                  ("bench", Json.Str "b");
                  ("config", Json.Str "c");
                  ("status", Json.Str "ok");
                  ("insns", Json.Int total);
                  ("cycles", Json.Float 10.0);
                  ("charge_flushes", Json.Int flushes);
                  ("fast_path_bundles", Json.Int bundles);
                  ("imm_fast_path_hits", imm);
                  ("boxed_slow_path_hits", boxed);
                  ("typed_ops_total", typed);
                  ("frame_pool_reuses", pooled);
                  ("dict_hash_skips", hash_skips);
                  ( "phases",
                    Json.Obj
                      [ ("interpreter", snap 7); ("total", snap total) ] );
                ];
            ] );
      ]
  in
  (match Validate.metrics (mdoc 7) with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "expected 1 run, got %d" n
  | Error e -> Alcotest.failf "consistent metrics rejected: %s" e);
  expect_err "inconsistent phase sum" (Validate.metrics (mdoc 8));
  (* v3 charging fast-path invariants: the total snapshot carries a
     load, so a zero bundle count is impossible; and retired insns imply
     at least one staged-counter writeback *)
  expect_err "loads but no fast-path bundles"
    (Validate.metrics (mdoc ~bundles:0 7));
  expect_err "insns but no flushes" (Validate.metrics (mdoc ~flushes:0 7));
  expect_err "negative fast_path_bundles"
    (Validate.metrics (mdoc ~bundles:(-1) 7));
  (* v8 host fast-path counters: null is fine (native exporters), ints
     must be non-negative and bounded by the run's insn total, and the
     immediate/boxed split must partition the typed-op total *)
  (match
     Validate.metrics
       (mdoc ~imm:Json.Null ~boxed:Json.Null ~typed:Json.Null
          ~hash_skips:Json.Null 7)
   with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "expected 1 run, got %d" n
  | Error e -> Alcotest.failf "null hstats counters rejected: %s" e);
  expect_err "negative imm_fast_path_hits"
    (Validate.metrics (mdoc ~imm:(Json.Int (-1)) 7));
  expect_err "imm + boxed <> typed_ops_total"
    (Validate.metrics (mdoc ~imm:(Json.Int 2) ~boxed:(Json.Int 2) 7));
  expect_err "frame_pool_reuses exceeding insns"
    (Validate.metrics (mdoc ~pooled:(Json.Int 8) 7));
  expect_err "non-int dict_hash_skips"
    (Validate.metrics (mdoc ~hash_skips:(Json.Str "many") 7));
  (* jit block violating the v2 cache invariants *)
  let jdoc ?(itrans = 1) ?(ihits = 0) ?(retiers = 0) ?(t1c = 0) ?(t2c = 1)
      ?(demotions = 0) ?(first_entry = 5) ?(res_t2_entries = 1)
      ?(tr_deopts = 0) ?(shared_hits = 0) ?total_hits ?(cache_hits = 0)
      ?(seeded_sites = 0) translations trace_translations =
    Json.Obj
      [
        ("schema", Json.Str "mtj-metrics/9");
        ( "runs",
          Json.Arr
            [
              Json.Obj
                [
                  ("bench", Json.Str "b");
                  ("config", Json.Str "c");
                  ("status", Json.Str "ok");
                  ("insns", Json.Int 7);
                  ("cycles", Json.Float 10.0);
                  ("charge_flushes", Json.Int 3);
                  ("fast_path_bundles", Json.Int 5);
                  ("imm_fast_path_hits", Json.Int 2);
                  ("boxed_slow_path_hits", Json.Int 0);
                  ("typed_ops_total", Json.Int 2);
                  ("frame_pool_reuses", Json.Int 0);
                  ("dict_hash_skips", Json.Null);
                  ( "phases",
                    Json.Obj [ ("interpreter", snap 7); ("total", snap 7) ] );
                  ( "jit",
                    Json.Obj
                      [
                        ("num_traces", Json.Int 1);
                        ("translations", Json.Int translations);
                        ("code_cache_hits", Json.Int cache_hits);
                        ("shared_code_hits", Json.Int shared_hits);
                        ( "code_cache_total_hits",
                          Json.Int
                            (Option.value total_hits
                               ~default:(cache_hits + shared_hits)) );
                        ("interp_translations", Json.Int itrans);
                        ("threaded_code_hits", Json.Int ihits);
                        ("retiers", Json.Int retiers);
                        ("tier1_compiles", Json.Int t1c);
                        ("tier2_compiles", Json.Int t2c);
                        ("demotions", Json.Int demotions);
                        ("first_entry_insns", Json.Int first_entry);
                        ("seeded_sites", Json.Int seeded_sites);
                        ( "tier_residency",
                          Json.Obj
                            [
                              ("tier1_entries", Json.Int 0);
                              ("tier2_entries", Json.Int res_t2_entries);
                              ("tier1_dynamic_ir", Json.Int 0);
                              ("tier2_dynamic_ir", Json.Int 4);
                            ] );
                        ( "traces",
                          Json.Arr
                            [
                              Json.Obj
                                [
                                  ("id", Json.Int 1);
                                  ("tier", Json.Int 2);
                                  ("entries", Json.Int 1);
                                  ("dynamic_ir", Json.Int 4);
                                  ("translations", Json.Int trace_translations);
                                  ("cache_hits", Json.Int 0);
                                  ("deopts", Json.Int tr_deopts);
                                  ("bridges", Json.Int 0);
                                ];
                            ] );
                      ] );
                ];
            ] );
      ]
  in
  (match Validate.metrics (jdoc 1 1) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "well-formed jit block rejected: %s" e);
  expect_err "translations < num_traces" (Validate.metrics (jdoc 0 1));
  expect_err "untranslated trace row" (Validate.metrics (jdoc 1 0));
  (* v4 threaded-interpreter invariants *)
  (match Validate.metrics (jdoc ~itrans:2 ~ihits:5 1 1) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "well-formed threaded counters rejected: %s" e);
  expect_err "threaded hits without translations"
    (Validate.metrics (jdoc ~itrans:0 ~ihits:5 1 1));
  expect_err "negative interp_translations"
    (Validate.metrics (jdoc ~itrans:(-1) 1 1));
  (* v6 multi-tier invariants *)
  expect_err "tier compiles don't sum to num_traces"
    (Validate.metrics (jdoc ~t1c:1 1 1));
  expect_err "promotions exceeding tier1 compiles"
    (Validate.metrics (jdoc ~retiers:1 1 1));
  expect_err "demotions exceeding tier2 compiles"
    (Validate.metrics (jdoc ~demotions:2 1 1));
  expect_err "first_entry_insns past end of run"
    (Validate.metrics (jdoc ~first_entry:99 1 1));
  expect_err "first_entry_insns below -1"
    (Validate.metrics (jdoc ~first_entry:(-2) 1 1));
  expect_err "tier_residency disagreeing with trace rows"
    (Validate.metrics (jdoc ~res_t2_entries:5 1 1));
  expect_err "negative per-trace deopts"
    (Validate.metrics (jdoc ~tr_deopts:(-1) 1 1));
  (* v7 shared-cache split invariants *)
  (match Validate.metrics (jdoc ~shared_hits:3 1 1) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "well-formed shared-hit counters rejected: %s" e);
  expect_err "negative shared_code_hits"
    (Validate.metrics (jdoc ~shared_hits:(-1) ~total_hits:0 1 1));
  expect_err "total hits <> local + shared"
    (Validate.metrics (jdoc ~shared_hits:2 ~total_hits:5 1 1));
  expect_err "trace-row cache_hits sum <> code_cache_hits"
    (Validate.metrics (jdoc ~cache_hits:1 1 1));
  (* v9 profile-seeding counter *)
  expect_err "negative seeded_sites"
    (Validate.metrics (jdoc ~seeded_sites:(-1) 1 1));
  (* v7 serve block, with the v9 bounded-cache/seeding extensions *)
  let sdoc ?(p95 = 2.0) ?(warm = 6) ?(cold = 4) ?(shared = true)
      ?(shared_hits = 6) ?(misses = 4) ?(pubs = 2) ?(profile_seed = true)
      ?(capacity = 0) ?(quota = 0) ?(entries = 2) ?(n_seeded = 1)
      ?(evictions = 0) ?(requeues = 0) ?(quota_rej = 0) ?(profile_pubs = 2)
      ?(seeded_imports = 1) ?(zipf_s = 1.1) () =
    Json.Obj
      [
        ("schema", Json.Str "mtj-metrics/9");
        ("runs", Json.Arr []);
        ( "serve",
          Json.Obj
            [
              ("requests", Json.Int 10);
              ("jobs", Json.Int 2);
              ("zipf_s", Json.Float zipf_s);
              ("seed", Json.Int 42);
              ("shared_cache", Json.Bool shared);
              ("profile_seed", Json.Bool profile_seed);
              ("cache_capacity", Json.Int capacity);
              ("tenant_quota", Json.Int quota);
              ("corpus_size", Json.Int 6);
              ("cache_entries", Json.Int entries);
              ("budget", Json.Int 300_000);
              ("wall_s", Json.Float 0.5);
              ("throughput_rps", Json.Float 20.0);
              ( "latency_ms",
                Json.Obj
                  [
                    ("p50", Json.Float 1.0);
                    ("p95", Json.Float p95);
                    ("p99", Json.Float 3.0);
                  ] );
              ( "cold",
                Json.Obj
                  [ ("count", Json.Int cold); ("p50_ms", Json.Float 2.0) ] );
              ( "warm",
                Json.Obj
                  [ ("count", Json.Int warm); ("p50_ms", Json.Float 0.5) ] );
              ( "seeded",
                Json.Obj
                  [
                    ("count", Json.Int n_seeded);
                    ("first_entry_insns_mean", Json.Float 100.0);
                  ] );
              ("unseeded_first_entry_insns_mean", Json.Float 400.0);
              ( "shared_cache_stats",
                Json.Obj
                  [
                    ("shared_hits", Json.Int shared_hits);
                    ("local_hits", Json.Int 0);
                    ("misses", Json.Int misses);
                    ("publications", Json.Int pubs);
                    ("invalidations", Json.Int 0);
                    ("evictions", Json.Int evictions);
                    ("requeues", Json.Int requeues);
                    ("quota_rejections", Json.Int quota_rej);
                    ("profile_publications", Json.Int profile_pubs);
                    ("seeded_imports", Json.Int seeded_imports);
                    ("contention", Json.Int 0);
                  ] );
            ] );
      ]
  in
  (match Validate.metrics (sdoc ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "well-formed serve block rejected: %s" e);
  expect_err "unordered serve percentiles"
    (Validate.metrics (sdoc ~p95:9.0 ()));
  expect_err "non-positive zipf_s" (Validate.metrics (sdoc ~zipf_s:0.0 ()));
  expect_err "warm + cold <> requests" (Validate.metrics (sdoc ~warm:7 ()));
  expect_err "lookups <> requests"
    (Validate.metrics (sdoc ~warm:5 ~cold:5 ~shared_hits:5 ~misses:4 ()));
  expect_err "hits <> warm count"
    (Validate.metrics (sdoc ~warm:5 ~cold:5 ~shared_hits:6 ~misses:4 ()));
  expect_err "publications exceeding misses"
    (Validate.metrics (sdoc ~pubs:5 ~profile_pubs:0 ()));
  expect_err "cache counters nonzero with cache off"
    (Validate.metrics
       (sdoc ~shared:false ~warm:0 ~cold:10 ~n_seeded:0 ~seeded_imports:0
          ~profile_pubs:0 ()));
  (* v9 bounded-cache / seeding invariants *)
  (match
     Validate.metrics
       (sdoc ~capacity:4 ~quota:1 ~entries:3 ~evictions:1 ~requeues:1
          ~quota_rej:1 ~pubs:2 ~misses:4 ())
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "well-formed bounded-cache block rejected: %s" e);
  expect_err "cache_entries past capacity"
    (Validate.metrics (sdoc ~capacity:2 ~entries:3 ()));
  expect_err "evictions exceeding publications"
    (Validate.metrics (sdoc ~capacity:4 ~evictions:3 ()));
  expect_err "eviction on an unbounded cache"
    (Validate.metrics (sdoc ~evictions:1 ()));
  expect_err "quota rejection with no quota"
    (Validate.metrics (sdoc ~quota_rej:1 ()));
  expect_err "quota rejections past the miss count"
    (Validate.metrics (sdoc ~quota:1 ~quota_rej:3 ()));
  expect_err "profile_publications exceeding publications"
    (Validate.metrics (sdoc ~profile_pubs:3 ()));
  expect_err "seeded_imports exceeding hits"
    (Validate.metrics (sdoc ~seeded_imports:7 ()));
  expect_err "seeded requests exceeding seeded_imports"
    (Validate.metrics (sdoc ~n_seeded:2 ~seeded_imports:1 ()));
  expect_err "seeding counters with profile_seed off"
    (Validate.metrics (sdoc ~profile_seed:false ()))

let suite =
  [
    Alcotest.test_case "trace round-trip + validate" `Quick
      test_trace_roundtrip;
    Alcotest.test_case "phase self-time = counters" `Quick
      test_phase_self_time_agrees;
    Alcotest.test_case "jit events in the stream" `Quick
      test_trace_has_jit_activity;
    Alcotest.test_case "ring overflow stays well-formed" `Quick
      test_overflow_still_wellformed;
    Alcotest.test_case "metrics round-trip + validate" `Quick
      test_metrics_roundtrip;
    Alcotest.test_case "runner metrics round-trip" `Quick
      test_runner_metrics_roundtrip;
    Alcotest.test_case "timings round-trip + validate" `Quick
      test_timings_roundtrip;
    Alcotest.test_case "json print/parse round-trip" `Quick
      test_json_roundtrip;
    Alcotest.test_case "json parse errors" `Quick test_json_errors;
    Alcotest.test_case "validator rejects corruption" `Quick
      test_validator_rejects_corruption;
  ]
