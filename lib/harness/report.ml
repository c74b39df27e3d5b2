module J = Mtj_obs.Json
module Metrics = Mtj_obs.Metrics
module Counters = Mtj_machine.Counters
module R = Runner

(* --- percentiles (exact nearest-rank) --- *)

(* The p-th percentile by the nearest-rank definition: the smallest
   sample whose cumulative rank is >= ceil(p/100 * n).  Exact (no
   interpolation), so reported latencies are always observed samples —
   the convention serving-latency dashboards use.  p50 of [|1.;2.;3.;4.|]
   is 2., p100 is the maximum, p of a singleton is that sample. *)
let percentile (xs : float array) (p : float) : float =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Report.percentile: empty sample set";
  if not (p > 0. && p <= 100.) then
    invalid_arg "Report.percentile: p must be in (0, 100]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  sorted.(min (n - 1) (max 0 (rank - 1)))

(* --- bench timings ("mtj-bench-timings/2") --- *)

let timings_json ~jobs ~total_wall ~experiments ~runs =
  J.Obj
    [
      ("schema", J.Str "mtj-bench-timings/2");
      ("jobs", J.Int jobs);
      ("total_wall_s", J.Float total_wall);
      ( "experiments",
        J.Arr
          (List.map
             (fun (name, wall) ->
               J.Obj [ ("name", J.Str name); ("wall_s", J.Float wall) ])
             experiments) );
      ( "runs",
        J.Arr
          (List.map
             (fun (rt : R.run_timing) ->
               J.Obj
                 [
                   ("bench", J.Str rt.R.rt_bench);
                   ("config", J.Str (R.config_name rt.R.rt_config));
                   ("wall_s", J.Float rt.R.rt_wall_s);
                   ("insns", J.Int rt.R.rt_insns);
                   ("cycles", J.Float rt.R.rt_cycles);
                   ("minor_words", J.Float rt.R.rt_minor_words);
                 ])
             runs) );
    ]

let write_timings ~file ~jobs ~total_wall ~experiments =
  J.write_file ~indent:2 ~file
    (timings_json ~jobs ~total_wall ~experiments ~runs:(R.run_timings ()));
  Printf.eprintf "[timings written to %s]\n%!" file

(* --- metrics ("mtj-metrics/11") --- *)

let status_name = function
  | R.Ok_run -> "ok"
  | R.Hit_budget -> "budget"
  | R.Failed _ -> "failed"

let jit_json (j : R.jit_stats) =
  J.Obj
    [
      ("num_traces", J.Int j.R.traces);
      ("aborts", J.Int j.R.aborts);
      ("deopts", J.Int j.R.deopts);
      ("bridges_attached", J.Int j.R.bridges);
      ("blacklisted", J.Int j.R.blacklisted);
      ("retiers", J.Int j.R.retiers);
      ("translations", J.Int j.R.translations);
      ("code_cache_hits", J.Int j.R.code_cache_hits);
      ("shared_code_hits", J.Int j.R.shared_code_hits);
      ( "code_cache_total_hits",
        J.Int (j.R.code_cache_hits + j.R.shared_code_hits) );
      ("interp_translations", J.Int j.R.interp_translations);
      ("threaded_code_hits", J.Int j.R.threaded_code_hits);
      ("tier1_compiles", J.Int j.R.tier1_compiles);
      ("tier2_compiles", J.Int j.R.tier2_compiles);
      ("demotions", J.Int j.R.demotions);
      ("first_entry_insns", J.Int j.R.first_entry_insns);
      ("seeded_sites", J.Int j.R.seeded_sites);
      ( "tier_residency",
        J.Obj
          [
            ("tier1_entries", J.Int j.R.tier1_entries);
            ("tier2_entries", J.Int j.R.tier2_entries);
            ("tier1_dynamic_ir", J.Int j.R.tier1_dynamic_ir);
            ("tier2_dynamic_ir", J.Int j.R.tier2_dynamic_ir);
          ] );
      ("total_ir_compiled", J.Int j.R.ir_compiled);
      ("total_dynamic_ir", J.Int j.R.ir_dynamic);
      ( "traces",
        J.Arr
          (List.map
             (fun (tr : R.trace_row) ->
               J.Obj
                 [
                   ("id", J.Int tr.R.tr_id);
                   ("kind", J.Str tr.R.tr_kind);
                   ("tier", J.Int tr.R.tr_tier);
                   ("loop_code", J.Int tr.R.tr_loop_code);
                   ("static_ops", J.Int tr.R.tr_static_ops);
                   ("entries", J.Int tr.R.tr_entries);
                   ("dynamic_ir", J.Int tr.R.tr_dynamic_ir);
                   ("translations", J.Int tr.R.tr_translations);
                   ("cache_hits", J.Int tr.R.tr_cache_hits);
                   ("deopts", J.Int tr.R.tr_deopts);
                   ("bridges", J.Int tr.R.tr_bridges);
                 ])
             j.R.trace_rows) );
    ]

let metrics_json (r : R.result) =
  let phase_rows =
    List.filter_map
      (fun (p, s) ->
        if s.Counters.insns = 0 then None
        else Some (Mtj_core.Phase.name p, Metrics.snapshot_json s))
      r.R.per_phase
  in
  J.Obj
    [
      ("bench", J.Str r.R.bench_name);
      ("config", J.Str (R.config_name r.R.config));
      ("status", J.Str (status_name r.R.status));
      ("insns", J.Int r.R.insns);
      ("cycles", J.Float r.R.cycles);
      ("ticks", J.Int r.R.ticks);
      ("charge_flushes", J.Int r.R.charge_flushes);
      ("fast_path_bundles", J.Int r.R.fast_path_bundles);
      ("imm_fast_path_hits", J.Int r.R.imm_fast_path_hits);
      ("boxed_slow_path_hits", J.Int r.R.boxed_slow_path_hits);
      ("typed_ops_total", J.Int r.R.typed_ops_total);
      ( "phases",
        J.Obj (phase_rows @ [ ("total", Metrics.snapshot_json r.R.total) ]) );
      ("gc", Metrics.gc_json r.R.gc);
      ("jit", match r.R.jit with Some j -> jit_json j | None -> J.Null);
    ]

let write_metrics ~file results =
  Metrics.write ~file ~runs:(List.map metrics_json results) ();
  Printf.eprintf "[metrics written to %s]\n%!" file
