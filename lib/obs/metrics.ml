open Mtj_core
module Counters = Mtj_machine.Counters
module Engine = Mtj_machine.Engine

(* v2: per-trace rows gained [translations]/[cache_hits] and the jit
   block gained [translations]/[code_cache_hits] (threaded-code cache
   effectiveness).
   v3: run records gained [charge_flushes]/[fast_path_bundles] — the
   engine's staged charging fast path exposes how many bundles were
   coalesced and how many counter writebacks that took.
   v4: the jit block gained [interp_translations]/[threaded_code_hits] —
   the threaded interpreter tier's translate-once cache (code objects
   translated to handler-closure arrays, and code switches served from
   the cache).
   v5: run records gained [value_interned_hits], a frame-pool reuse
   count and [dict_hash_skips] — the allocation-free value fast paths
   (small-int interning, frame pooling, precomputed key hashes);
   host-side counters, invisible to the simulated machine.
   v6: the jit block gained the multi-tier counters
   [tier1_compiles]/[tier2_compiles]/[demotions]/[first_entry_insns]
   and the per-tier residency block [tier_residency]
   (entries/dynamic_ir per tier); trace rows gained
   [deopts]/[bridges].
   v7: the jit block gained [shared_code_hits] (code objects imported
   from the cross-context shared cache instead of compiled locally —
   serving mode) and the derived [code_cache_total_hits] =
   code_cache_hits + shared_code_hits; documents gained an optional
   top-level [serve] block (latency percentiles, warm/cold split and
   shared-cache counters of a serving session).
   v8: run records replaced [value_interned_hits] with the
   immediate-representation counters [imm_fast_path_hits]/
   [boxed_slow_path_hits]/[typed_ops_total] — typed arithmetic entries
   that stayed on the unboxed immediate path vs. fell through to a
   boxed slow path (floats, bigints, strings, overflow); the two always
   sum to the total.  Host-side counters, invisible to the simulated
   machine.
   v9: the jit block gained [seeded_sites] (loop sites seeded from an
   imported trace profile — serving mode); the serve block gained the
   seeding/bounded-cache session knobs ([profile_seed],
   [cache_capacity], [tenant_quota], [corpus_size]), the warmup
   comparison ([seeded] count + first-entry-insns means) and
   [cache_entries]; [shared_cache_stats] gained
   [evictions]/[requeues]/[quota_rejections]/[profile_publications]/
   [seeded_imports].
   v10: run records dropped [dict_hash_skips] with the precomputed
   key-hash probes it counted.
   v11: run records dropped the frame-pool reuse count with the frame
   pool it counted; every frame takes fresh arrays.
   v12: run records dropped the last five host counters,
   [charge_flushes]/[fast_path_bundles] with the staged charging path
   and [imm_fast_path_hits]/[boxed_slow_path_hits]/[typed_ops_total];
   a run record holds only what the simulated machine determined. *)
let schema = "mtj-metrics/12"

let snapshot_json (s : Counters.snapshot) =
  let cache_miss_rate =
    let mem = s.Counters.loads + s.Counters.stores in
    if mem = 0 then 0.0
    else float_of_int s.Counters.cache_misses /. float_of_int mem
  in
  Json.Obj
    [
      ("insns", Json.Int s.Counters.insns);
      ("cycles", Json.Float s.Counters.cycles);
      ("branches", Json.Int s.Counters.branches);
      ("branch_misses", Json.Int s.Counters.branch_misses);
      ("loads", Json.Int s.Counters.loads);
      ("stores", Json.Int s.Counters.stores);
      ("cache_misses", Json.Int s.Counters.cache_misses);
      ("ipc", Json.Float (Counters.ipc s));
      ("branch_mpki", Json.Float (Counters.branch_mpki s));
      ("branch_miss_rate", Json.Float (Counters.branch_miss_rate s));
      ("cache_miss_rate", Json.Float cache_miss_rate);
    ]

let phases_json (c : Counters.t) =
  let rows =
    List.filter_map
      (fun p ->
        let s = Counters.phase c p in
        if s.Counters.insns = 0 then None
        else Some (Phase.name p, snapshot_json s))
      Phase.all
  in
  Json.Obj (rows @ [ ("total", snapshot_json (Counters.total c)) ])

let gc_json (g : Mtj_rt.Gc_sim.stats) =
  Json.Obj
    [
      ("minor_collections", Json.Int g.Mtj_rt.Gc_sim.minor_collections);
      ("major_collections", Json.Int g.Mtj_rt.Gc_sim.major_collections);
      ("allocated_objects", Json.Int g.Mtj_rt.Gc_sim.allocated_objects);
      ("allocated_words", Json.Int g.Mtj_rt.Gc_sim.allocated_words);
      ("promoted_objects", Json.Int g.Mtj_rt.Gc_sim.promoted_objects);
      ("freed_objects", Json.Int g.Mtj_rt.Gc_sim.freed_objects);
    ]

let trace_row_json (tr : Mtj_rjit.Ir.trace) =
  let open Mtj_rjit in
  let kind, loop_code =
    match tr.Ir.kind with
    | Ir.Loop { loop_code; _ } -> ("loop", loop_code)
    | Ir.Bridge { loop_code; _ } -> ("bridge", loop_code)
  in
  let dynamic_ir = Array.fold_left ( + ) 0 tr.Ir.op_exec in
  Json.Obj
    [
      ("id", Json.Int tr.Ir.trace_id);
      ("kind", Json.Str kind);
      ("tier", Json.Int tr.Ir.tier);
      ("loop_code", Json.Int loop_code);
      ("static_ops", Json.Int (Array.length tr.Ir.ops));
      ("entries", Json.Int tr.Ir.exec_count);
      ("dynamic_ir", Json.Int dynamic_ir);
      ("translations", Json.Int tr.Ir.translations);
      ("cache_hits", Json.Int tr.Ir.cache_hits);
      ("deopts", Json.Int tr.Ir.deopts);
      ("bridges", Json.Int tr.Ir.bridges);
    ]

let jitlog_json (jl : Mtj_rjit.Jitlog.t) =
  let open Mtj_rjit in
  let traces = Jitlog.traces jl in
  let t1_entries, t2_entries, t1_dyn, t2_dyn = Jitlog.tier_residency jl in
  Json.Obj
    [
      ("num_traces", Json.Int (Jitlog.num_traces jl));
      ("aborts", Json.Int jl.Jitlog.aborts);
      ( "abort_reasons",
        Json.Obj
          (List.map
             (fun (r, n) -> (r, Json.Int n))
             (List.sort compare jl.Jitlog.abort_reasons)) );
      ("deopts", Json.Int jl.Jitlog.deopts);
      ("bridges_attached", Json.Int jl.Jitlog.bridges_attached);
      ("blacklisted", Json.Int jl.Jitlog.blacklisted);
      ("retiers", Json.Int jl.Jitlog.retiers);
      ("translations", Json.Int jl.Jitlog.translations);
      ("code_cache_hits", Json.Int jl.Jitlog.code_cache_hits);
      ("shared_code_hits", Json.Int jl.Jitlog.shared_code_hits);
      ("code_cache_total_hits", Json.Int (Jitlog.total_code_hits jl));
      ("interp_translations", Json.Int jl.Jitlog.interp_translations);
      ("threaded_code_hits", Json.Int jl.Jitlog.threaded_code_hits);
      ("tier1_compiles", Json.Int jl.Jitlog.tier1_compiles);
      ("tier2_compiles", Json.Int jl.Jitlog.tier2_compiles);
      ("demotions", Json.Int jl.Jitlog.demotions);
      ("first_entry_insns", Json.Int jl.Jitlog.first_entry_insns);
      ("seeded_sites", Json.Int jl.Jitlog.seeded_sites);
      ( "tier_residency",
        Json.Obj
          [
            ("tier1_entries", Json.Int t1_entries);
            ("tier2_entries", Json.Int t2_entries);
            ("tier1_dynamic_ir", Json.Int t1_dyn);
            ("tier2_dynamic_ir", Json.Int t2_dyn);
          ] );
      ("total_ir_compiled", Json.Int (Jitlog.total_ir_compiled jl));
      ("total_dynamic_ir", Json.Int (Jitlog.total_dynamic_ir jl));
      ("traces", Json.Arr (List.map trace_row_json traces));
    ]

let run_json ~bench ~config ~status ~engine ?jitlog ?gc () =
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    [
      ("bench", Json.Str bench);
      ("config", Json.Str config);
      ("status", Json.Str status);
      ("insns", Json.Int (Engine.total_insns engine));
      ("cycles", Json.Float (Engine.total_cycles engine));
      ("ticks", Json.Int (Engine.ticks engine));
      ("phases", phases_json (Engine.counters engine));
      ("gc", opt gc_json gc);
      ("jit", opt jitlog_json jitlog);
    ]

let document ?serve ~runs () =
  Json.Obj
    ([ ("schema", Json.Str schema); ("runs", Json.Arr runs) ]
    @ match serve with Some s -> [ ("serve", s) ] | None -> [])

let write ?serve ~file ~runs () =
  Json.write_file ~indent:2 ~file (document ?serve ~runs ())
