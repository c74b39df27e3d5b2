(** Benchmark runner: executes one benchmark under one VM configuration
    with the full cross-layer instrumentation attached, and collects
    everything the paper's tables and figures need.  Results are memoized
    per (benchmark, configuration, budget) since several experiments
    share runs. *)

open Mtj_core
open Mtj_rt
module Engine = Mtj_machine.Engine
module Counters = Mtj_machine.Counters
module B = Mtj_benchmarks.Registry
module Ir = Mtj_rjit.Ir
module Jitlog = Mtj_rjit.Jitlog

type vm_config =
  | Cpython        (** reference C interpreter (pylite) *)
  | Pypy_nojit     (** RPython-translated interpreter, JIT off *)
  | Pypy_jit       (** the meta-tracing JIT *)
  | Pypy_tiered    (** extension: adaptive multi-tier compile *)
  | Pypy_baseline  (** extension: baseline tier only, never promoted *)
  | Racket         (** custom-JIT reference VM (rklite) *)
  | Pycket_nojit
  | Pycket_jit
  | Native_c       (** statically-compiled kernel *)

let config_name = function
  | Cpython -> "cpython"
  | Pypy_nojit -> "pypy-nojit"
  | Pypy_jit -> "pypy"
  | Pypy_tiered -> "pypy-2tier"
  | Pypy_baseline -> "pypy-1tier"
  | Racket -> "racket"
  | Pycket_nojit -> "pycket-nojit"
  | Pycket_jit -> "pycket"
  | Native_c -> "c"

type status = Ok_run | Hit_budget | Failed of string

type jit_stats = {
  traces : int;
  bridges : int;
  deopts : int;
  aborts : int;
  blacklisted : int;
  retiers : int;
  translations : int;
  tier1_compiles : int;
  tier2_compiles : int;
  demotions : int;
  first_entry_insns : int;   (* -1 if no trace ever ran *)
  tier1_entries : int;       (* per-tier residency *)
  tier2_entries : int;
  tier1_dynamic_ir : int;
  tier2_dynamic_ir : int;
  ir_compiled : int;
  ir_dynamic : int;
  hot_fraction_95 : float;
  by_category : (Ir.cat * int) list;
  by_node_type : (string * int) list;
  x86_per_type : (string * float) list;
}

type result = {
  bench : B.bench option;  (* None for native kernels *)
  bench_name : string;
  config : vm_config;
  status : status;
  output : string;
  insns : int;
  cycles : float;
  total : Counters.snapshot;
  per_phase : (Phase.t * Counters.snapshot) list;
  phase_insns : (Phase.t * int) list;      (* from the annotation stream *)
  timeline : (Phase.t * float) array array;
  timeline_bucket : int;
  ticks : int;                              (* dispatch-loop work units *)
  samples : (int * int) array;              (* warmup curve *)
  aot_top : (string * string * int) list;   (* (src, name, insns) desc *)
  jit : jit_stats option;
  gc : Gc_sim.stats;
  metrics : Mtj_obs.Json.t;
      (* the mtj-metrics run record, written by [Metrics.run_json] while
         the run's engine was live *)
}

let status_of = function
  | Mtj_rjit.Driver.Completed _ -> Ok_run
  | Mtj_rjit.Driver.Budget_exceeded -> Hit_budget
  | Mtj_rjit.Driver.Runtime_error e -> Failed e

let status_name = function
  | Ok_run -> "ok"
  | Hit_budget -> "budget"
  | Failed _ -> "failed"

let default_budget = 200_000_000

let profile_of = function
  | Cpython -> Profile.cpython
  | Pypy_nojit | Pypy_jit | Pypy_tiered | Pypy_baseline | Pycket_nojit
  | Pycket_jit ->
      Profile.rpython_interp
  | Racket -> Profile.racket_custom
  | Native_c -> Profile.native

let jit_enabled = function
  | Pypy_jit | Pypy_tiered | Pypy_baseline | Pycket_jit -> true
  | _ -> false

(* the --tier-policy setting; None = each config's default
   (Pypy_tiered adaptive, Pypy_baseline baseline, everything else
   optimizing) *)
let tier_policy_setting = Atomic.make None
let set_tier_policy p = Atomic.set tier_policy_setting (Some p)

let config_of ?(budget = default_budget) vc =
  let base =
    match (vc, Atomic.get tier_policy_setting) with
    | Pypy_tiered, _ -> Config.two_tier
    | Pypy_baseline, _ -> Config.baseline_tier
    (* the override applies to JIT configs that don't pin a policy *)
    | (Pypy_jit | Pycket_jit), Some p ->
        { Config.default with Config.tier_policy = p }
    | _ -> if jit_enabled vc then Config.default else Config.no_jit
  in
  Config.with_budget budget base

let jit_stats_of jl =
  let t1_entries, t2_entries, t1_dyn, t2_dyn = Jitlog.tier_residency jl in
  {
    traces = Jitlog.num_traces jl;
    bridges = jl.Jitlog.bridges_attached;
    deopts = jl.Jitlog.deopts;
    aborts = jl.Jitlog.aborts;
    blacklisted = jl.Jitlog.blacklisted;
    retiers = jl.Jitlog.retiers;
    translations = jl.Jitlog.translations;
    tier1_compiles = jl.Jitlog.tier1_compiles;
    tier2_compiles = jl.Jitlog.tier2_compiles;
    demotions = jl.Jitlog.demotions;
    first_entry_insns = jl.Jitlog.first_entry_insns;
    tier1_entries = t1_entries;
    tier2_entries = t2_entries;
    tier1_dynamic_ir = t1_dyn;
    tier2_dynamic_ir = t2_dyn;
    ir_compiled = Jitlog.total_ir_compiled jl;
    ir_dynamic = Jitlog.total_dynamic_ir jl;
    hot_fraction_95 = Jitlog.hot_ir_fraction jl ~coverage:0.95;
    by_category = Jitlog.dynamic_by_category jl;
    by_node_type = Jitlog.dynamic_by_node_type jl;
    x86_per_type = Jitlog.x86_per_node_type jl;
  }

let aot_ranking attrib =
  Mtj_pintool.Aot_attrib.top attrib ~n:12
  |> List.filter_map (fun (id, insns) ->
         match Aot.find id with
         | Some fn ->
             Some (Aot.src_letter (Aot.src fn), Aot.name fn, insns)
         | None -> None)

(* the hosted language a configuration runs; [None] for native kernels *)
let lang_of = function
  | Cpython | Pypy_nojit | Pypy_jit | Pypy_tiered | Pypy_baseline -> Some B.Py
  | Racket | Pycket_nojit | Pycket_jit -> Some B.Rk
  | Native_c -> None

let run_uncached ?budget (bench_name : string) (vc : vm_config) : result =
  let config = config_of ?budget vc in
  let finish ~bench ~status ~output ~aot_top ?jitlog rtc tracker sampler =
    Mtj_pintool.Phase_tracker.finalize tracker;
    Mtj_pintool.Rate_sampler.finalize sampler;
    let eng = Ctx.engine rtc in
    let counters = Engine.counters eng in
    let gc = Gc_sim.stats (Ctx.gc rtc) in
    let r =
      {
        bench;
        bench_name;
        config = vc;
        status;
        output;
        insns = Engine.total_insns eng;
        cycles = Engine.total_cycles eng;
        total = Counters.total counters;
        per_phase =
          List.map (fun p -> (p, Counters.phase counters p)) Phase.all;
        phase_insns =
          List.map
            (fun p -> (p, Mtj_pintool.Phase_tracker.phase_insns tracker p))
            Phase.all;
        timeline = Mtj_pintool.Phase_tracker.timeline tracker;
        timeline_bucket = Mtj_pintool.Phase_tracker.bucket_insns tracker;
        ticks = Engine.ticks eng;
        samples = Mtj_pintool.Rate_sampler.samples sampler;
        aot_top;
        jit = Option.map jit_stats_of jitlog;
        gc;
        metrics =
          Mtj_obs.Metrics.run_json ~bench:bench_name ~config:(config_name vc)
            ~status:(status_name status) ~engine:eng ?jitlog ~gc ();
      }
    in
    (* [r] holds only values read out of the run: this is the engine's
       last use, and the next run on this domain takes its tables *)
    Engine.release eng;
    r
  in
  match lang_of vc with
  | None -> (
      match Mtj_baselines.Native.find bench_name with
      | None -> invalid_arg ("no native kernel for " ^ bench_name)
      | Some kernel ->
          let rtc = Ctx.create ~config () in
          let tracker = Mtj_pintool.Phase_tracker.attach (Ctx.engine rtc) in
          let sampler = Mtj_pintool.Rate_sampler.attach (Ctx.engine rtc) in
          let status, output =
            match Mtj_baselines.Native.run rtc kernel with
            | out -> (Ok_run, out)
            | exception Engine.Budget_exhausted -> (Hit_budget, "")
          in
          finish ~bench:None ~status ~output ~aot_top:[] rtc tracker sampler)
  | Some lang ->
      let (module V : Hosted.VM) = Hosted.vm lang in
      let b = B.find_exn ~lang bench_name in
      let vm = V.create ~config ~profile:(profile_of vc) () in
      let eng = V.engine vm in
      let tracker = Mtj_pintool.Phase_tracker.attach eng in
      let sampler = Mtj_pintool.Rate_sampler.attach eng in
      let attrib = Mtj_pintool.Aot_attrib.attach eng in
      let status = status_of (V.run_source vm b.B.source) in
      finish ~bench:(Some b) ~status ~output:(V.output vm)
        ~aot_top:(aot_ranking attrib) ~jitlog:(V.jitlog vm) (V.rtc vm)
        tracker sampler

(* --- memoized entry point --- *)

(* The cache is shared across domains; every access happens under
   [cache_lock].  The (long) simulation itself runs outside the lock:
   [prefetch] deduplicates keys before fanning out, so no key is
   computed twice, and a racing duplicate would in any case store an
   identical (deterministic) result. *)

(* keyed by (benchmark, config, budget); an omitted budget is
   [default_budget], so callers that never pass one keep one key per
   pair *)
type key = string * vm_config * int

let key_of ?(budget = default_budget) bench vc : key = (bench, vc, budget)
let cache : (key, result) Hashtbl.t = Hashtbl.create 128
let run_walls : (key, float) Hashtbl.t = Hashtbl.create 128

(* host minor-heap words allocated while simulating each run.
   [Gc.minor_words] is domain-local in OCaml 5 and each run executes
   wholly on one worker domain, so the delta isolates that run's
   allocations; it is a monotonic allocation counter (collections do not
   reset it), so the value is deterministic for a deterministic
   simulation.  Kept out of stdout — only the timings JSON reports it —
   so table output stays byte-identical at any [-j]. *)
let run_allocs : (key, float) Hashtbl.t = Hashtbl.create 128
let cache_lock = Mutex.create ()

let with_cache_lock f =
  Mutex.lock cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_lock) f

let run ?budget (bench_name : string) (vc : vm_config) : result =
  let key = key_of ?budget bench_name vc in
  match with_cache_lock (fun () -> Hashtbl.find_opt cache key) with
  | Some r -> r
  | None ->
      let t0 = Unix.gettimeofday () in
      let mw0 = Gc.minor_words () in
      let r = run_uncached ?budget bench_name vc in
      let minor_words = Gc.minor_words () -. mw0 in
      let wall = Unix.gettimeofday () -. t0 in
      with_cache_lock (fun () ->
          Hashtbl.replace cache key r;
          Hashtbl.replace run_walls key wall;
          Hashtbl.replace run_allocs key minor_words);
      r

let clear_cache () =
  with_cache_lock (fun () ->
      Hashtbl.reset cache;
      Hashtbl.reset run_walls;
      Hashtbl.reset run_allocs)

(* --- parallel execution --- *)

(* the -j setting; 0 means "auto" (MTJ_JOBS, else the hardware) *)
let jobs_setting = Atomic.make 0
let set_jobs n = Atomic.set jobs_setting (max 0 n)
let jobs () =
  let n = Atomic.get jobs_setting in
  if n > 0 then n else Pool.default_jobs ()

(** [parallel_map f xs] maps [f] over [xs] on the configured number of
    worker domains (capped at the list length), preserving list order.
    [f] must be self-contained: create its VMs and run them entirely
    within the call. *)
let parallel_map ?jobs:j f xs =
  let j = match j with Some j -> j | None -> jobs () in
  Pool.map ~jobs:j f xs

(** [prefetch pairs] fills the memo cache for every (benchmark,
    vm_config) pair, running the missing ones in parallel.  Renderers
    that subsequently call {!run} read cached results in their own
    deterministic order, so output is byte-identical to a serial run. *)
let prefetch ?jobs:j ?budget (pairs : (string * vm_config) list) =
  let seen = Hashtbl.create 64 in
  let pending =
    List.filter
      (fun (b, vc) ->
        let key = key_of ?budget b vc in
        (not (Hashtbl.mem seen key))
        && begin
             Hashtbl.replace seen key ();
             not (with_cache_lock (fun () -> Hashtbl.mem cache key))
           end)
      pairs
  in
  ignore
    (parallel_map ?jobs:j
       (fun (b, vc) -> ignore (run ?budget b vc))
       pending)

(** [run_many pairs] = prefetch in parallel, then return the results in
    input order. *)
let run_many ?jobs:j ?budget (pairs : (string * vm_config) list) :
    result list =
  prefetch ?jobs:j ?budget pairs;
  List.map (fun (b, vc) -> run ?budget b vc) pairs

(* --- timing report --- *)

type run_timing = {
  rt_bench : string;
  rt_config : vm_config;
  rt_wall_s : float;
  rt_insns : int;
  rt_cycles : float;
  rt_minor_words : float;
}

(** wall-clock and simulated work of every cached run, sorted by
    (benchmark, config) for stable reporting *)
let run_timings () : run_timing list =
  with_cache_lock (fun () ->
      Hashtbl.fold
        (fun ((b, vc, _) as key) (r : result) acc ->
          let wall =
            Option.value ~default:0.0 (Hashtbl.find_opt run_walls key)
          in
          let minor_words =
            Option.value ~default:0.0 (Hashtbl.find_opt run_allocs key)
          in
          {
            rt_bench = b;
            rt_config = vc;
            rt_wall_s = wall;
            rt_insns = r.insns;
            rt_cycles = r.cycles;
            rt_minor_words = minor_words;
          }
          :: acc)
        cache [])
  |> List.sort (fun a b ->
         match compare a.rt_bench b.rt_bench with
         | 0 -> compare (config_name a.rt_config) (config_name b.rt_config)
         | c -> c)

(* --- derived metrics --- *)

let mcycles r = r.cycles /. 1.0e6
let ipc r = Counters.ipc r.total
let mpki r = Counters.branch_mpki r.total

let speedup ~baseline r =
  if r.cycles <= 0.0 then 0.0 else baseline.cycles /. r.cycles

let phase_insns_of r p =
  Option.value ~default:0 (List.assoc_opt p r.phase_insns)

let phase_fraction r p =
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 r.phase_insns in
  if total = 0 then 0.0
  else
    (* a phase absent from the annotation stream contributes 0, it is
       not an error *)
    float_of_int (phase_insns_of r p) /. float_of_int total
