(** Benchmark runner: executes one benchmark under one VM configuration
    with the full cross-layer instrumentation attached, and collects
    everything the paper's tables and figures need.  Results are
    memoized per (benchmark, configuration, budget) since several
    experiments share runs; {!prefetch} fills the cache from a pool of
    worker domains, and the simulation is deterministic, so rendered
    output is byte-identical at any [-j]. *)

(** The VM configurations of the paper's run matrix (Table II). *)
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

val config_name : vm_config -> string

type status = Ok_run | Hit_budget | Failed of string

type jit_stats = {
  traces : int;
  bridges : int;
  deopts : int;
  aborts : int;
  blacklisted : int;
  retiers : int;
  translations : int;      (** traces translated to threaded code *)
  code_cache_hits : int;   (** trace entries served from the cache *)
  shared_code_hits : int;
      (** code objects imported from the cross-context shared cache
          ({!Mtj_rjit.Sharedcache}) instead of compiled locally; always
          0 outside serving mode *)
  interp_translations : int;
      (** code objects translated once into threaded interpreter steps *)
  threaded_code_hits : int;
      (** interpreter code switches served from the threaded cache *)
  tier1_compiles : int;  (** baseline-tier trace compiles *)
  tier2_compiles : int;  (** optimizing-tier trace compiles *)
  demotions : int;
      (** optimized loops recompiled back at the baseline tier *)
  first_entry_insns : int;
      (** simulated instructions retired before the first compiled-trace
          entry, or [-1] if no trace ever ran — the
          time-to-first-compiled-execution warmup metric *)
  seeded_sites : int;
      (** loop sites seeded from an imported trace profile (serving
          mode); 0 everywhere else *)
  tier1_entries : int;       (** per-tier residency: trace entries *)
  tier2_entries : int;
  tier1_dynamic_ir : int;    (** per-tier residency: dynamic IR *)
  tier2_dynamic_ir : int;
  ir_compiled : int;
  ir_dynamic : int;
  hot_fraction_95 : float;
  by_category : (Mtj_rjit.Ir.cat * int) list;
  by_node_type : (string * int) list;
  x86_per_type : (string * float) list;
}

type result = {
  bench : Mtj_benchmarks.Registry.bench option;  (** [None] for native kernels *)
  bench_name : string;
  config : vm_config;
  status : status;
  output : string;
  insns : int;
  cycles : float;
  total : Mtj_machine.Counters.snapshot;
  per_phase : (Mtj_core.Phase.t * Mtj_machine.Counters.snapshot) list;
  phase_insns : (Mtj_core.Phase.t * int) list;
      (** from the annotation stream *)
  timeline : (Mtj_core.Phase.t * float) array array;
  timeline_bucket : int;
  ticks : int;  (** dispatch-loop work units *)
  samples : (int * int) array;  (** warmup curve *)
  aot_top : (string * string * int) list;  (** (src, name, insns) desc *)
  jit : jit_stats option;
  gc : Mtj_rt.Gc_sim.stats;
  metrics : Mtj_obs.Json.t;
      (** the run's ["mtj-metrics/12"] record, written by
          {!Mtj_obs.Metrics.run_json} (the one writer [mtj trace] uses
          too) while the run's engine was live *)
}

val status_of : Mtj_rjit.Driver.outcome -> status

val status_name : status -> string
(** ["ok"], ["budget"] or ["failed"]. *)

val default_budget : int

val lang_of : vm_config -> Mtj_benchmarks.Registry.lang option
(** The hosted language a configuration runs; [None] for [Native_c]. *)

val profile_of : vm_config -> Mtj_core.Profile.t
(** The interpreter profile a configuration runs under. *)

val config_of : ?budget:int -> vm_config -> Mtj_core.Config.t
(** The {!Mtj_core.Config.t} a given [vm_config] runs under, with the
    session's [--tier-policy] setting and the budget applied.  This is
    exactly the config {!run} builds; the serving harness ({!Serve})
    uses it so shared-cache keys reflect every knob that affects
    compiled code.  The threaded dispatch tier is always on: its off
    path, the reference loop, is a test oracle, selected only by
    building a {!Mtj_core.Config.t} directly. *)

(* --- running --- *)

val run : ?budget:int -> string -> vm_config -> result
(** Memoized: the first call per (benchmark, config, budget) simulates,
    later calls return the cached result; an omitted [budget] is
    {!default_budget}.  Raises [Invalid_argument] for an unknown
    benchmark name. *)

val run_many :
  ?jobs:int -> ?budget:int -> (string * vm_config) list -> result list
(** {!prefetch} in parallel, then return the results in input order. *)

val prefetch : ?jobs:int -> ?budget:int -> (string * vm_config) list -> unit
(** Fill the memo cache for every pair, running the missing ones on
    worker domains.  Renderers that subsequently call {!run} read cached
    results in their own deterministic order. *)

val clear_cache : unit -> unit

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Map on the configured number of worker domains, preserving order.
    The function must be self-contained (create its VMs within the
    call). *)

(* --- the -j setting --- *)

val set_jobs : int -> unit
(** [0] means "auto" ([MTJ_JOBS], else the hardware's recommendation). *)

val jobs : unit -> int

(* --- the --tier-policy setting --- *)

val set_tier_policy : Mtj_core.Config.tier_policy -> unit
(** Force the tier policy of every JIT configuration built after the
    call ([Pypy_jit]/[Pycket_jit]; [Pypy_tiered] and [Pypy_baseline]
    pin their policy by name and ignore the override).  Unset, each
    config keeps its default policy.  The policy {e changes simulated
    behavior}: compile costs, warmup and trace tiers all move with it. *)

(* --- timing report --- *)

type run_timing = {
  rt_bench : string;
  rt_config : vm_config;
  rt_wall_s : float;
  rt_insns : int;
  rt_cycles : float;
  rt_minor_words : float;
      (** host minor-heap words allocated while simulating this run
          ([Gc.minor_words] delta on the run's worker domain) —
          deterministic, since the allocation counter is monotonic and
          the simulation allocates the same objects every run *)
}

val run_timings : unit -> run_timing list
(** Wall-clock and simulated work of every cached run, sorted by
    (benchmark, config) for stable reporting. *)

(* --- derived metrics --- *)

val mcycles : result -> float
val ipc : result -> float
val mpki : result -> float

val speedup : baseline:result -> result -> float

val phase_insns_of : result -> Mtj_core.Phase.t -> int
val phase_fraction : result -> Mtj_core.Phase.t -> float
