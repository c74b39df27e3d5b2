(** Multi-tenant serving harness: streams thousands of short VM
    requests onto a fixed worker-domain pool ({!Pool}), modelling a
    long-lived server that executes many small, mutually-untrusting
    tenant programs.

    Each request gets a fresh, fully-isolated VM context
    ({!Mtj_rt.Ctx}); what is shared across requests is a per-session,
    domain-safe cache of compiled-program bundles
    ({!Mtj_rjit.Sharedcache}), translated once per (language, program,
    configuration) and imported by every later request for the same
    program ("warm") instead of recompiled ("cold").

    Two independent axes extend the cache (DESIGN.md §3m):

    - {e Trace-profile seeding}: the cold request that publishes a
      bundle also attaches, after its run, the trace profile it learned
      (hot loop sites with tier decisions, threaded-translated code
      refs).  Warm requests seed their fresh driver from it, so hot
      loops reach the JIT on their first header visit instead of after
      the full tracing threshold.  Seeding changes {e when} the
      simulated machine traces, never what the program computes:
      [r_out_digest] is byte-identical across every mode, while the
      full [r_digest] is pinned per profile-seed setting.

    - {e Bounded capacity}: [cache_capacity] bounds the total entry
      count with per-shard LRU eviction, and [tenant_quota] bounds any
      one tenant's live publications — the knobs the cache-capacity
      sweep experiment characterizes under the Zipf stream. *)

type request = {
  req_id : int;                       (** position in the stream *)
  req_lang : Mtj_benchmarks.Registry.lang;
  req_bench : string;                 (** registry benchmark name *)
}

(** Per-request outcome.  [r_digest] covers only simulated state
    (status, instruction/cycle totals, GC and JIT counters, program
    output) — never the warm flag, latency, or shared-cache counters,
    which legitimately vary with mode, jobs and scheduling.  It is
    invariant in job count and cache mode at a fixed profile-seed
    setting; [r_out_digest] (status and program output only) is
    invariant across everything. *)
type record = {
  r_id : int;
  r_bench : string;
  r_lang : string;      (** ["py"] or ["rk"] *)
  r_status : string;    (** ["ok"], ["budget"] or ["failed:<msg>"] *)
  r_warm : bool;        (** served from the shared cache *)
  r_seeded : bool;      (** warm AND the driver was profile-seeded *)
  r_wall_s : float;     (** host wall time of this request *)
  r_shared_code_hits : int;
      (** code objects imported from the shared cache (0 when cold) *)
  r_first_entry_insns : int;
      (** simulated insns at the first compiled-trace entry, [-1] if no
          trace ran — the per-request warmup metric seeding improves *)
  r_digest : string;    (** MD5 over the simulated-state rendering *)
  r_out_digest : string;  (** MD5 over status and program output only *)
}

type summary = {
  sv_requests : int;
  sv_jobs : int;
  sv_zipf_s : float;
  sv_seed : int;
  sv_shared : bool;
  sv_profile_seed : bool;
  sv_cache_capacity : int;    (** 0 = unbounded *)
  sv_tenant_quota : int;      (** 0 = unbounded *)
  sv_corpus_size : int;       (** programs actually drawn from *)
  sv_budget : int;
  sv_wall_s : float;          (** whole-stream host wall *)
  sv_throughput : float;      (** requests per host second *)
  sv_p50_ms : float;          (** per-request latency percentiles *)
  sv_p95_ms : float;
  sv_p99_ms : float;
  sv_cold : int;              (** requests that compiled *)
  sv_warm : int;              (** requests served from the cache *)
  sv_seeded : int;            (** warm requests that imported a profile *)
  sv_cold_p50_ms : float;
  sv_warm_p50_ms : float;     (** 0.0 when no warm requests *)
  sv_seeded_first_entry_mean : float;
      (** mean [r_first_entry_insns] over seeded requests that entered
          a trace; 0.0 when none *)
  sv_unseeded_first_entry_mean : float;
      (** same over unseeded (cold or profile-less) requests *)
  sv_cache_entries : int;     (** live entries at session end *)
  sv_cache : Mtj_rjit.Sharedcache.stats;
  sv_records : record array;  (** in request order *)
}

val default_budget : int
(** Per-request instruction budget.  Small by design: serving requests
    are short, which is exactly the regime where compilation wall time
    is a large fraction of the request and a shared code cache pays. *)

val default_corpus : (Mtj_benchmarks.Registry.lang * string) list
(** The tenant program mix, ordered most-popular first (Zipf rank 1
    first).  Compile-heavy programs lead: a cold request for either of
    the first two spends close to half its wall compiling.  Mixed
    pylite/rklite. *)

val gen_requests :
  corpus:(Mtj_benchmarks.Registry.lang * string) list ->
  requests:int ->
  zipf_s:float ->
  seed:int ->
  request array
(** The whole request stream, generated up front: request [i] draws its
    program from [corpus] Zipf-distributed with exponent [zipf_s]
    (weight of rank r is 1/r^s) using a splitmix64 stream seeded with
    [seed].  Pure and deterministic: same arguments, same stream, on
    any platform.  Raises [Invalid_argument] on [requests <= 0], an
    empty corpus, or a [zipf_s] that is not finite and positive. *)

val serve :
  ?jobs:int ->
  ?budget:int ->
  ?zipf_s:float ->
  ?seed:int ->
  ?shared:bool ->
  ?profile_seed:bool ->
  ?cache_capacity:int ->
  ?tenant_quota:int ->
  ?corpus:(Mtj_benchmarks.Registry.lang * string) list ->
  ?corpus_size:int ->
  requests:int ->
  unit ->
  summary
(** Run a serving session: generate the stream, execute it on a pool of
    [jobs] worker domains (default {!Runner.jobs}), and aggregate.
    [shared] (default [true]) turns the cross-context code cache on or
    off; [profile_seed] (default [true]) turns trace-profile
    publication and seeding on or off; [cache_capacity] and
    [tenant_quota] (default 0 = unbounded) bound the session cache;
    [corpus_size] (default 0 = all) truncates [corpus] to its first n
    entries, raising [Invalid_argument] when negative or larger than
    the corpus.  Each session builds its own {!Mtj_rjit.Sharedcache},
    so capacities and statistics never leak across sessions.

    Program outputs ([r_out_digest], [r_status]) are deterministic in
    (corpus, requests, zipf_s, seed, budget) alone — any mode, any
    [-j].  Full simulated digests ([r_digest]) are additionally
    deterministic per profile-seed setting at [jobs = 1] (the pool
    executes in stream order); at [jobs > 1] with seeding on, {e which}
    requests find a profile depends on scheduling, so only seed-off
    digests are jobs-invariant.  Wall times, warm/cold splits and cache
    statistics are host-side measurements. *)

val summary_json : summary -> Mtj_obs.Json.t
(** The ["serve"] block of an ["mtj-metrics/12"] document (see
    OBS_SCHEMA.md and {!Mtj_obs.Validate}). *)

val print_summary : out_channel -> summary -> unit
(** Human-readable session report (latency percentiles, throughput,
    warm/cold split, warmup comparison, shared-cache counters). *)
