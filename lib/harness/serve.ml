(** Multi-tenant serving harness (see serve.mli).

    Design notes:

    - Requests are generated up front from a seeded splitmix64 stream,
      so the workload is a pure function of (corpus, requests, zipf_s,
      seed) — workers consume a fixed array and never touch the RNG.

    - Every request builds a fresh {!Mtj_rt.Ctx} (own engine, GC,
      globals, JIT driver): tenant isolation is per-request.  The only
      cross-request state is a per-session {!Mtj_rjit.Sharedcache},
      which stores immutable compiled-program bundles (and the trace
      profiles their publishers attach) keyed by (language, program,
      config digest).  Trace and threaded-interpreter translations
      close over their context and are never shared; see DESIGN.md §3k
      and §3m.

    - The shared cache saves host wall only; profile seeding
      additionally moves WHEN the simulated machine traces (earlier),
      never WHAT the program computes.  [digest_of] hashes simulated
      state, so it is identical across shared-cache mode, job count and
      scheduling at a FIXED profile-seed setting, while [out_digest_of]
      (status and program output only) is identical across every mode.
      The differential tests pin both.

    - One request path serves both languages, over {!Hosted.VM}.  Each
      language's shared-cache entry constructor ([Hosted.Py.Bundle],
      [Hosted.Rk.Bundle]) is made once, at module level; an entry of
      any other constructor counts as a miss. *)

module B = Mtj_benchmarks.Registry
module Sharedcache = Mtj_rjit.Sharedcache
module Jitlog = Mtj_rjit.Jitlog
module Ctx = Mtj_rt.Ctx
module Engine = Mtj_machine.Engine
module J = Mtj_obs.Json

type request = { req_id : int; req_lang : B.lang; req_bench : string }

type record = {
  r_id : int;
  r_bench : string;
  r_lang : string;
  r_status : string;
  r_warm : bool;
  r_seeded : bool;
  r_wall_s : float;
  r_shared_code_hits : int;
  r_first_entry_insns : int;
  r_digest : string;
  r_out_digest : string;
}

type summary = {
  sv_requests : int;
  sv_jobs : int;
  sv_zipf_s : float;
  sv_seed : int;
  sv_shared : bool;
  sv_profile_seed : bool;
  sv_cache_capacity : int;
  sv_tenant_quota : int;
  sv_corpus_size : int;
  sv_budget : int;
  sv_wall_s : float;
  sv_throughput : float;
  sv_p50_ms : float;
  sv_p95_ms : float;
  sv_p99_ms : float;
  sv_cold : int;
  sv_warm : int;
  sv_seeded : int;
  sv_cold_p50_ms : float;
  sv_warm_p50_ms : float;
  sv_seeded_first_entry_mean : float;
  sv_unseeded_first_entry_mean : float;
  sv_cache_entries : int;
  sv_cache : Sharedcache.stats;
  sv_records : record array;
}

(* Short requests on purpose: the serving regime is many small
   programs, where compile wall is a large slice of each request and
   the shared cache has something to save. *)
let default_budget = 300_000

(* Most-popular-first (Zipf rank 1 first).  Compile-heavy programs
   lead — a cold request for richards or nbody_modified spends close to
   half its wall in VM creation and the compiler, against a fifth or
   less for telco or chaos — and the mix alternates pylite and rklite
   tenants. *)
let default_corpus =
  [
    (B.Py, "richards");
    (B.Py, "nbody_modified");
    (B.Rk, "mandelbrot");
    (B.Py, "telco");
    (B.Py, "hexiom2");
    (B.Rk, "spectralnorm");
    (B.Py, "chaos");
    (B.Rk, "fasta");
  ]

(* --- seeded RNG: splitmix64 --- *)

(* Standard splitmix64: one 64-bit state, one output per step.  Chosen
   over [Random] for exact cross-platform reproducibility and because
   the stream must be a pure function of the seed. *)
let sm64_next (state : int64) : int64 * int64 =
  let open Int64 in
  let s = add state 0x9E3779B97F4A7C15L in
  let z = mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  (s, logxor z (shift_right_logical z 31))

(* uniform in [0,1) from the top 53 bits *)
let sm64_float z =
  Int64.to_float (Int64.shift_right_logical z 11) *. (1.0 /. 9007199254740992.0)

(* --- Zipf sampling --- *)

(* cumulative Zipf weights over ranks 1..n: weight of rank r is 1/r^s *)
let zipf_cumulative ~n ~s =
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
    cum.(i) <- !acc
  done;
  cum

let zipf_index cum u =
  let total = cum.(Array.length cum - 1) in
  let x = u *. total in
  let i = ref 0 in
  while cum.(!i) <= x do incr i done;
  !i

let gen_requests ~corpus ~requests ~zipf_s ~seed =
  if requests <= 0 then invalid_arg "Serve.gen_requests: requests <= 0";
  if corpus = [] then invalid_arg "Serve.gen_requests: empty corpus";
  if not (Float.is_finite zipf_s && zipf_s > 0.0) then
    invalid_arg "Serve.gen_requests: zipf_s must be finite and > 0";
  let corpus = Array.of_list corpus in
  let cum = zipf_cumulative ~n:(Array.length corpus) ~s:zipf_s in
  let state = ref (Int64.of_int seed) in
  Array.init requests (fun req_id ->
      let s, z = sm64_next !state in
      state := s;
      let lang, bench = corpus.(zipf_index cum (sm64_float z)) in
      { req_id; req_lang = lang; req_bench = bench })

(* --- per-request execution --- *)

let status_of = function
  | Mtj_rjit.Driver.Completed _ -> "ok"
  | Mtj_rjit.Driver.Budget_exceeded -> "budget"
  | Mtj_rjit.Driver.Runtime_error e -> "failed:" ^ e

(* Everything the simulated machine determined, nothing the host did:
   status, retired work, GC totals, JIT machinery counters and program
   output.  Shared-cache hits and warm/cold are deliberately absent —
   they depend on scheduling.  Seeding legitimately changes the JIT
   counters (the machine traces earlier), so this digest is pinned per
   profile-seed setting; cross-setting invariance is [out_digest_of]'s
   job. *)
let digest_of ~status ~insns ~cycles ~output ~(gc : Mtj_rt.Gc_sim.stats)
    ~(jl : Jitlog.t) =
  let s =
    Printf.sprintf
      "%s|%d|%.6f|%d.%d.%d.%d|%d.%d.%d.%d.%d.%d.%d.%d|%s" status insns cycles
      gc.Mtj_rt.Gc_sim.minor_collections gc.Mtj_rt.Gc_sim.major_collections
      gc.Mtj_rt.Gc_sim.allocated_objects gc.Mtj_rt.Gc_sim.allocated_words
      (Jitlog.num_traces jl) jl.Jitlog.bridges_attached jl.Jitlog.deopts
      jl.Jitlog.translations jl.Jitlog.code_cache_hits
      jl.Jitlog.tier1_compiles jl.Jitlog.tier2_compiles
      jl.Jitlog.threaded_code_hits output
  in
  Digest.to_hex (Digest.string s)

(* What the tenant's program computed, full stop.  Invariant across
   shared-cache mode, profile seeding, eviction churn and job count —
   the "seeding never changes outputs" guarantee, pinned as such. *)
let out_digest_of ~status ~output =
  Digest.to_hex (Digest.string (status ^ "|" ^ output))

let run_one ~shared ~profile_seed ~cache ~config ~cfg_digest (req : request) :
    record =
  let t0 = Unix.gettimeofday () in
  let (module V : Hosted.VM) = Hosted.vm req.req_lang in
  let lang = Hosted.name req.req_lang in
  let b = B.find_exn ~lang:req.req_lang req.req_bench in
  let vm = V.create ~config () in
  let key =
    Sharedcache.key ~lang ~program:req.req_bench ~config_digest:cfg_digest
  in
  let tenant = lang ^ ":" ^ req.req_bench in
  let uid = Ctx.uid (V.rtc vm) in
  let warm, seeded, published, outcome =
    if not shared then (false, false, false, V.run_source vm b.B.source)
    else
      (* a seed-off session never attaches a profile, so its hits
         carry none *)
      match Sharedcache.find_with_profile cache ~ctx_uid:uid key with
      | Some (V.Bundle bu, prof) ->
          V.import_bundle vm bu;
          Jitlog.record_shared_code_hits (V.jitlog vm) ~n:(V.bundle_size bu);
          let seeded =
            match prof with
            | Some p ->
                V.seed_profile vm p;
                true
            | None -> false
          in
          (true, seeded, false, V.run_bundle vm bu)
      | Some _ | None ->
          let bu = V.compile_bundle b.B.source in
          let pr =
            Sharedcache.publish cache ~ctx_uid:uid ~tenant key (V.Bundle bu)
          in
          (false, false, pr = Sharedcache.Published, V.run_bundle vm bu)
  in
  let status = status_of outcome in
  (match outcome with
  | Mtj_rjit.Driver.Runtime_error _ when shared ->
      (* a tenant program that faults must not keep serving from the
         cache: drop the artifact so the next request recompiles *)
      Sharedcache.invalidate cache key
  | _ ->
      (* only the winning, unseeded (cold) run attaches its profile:
         its execution is a pure function of the key, so whichever
         racer wins, the attached profile is byte-identical *)
      if published && profile_seed then
        ignore (Sharedcache.attach_profile cache key (V.export_profile vm)));
  let eng = V.engine vm in
  let jl = V.jitlog vm in
  let output = V.output vm in
  let digest =
    digest_of ~status ~insns:(Engine.total_insns eng)
      ~cycles:(Engine.total_cycles eng) ~output
      ~gc:(Mtj_rt.Gc_sim.stats (Ctx.gc (V.rtc vm)))
      ~jl
  in
  let out_digest = out_digest_of ~status ~output in
  (* the VM's last use: the next request on this worker takes over its
     machine tables *)
  Engine.release eng;
  {
    r_id = req.req_id;
    r_bench = req.req_bench;
    r_lang = lang;
    r_status = status;
    r_warm = warm;
    r_seeded = seeded;
    r_wall_s = Unix.gettimeofday () -. t0;
    r_shared_code_hits = jl.Jitlog.shared_code_hits;
    r_first_entry_insns = jl.Jitlog.first_entry_insns;
    r_digest = digest;
    r_out_digest = out_digest;
  }

(* --- the serving session --- *)

let serve ?jobs ?(budget = default_budget) ?(zipf_s = 1.1) ?(seed = 42)
    ?(shared = true) ?(profile_seed = true) ?(cache_capacity = 0)
    ?(tenant_quota = 0) ?(corpus = default_corpus) ?(corpus_size = 0)
    ~requests () : summary =
  let jobs = match jobs with Some j -> max 1 j | None -> Runner.jobs () in
  if corpus_size < 0 then invalid_arg "Serve.serve: corpus_size < 0";
  if corpus_size > List.length corpus then
    invalid_arg "Serve.serve: corpus_size exceeds the corpus";
  let corpus =
    if corpus_size = 0 then corpus
    else List.filteri (fun i _ -> i < corpus_size) corpus
  in
  (* each session owns its cache, so capacity and quota are session
     parameters and sessions never see each other's entries or stats *)
  let cache =
    Sharedcache.create ~capacity:cache_capacity ~tenant_quota ()
  in
  (* the serving config: the plain meta-tracing JIT under the session's
     tier policy, per-request budget *)
  let config = Runner.config_of ~budget Runner.Pypy_jit in
  let cfg_digest = Digest.to_hex (Digest.string (Marshal.to_string config [])) in
  let reqs =
    Array.to_list (gen_requests ~corpus ~requests ~zipf_s ~seed)
  in
  let t0 = Unix.gettimeofday () in
  let records =
    Array.of_list
      (Pool.map ~jobs
         (run_one ~shared ~profile_seed ~cache ~config ~cfg_digest)
         reqs)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let lat_ms =
    Array.map (fun r -> r.r_wall_s *. 1000.0) records
  in
  let split warm =
    Array.of_list
      (List.filter_map
         (fun r -> if r.r_warm = warm then Some (r.r_wall_s *. 1000.0) else None)
         (Array.to_list records))
  in
  let cold_ms = split false and warm_ms = split true in
  let p a q = if Array.length a = 0 then 0.0 else Report.percentile a q in
  (* warmup comparison: mean simulated insns to first compiled-trace
     entry, seeded vs unseeded requests (requests that never entered a
     trace, first_entry_insns = -1, are excluded from both) *)
  let mean_first pred =
    let n = ref 0 and sum = ref 0 in
    Array.iter
      (fun r ->
        if pred r && r.r_first_entry_insns >= 0 then begin
          incr n;
          sum := !sum + r.r_first_entry_insns
        end)
      records;
    if !n = 0 then 0.0 else float_of_int !sum /. float_of_int !n
  in
  {
    sv_requests = requests;
    sv_jobs = jobs;
    sv_zipf_s = zipf_s;
    sv_seed = seed;
    sv_shared = shared;
    sv_profile_seed = profile_seed;
    sv_cache_capacity = cache_capacity;
    sv_tenant_quota = tenant_quota;
    sv_corpus_size = List.length corpus;
    sv_budget = budget;
    sv_wall_s = wall;
    sv_throughput = (if wall > 0.0 then float_of_int requests /. wall else 0.0);
    sv_p50_ms = p lat_ms 50.0;
    sv_p95_ms = p lat_ms 95.0;
    sv_p99_ms = p lat_ms 99.0;
    sv_cold = Array.length cold_ms;
    sv_warm = Array.length warm_ms;
    sv_seeded =
      Array.fold_left (fun n r -> if r.r_seeded then n + 1 else n) 0 records;
    sv_cold_p50_ms = p cold_ms 50.0;
    sv_warm_p50_ms = p warm_ms 50.0;
    sv_seeded_first_entry_mean = mean_first (fun r -> r.r_seeded);
    sv_unseeded_first_entry_mean = mean_first (fun r -> not r.r_seeded);
    sv_cache_entries = Sharedcache.size cache;
    sv_cache = Sharedcache.stats cache;
    sv_records = records;
  }

(* --- export --- *)

let summary_json (s : summary) : J.t =
  let c = s.sv_cache in
  J.Obj
    [
      ("requests", J.Int s.sv_requests);
      ("jobs", J.Int s.sv_jobs);
      ("zipf_s", J.Float s.sv_zipf_s);
      ("seed", J.Int s.sv_seed);
      ("shared_cache", J.Bool s.sv_shared);
      ("profile_seed", J.Bool s.sv_profile_seed);
      ("cache_capacity", J.Int s.sv_cache_capacity);
      ("tenant_quota", J.Int s.sv_tenant_quota);
      ("corpus_size", J.Int s.sv_corpus_size);
      ("budget", J.Int s.sv_budget);
      ("wall_s", J.Float s.sv_wall_s);
      ("throughput_rps", J.Float s.sv_throughput);
      ( "latency_ms",
        J.Obj
          [
            ("p50", J.Float s.sv_p50_ms);
            ("p95", J.Float s.sv_p95_ms);
            ("p99", J.Float s.sv_p99_ms);
          ] );
      ( "cold",
        J.Obj [ ("count", J.Int s.sv_cold); ("p50_ms", J.Float s.sv_cold_p50_ms) ]
      );
      ( "warm",
        J.Obj [ ("count", J.Int s.sv_warm); ("p50_ms", J.Float s.sv_warm_p50_ms) ]
      );
      ( "seeded",
        J.Obj
          [
            ("count", J.Int s.sv_seeded);
            ("first_entry_insns_mean", J.Float s.sv_seeded_first_entry_mean);
          ] );
      ( "unseeded_first_entry_insns_mean",
        J.Float s.sv_unseeded_first_entry_mean );
      ("cache_entries", J.Int s.sv_cache_entries);
      ( "shared_cache_stats",
        J.Obj
          [
            ("shared_hits", J.Int c.Sharedcache.shared_hits);
            ("local_hits", J.Int c.Sharedcache.local_hits);
            ("misses", J.Int c.Sharedcache.misses);
            ("publications", J.Int c.Sharedcache.publications);
            ("invalidations", J.Int c.Sharedcache.invalidations);
            ("evictions", J.Int c.Sharedcache.evictions);
            ("requeues", J.Int c.Sharedcache.requeues);
            ("quota_rejections", J.Int c.Sharedcache.quota_rejections);
            ("profile_publications", J.Int c.Sharedcache.profile_publications);
            ("seeded_imports", J.Int c.Sharedcache.seeded_imports);
            ("contention", J.Int c.Sharedcache.contention);
          ] );
    ]

let print_summary oc (s : summary) =
  let c = s.sv_cache in
  let failed =
    Array.fold_left
      (fun n r -> if String.length r.r_status >= 6 && String.sub r.r_status 0 6 = "failed" then n + 1 else n)
      0 s.sv_records
  in
  Printf.fprintf oc
    "serve: %d requests, %d jobs, zipf_s=%.2f seed=%d budget=%d \
     shared-cache=%s profile-seed=%s capacity=%s quota=%s corpus=%d\n"
    s.sv_requests s.sv_jobs s.sv_zipf_s s.sv_seed s.sv_budget
    (if s.sv_shared then "on" else "off")
    (if s.sv_profile_seed then "on" else "off")
    (if s.sv_cache_capacity = 0 then "unbounded"
     else string_of_int s.sv_cache_capacity)
    (if s.sv_tenant_quota = 0 then "unbounded"
     else string_of_int s.sv_tenant_quota)
    s.sv_corpus_size;
  Printf.fprintf oc "  wall %.3f s   throughput %.1f req/s   failed %d\n"
    s.sv_wall_s s.sv_throughput failed;
  Printf.fprintf oc "  latency ms: p50 %.3f  p95 %.3f  p99 %.3f\n" s.sv_p50_ms
    s.sv_p95_ms s.sv_p99_ms;
  Printf.fprintf oc "  cold %d (p50 %.3f ms)   warm %d (p50 %.3f ms)\n"
    s.sv_cold s.sv_cold_p50_ms s.sv_warm s.sv_warm_p50_ms;
  Printf.fprintf oc
    "  warmup: %d seeded requests, first-trace-entry insns %.0f seeded vs \
     %.0f unseeded\n"
    s.sv_seeded s.sv_seeded_first_entry_mean s.sv_unseeded_first_entry_mean;
  Printf.fprintf oc
    "  shared cache: hits %d shared / %d local, misses %d, published %d, \
     invalidated %d, contention %d\n"
    c.Sharedcache.shared_hits c.Sharedcache.local_hits c.Sharedcache.misses
    c.Sharedcache.publications c.Sharedcache.invalidations
    c.Sharedcache.contention;
  Printf.fprintf oc
    "  bounded cache: %d live entries, evicted %d, requeued %d, \
     quota-rejected %d, profiles %d, seeded imports %d\n"
    s.sv_cache_entries c.Sharedcache.evictions c.Sharedcache.requeues
    c.Sharedcache.quota_rejections c.Sharedcache.profile_publications
    c.Sharedcache.seeded_imports
