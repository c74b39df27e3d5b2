(** Differential tests for the serving harness: the simulated side of a
    serving session is byte-identical across shared-cache mode and job
    count (the shared cache may only change host wall time), the Zipf
    workload generator is exactly reproducible from its seed, and the
    nearest-rank percentile helper is exact.

    The workload includes richards — the bridge-heaviest program in the
    registry — so trace compilation, guard failure, bridge attachment
    and [Ir.invalidate_code]-driven recompilation all run on both the
    compiled-locally and imported-bundle paths. *)

module S = Mtj_harness.Serve
module B = Mtj_benchmarks.Registry
module Report = Mtj_harness.Report

(* --- percentile (exact nearest-rank) --- *)

let test_percentile () =
  let check = Alcotest.(check (float 1e-9)) in
  check "p50 of 4" 2.0 (Report.percentile [| 4.; 1.; 3.; 2. |] 50.0);
  check "p100 is max" 4.0 (Report.percentile [| 4.; 1.; 3.; 2. |] 100.0);
  check "p1 is min" 1.0 (Report.percentile [| 4.; 1.; 3.; 2. |] 1.0);
  check "singleton" 7.5 (Report.percentile [| 7.5 |] 99.0);
  (* nearest rank, no interpolation: p95 of 1..100 is the 95th smallest *)
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check "p95 of 1..100" 95.0 (Report.percentile xs 95.0);
  check "p99 of 1..100" 99.0 (Report.percentile xs 99.0);
  check "p50 of 1..100" 50.0 (Report.percentile xs 50.0);
  (* ceil semantics: p50 of 5 elements is the 3rd smallest *)
  check "p50 of 5" 3.0 (Report.percentile [| 5.; 4.; 3.; 2.; 1. |] 50.0);
  (match Report.percentile [||] 50.0 with
  | _ -> Alcotest.fail "empty sample set should raise"
  | exception Invalid_argument _ -> ());
  match Report.percentile [| 1.0 |] 0.0 with
  | _ -> Alcotest.fail "p=0 should raise"
  | exception Invalid_argument _ -> ()

(* --- workload generator --- *)

let test_zipf_stream_golden () =
  let reqs =
    S.gen_requests ~corpus:S.default_corpus ~requests:5000 ~zipf_s:1.1
      ~seed:42
  in
  Alcotest.(check int) "stream length" 5000 (Array.length reqs);
  (* regenerating from the same seed gives the same stream, element by
     element; a different seed diverges *)
  let again =
    S.gen_requests ~corpus:S.default_corpus ~requests:5000 ~zipf_s:1.1
      ~seed:42
  in
  Array.iteri
    (fun i r ->
      if r.S.req_bench <> again.(i).S.req_bench then
        Alcotest.failf "request %d differs across regenerations" i)
    reqs;
  let other =
    S.gen_requests ~corpus:S.default_corpus ~requests:5000 ~zipf_s:1.1
      ~seed:43
  in
  let same = ref true in
  Array.iteri
    (fun i r -> if r.S.req_bench <> other.(i).S.req_bench then same := false)
    reqs;
  Alcotest.(check bool) "different seed diverges" false !same;
  (* Zipf shape: rank 1 strictly more popular than rank 2, which beats
     the tail; every corpus entry appears in a long stream *)
  let count name =
    Array.fold_left
      (fun n r -> if r.S.req_bench = name then n + 1 else n)
      0 reqs
  in
  let rank1 = count "richards" and rank2 = count "nbody_modified" in
  Alcotest.(check bool) "rank 1 beats rank 2" true (rank1 > rank2);
  Alcotest.(check bool)
    "rank 1 dominates" true
    (rank1 > Array.length reqs / 4);
  List.iter
    (fun (_, name) ->
      Alcotest.(check bool) (name ^ " appears") true (count name > 0))
    S.default_corpus;
  (* an exponent that is not finite and positive is rejected *)
  List.iter
    (fun zipf_s ->
      match
        S.gen_requests ~corpus:S.default_corpus ~requests:1 ~zipf_s ~seed:42
      with
      | _ -> Alcotest.failf "zipf_s %g should raise" zipf_s
      | exception Invalid_argument _ -> ())
    [ 0.0; -1.0; Float.nan; Float.infinity ]

(* --- serving differential: simulated state is mode- and jobs-invariant --- *)

(* a small mixed corpus with richards (bridge-heavy) up front *)
let corpus =
  [ (B.Py, "richards"); (B.Rk, "mandelbrot"); (B.Py, "telco") ]

(* the budget must let a COLD run compile its hot loop (richards first
   enters a trace around 870k simulated insns) — otherwise published
   profiles carry no hot sites and the seeding tests measure nothing *)
let run ?(profile_seed = false) ?(cache_capacity = 0) ?(tenant_quota = 0)
    ~jobs ~shared () =
  S.serve ~jobs ~budget:1_000_000 ~zipf_s:1.1 ~seed:7 ~shared ~profile_seed
    ~cache_capacity ~tenant_quota ~corpus ~requests:48 ()

let sim_view (s : S.summary) =
  Array.to_list
    (Array.map
       (fun (r : S.record) ->
         Printf.sprintf "%d %s/%s %s %s" r.S.r_id r.S.r_lang r.S.r_bench
           r.S.r_status r.S.r_digest)
       s.S.sv_records)

let out_view (s : S.summary) =
  Array.to_list
    (Array.map
       (fun (r : S.record) ->
         Printf.sprintf "%d %s/%s %s" r.S.r_id r.S.r_lang r.S.r_bench
           r.S.r_out_digest)
       s.S.sv_records)

(* full simulated digests, with profile seeding off: invariant across
   shared-cache mode, job count and eviction churn *)
let test_mode_and_jobs_invariance () =
  let base = run ~jobs:1 ~shared:false () in
  let view = sim_view base in
  List.iter
    (fun (jobs, shared, cache_capacity) ->
      let s = run ~jobs ~shared ~cache_capacity () in
      List.iter2
        (fun a b ->
          if a <> b then
            Alcotest.failf
              "request differs at jobs=%d shared=%b capacity=%d:\n  %s\n  %s"
              jobs shared cache_capacity a b)
        view (sim_view s))
    [ (1, true, 0); (3, true, 0); (3, false, 0); (3, true, 2) ]

(* program outputs, across EVERYTHING — seeding on or off, bounded or
   unbounded cache, any job count: seeding and eviction may move when
   the JIT kicks in, never what the tenant program computes *)
let test_output_digest_invariance () =
  let base = run ~jobs:1 ~shared:false () in
  let view = out_view base in
  List.iter
    (fun (jobs, shared, profile_seed, cache_capacity) ->
      let s = run ~jobs ~shared ~profile_seed ~cache_capacity () in
      List.iter2
        (fun a b ->
          if a <> b then
            Alcotest.failf
              "output differs at jobs=%d shared=%b seed=%b capacity=%d:\n\
              \  %s\n  %s"
              jobs shared profile_seed cache_capacity a b)
        view (out_view s))
    [
      (1, true, true, 0);
      (3, true, true, 0);
      (1, true, true, 2);
      (3, true, true, 2);
      (3, true, false, 2);
    ]

(* at jobs=1 the pool executes the stream in order, so a seeded session
   is fully deterministic: same session twice, byte-identical records —
   the seed-determinism golden the CI lane relies on *)
let test_seeded_determinism () =
  let a = run ~jobs:1 ~shared:true ~profile_seed:true () in
  let b = run ~jobs:1 ~shared:true ~profile_seed:true () in
  List.iter2
    (fun x y ->
      if x <> y then
        Alcotest.failf "seeded -j1 session not deterministic:\n  %s\n  %s" x y)
    (sim_view a) (sim_view b);
  Alcotest.(check int) "same seeded count" a.S.sv_seeded b.S.sv_seeded;
  Alcotest.(check bool) "some requests were seeded" true (a.S.sv_seeded > 0);
  (* and seeding actually differs from the unseeded session's simulated
     state (the JIT traces earlier), while outputs stay equal *)
  let u = run ~jobs:1 ~shared:true ~profile_seed:false () in
  Alcotest.(check bool)
    "seeded sim state differs from unseeded" true
    (sim_view a <> sim_view u);
  List.iter2
    (fun x y ->
      if x <> y then
        Alcotest.failf "seeded/unseeded outputs differ:\n  %s\n  %s" x y)
    (out_view a) (out_view u)

(* the point of the tentpole: seeded warm requests reach the JIT in
   measurably fewer simulated instructions than unseeded ones *)
let test_seeding_warmup_win () =
  let s = run ~jobs:1 ~shared:true ~profile_seed:true () in
  Alcotest.(check bool) "seeded requests exist" true (s.S.sv_seeded > 0);
  Alcotest.(check bool)
    "seeded mean first-entry > 0" true
    (s.S.sv_seeded_first_entry_mean > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "seeded first entry %.0f < unseeded %.0f"
       s.S.sv_seeded_first_entry_mean s.S.sv_unseeded_first_entry_mean)
    true
    (s.S.sv_seeded_first_entry_mean < s.S.sv_unseeded_first_entry_mean);
  (* per-bench, strictly: every seeded request that entered a trace did
     so no later than the cold request for the same program *)
  let cold_first = Hashtbl.create 8 in
  Array.iter
    (fun (r : S.record) ->
      if (not r.S.r_warm) && r.S.r_first_entry_insns >= 0 then
        Hashtbl.replace cold_first (r.S.r_lang, r.S.r_bench)
          r.S.r_first_entry_insns)
    s.S.sv_records;
  Array.iter
    (fun (r : S.record) ->
      if r.S.r_seeded && r.S.r_first_entry_insns >= 0 then
        match Hashtbl.find_opt cold_first (r.S.r_lang, r.S.r_bench) with
        | Some cold ->
            Alcotest.(check bool)
              (Printf.sprintf "%s seeded first entry %d < cold %d" r.S.r_bench
                 r.S.r_first_entry_insns cold)
              true
              (r.S.r_first_entry_insns < cold)
        | None -> ())
    s.S.sv_records;
  let c = s.S.sv_cache in
  Alcotest.(check bool)
    "profiles were attached" true
    (c.Mtj_rjit.Sharedcache.profile_publications > 0);
  Alcotest.(check int)
    "every seeded request is a seeded import" s.S.sv_seeded
    c.Mtj_rjit.Sharedcache.seeded_imports

(* warm requests really import from the shared cache, and the summary's
   accounting invariants hold on a live session *)
let test_shared_cache_accounting () =
  let s = run ~jobs:3 ~shared:true () in
  Alcotest.(check int) "every request warm or cold" 48 (s.S.sv_cold + s.S.sv_warm);
  let c = s.S.sv_cache in
  Alcotest.(check int)
    "one lookup per request" 48
    (c.Mtj_rjit.Sharedcache.shared_hits + c.Mtj_rjit.Sharedcache.local_hits
   + c.Mtj_rjit.Sharedcache.misses);
  Alcotest.(check int)
    "every hit is a warm request" s.S.sv_warm
    (c.Mtj_rjit.Sharedcache.shared_hits + c.Mtj_rjit.Sharedcache.local_hits);
  Alcotest.(check bool)
    "publications bounded by misses" true
    (c.Mtj_rjit.Sharedcache.publications <= c.Mtj_rjit.Sharedcache.misses);
  (* only 3 distinct (lang, program, config) keys exist *)
  Alcotest.(check bool)
    "at most one publication per key" true
    (c.Mtj_rjit.Sharedcache.publications <= 3);
  Alcotest.(check bool) "cache warmed up" true (s.S.sv_warm >= 40);
  (* per-request jitlog accounting: warm requests imported whole
     bundles, cold ones imported nothing *)
  Array.iter
    (fun (r : S.record) ->
      if r.S.r_warm then
        Alcotest.(check bool)
          "warm request counted shared code hits" true
          (r.S.r_shared_code_hits > 0)
      else
        Alcotest.(check int) "cold request has no shared hits" 0
          r.S.r_shared_code_hits)
    s.S.sv_records;
  (* the session with the cache off never touches it *)
  let off = run ~jobs:3 ~shared:false () in
  Alcotest.(check int) "off: all cold" 48 off.S.sv_cold;
  let oc = off.S.sv_cache in
  Alcotest.(check int) "off: no lookups" 0
    (oc.Mtj_rjit.Sharedcache.shared_hits + oc.Mtj_rjit.Sharedcache.local_hits
   + oc.Mtj_rjit.Sharedcache.misses + oc.Mtj_rjit.Sharedcache.publications)

(* a tiny-capacity session churns the cache and still serves every
   request; the bounded-cache accounting invariants hold live *)
let test_eviction_churn_accounting () =
  let s = run ~jobs:3 ~shared:true ~profile_seed:true ~cache_capacity:2 () in
  Alcotest.(check int) "every request warm or cold" 48 (s.S.sv_cold + s.S.sv_warm);
  Alcotest.(check bool) "bounded size" true (s.S.sv_cache_entries <= 2);
  let c = s.S.sv_cache in
  (* 3 distinct keys over capacity 2: something must have been evicted
     and the evicted rank re-published later *)
  Alcotest.(check bool) "evictions happened" true
    (c.Mtj_rjit.Sharedcache.evictions > 0);
  Alcotest.(check bool) "evicted keys requeued" true
    (c.Mtj_rjit.Sharedcache.requeues > 0);
  Alcotest.(check bool)
    "evictions bounded by publications" true
    (c.Mtj_rjit.Sharedcache.evictions <= c.Mtj_rjit.Sharedcache.publications);
  Alcotest.(check bool)
    "publication attempts bounded by misses" true
    (c.Mtj_rjit.Sharedcache.publications
     + c.Mtj_rjit.Sharedcache.quota_rejections
    <= c.Mtj_rjit.Sharedcache.misses);
  Alcotest.(check int)
    "one lookup per request" 48
    (c.Mtj_rjit.Sharedcache.shared_hits + c.Mtj_rjit.Sharedcache.local_hits
   + c.Mtj_rjit.Sharedcache.misses)

(* --- the cache itself: LRU order and tenant quotas, deterministically --- *)

module SC = Mtj_rjit.Sharedcache

type SC.entry += Tok of string

let test_lru_eviction_order () =
  (* one shard, capacity two: eviction order is fully deterministic *)
  let t = SC.create ~shards:1 ~capacity:2 () in
  let pub k =
    match SC.publish t ~ctx_uid:0 k (Tok k) with
    | SC.Published -> ()
    | SC.Exists | SC.Quota_rejected -> Alcotest.failf "publish %s refused" k
  in
  pub "A";
  pub "B";
  (* touch A: B becomes the LRU entry *)
  (match SC.find_with_profile t ~ctx_uid:0 "A" with
  | Some (Tok "A", None) -> ()
  | _ -> Alcotest.fail "A not found");
  pub "C";
  Alcotest.(check (list (list string))) "C evicted B, A survived"
    [ [ "C"; "A" ] ] (SC.recency t);
  Alcotest.(check bool) "B gone" true (SC.find_with_profile t ~ctx_uid:0 "B" = None);
  (* re-publishing the evicted B counts a requeue and evicts A (now LRU:
     the miss on B did not touch anything, C is the most recent) *)
  pub "B";
  Alcotest.(check (list (list string))) "B requeued, A evicted"
    [ [ "B"; "C" ] ] (SC.recency t);
  let st = SC.stats t in
  Alcotest.(check int) "two evictions" 2 st.SC.evictions;
  Alcotest.(check int) "one requeue" 1 st.SC.requeues;
  Alcotest.(check int) "four publications" 4 st.SC.publications;
  Alcotest.(check int) "size stays at capacity" 2 (SC.size t)

let test_tenant_quota () =
  let t = SC.create ~tenant_quota:1 () in
  Alcotest.(check bool) "first publication admitted" true
    (SC.publish t ~ctx_uid:0 ~tenant:"py:a" "k1" (Tok "k1") = SC.Published);
  (* same tenant, second live entry: refused, and nothing was stored *)
  Alcotest.(check bool) "second rejected" true
    (SC.publish t ~ctx_uid:0 ~tenant:"py:a" "k2" (Tok "k2")
    = SC.Quota_rejected);
  Alcotest.(check bool) "rejected key absent" true
    (SC.find_with_profile t ~ctx_uid:0 "k2" = None);
  (* another tenant is unaffected *)
  Alcotest.(check bool) "other tenant admitted" true
    (SC.publish t ~ctx_uid:0 ~tenant:"rk:b" "k3" (Tok "k3") = SC.Published);
  (* invalidation releases the slot *)
  SC.invalidate t "k1";
  Alcotest.(check bool) "slot released after invalidate" true
    (SC.publish t ~ctx_uid:0 ~tenant:"py:a" "k2" (Tok "k2") = SC.Published);
  let st = SC.stats t in
  Alcotest.(check int) "one quota rejection counted" 1 st.SC.quota_rejections;
  Alcotest.(check int) "three publications" 3 st.SC.publications

let suite =
  [
    Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
    Alcotest.test_case "zipf stream is seed-deterministic" `Quick
      test_zipf_stream_golden;
    Alcotest.test_case "sim state invariant across mode and jobs" `Slow
      test_mode_and_jobs_invariance;
    Alcotest.test_case "program outputs invariant across seeding/eviction"
      `Slow test_output_digest_invariance;
    Alcotest.test_case "seeded -j1 session is deterministic" `Slow
      test_seeded_determinism;
    Alcotest.test_case "seeding reaches the JIT sooner" `Slow
      test_seeding_warmup_win;
    Alcotest.test_case "shared-cache accounting" `Slow
      test_shared_cache_accounting;
    Alcotest.test_case "eviction-churn accounting (tiny capacity)" `Slow
      test_eviction_churn_accounting;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "tenant quota" `Quick test_tenant_quota;
  ]
