type trace_stats = {
  events : int;
  track_names : string list;
  duration_tracks : int;
  counter_tracks : int;
  instants : int;
  auto_closed : int;
  phase_self_cycles : (string * float) list;
}

exception Invalid of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Invalid msg)) fmt

let need what = function Some v -> v | None -> fail "missing %s" what

let str_field j key =
  need (key ^ " (string)") (Option.bind (Json.member key j) Json.get_str)

let int_field j key =
  need (key ^ " (int)") (Option.bind (Json.member key j) Json.get_int)

let num_field j key =
  need (key ^ " (number)") (Option.bind (Json.member key j) Json.get_num)

let arr_field j key =
  need (key ^ " (array)") (Option.bind (Json.member key j) Json.get_arr)

let check_schema j expected =
  let s = str_field j "schema" in
  if s <> expected then fail "schema %S, expected %S" s expected

let wrap f j = match f j with v -> Ok v | exception Invalid msg -> Error msg

(* --- chrome trace --- *)

let trace_exn j =
  check_schema j "mtj-trace/1";
  let events = arr_field j "traceEvents" in
  (* per-tid span stacks: tid -> (name, begin ts) list *)
  let stacks : (int, (string * float) list) Hashtbl.t = Hashtbl.create 8 in
  let counter_names = Hashtbl.create 8 in
  let duration_tids = Hashtbl.create 8 in
  (* tid -> the name its thread_name metadata declares, newest first *)
  let declared = ref [] in
  let instants = ref 0 in
  let auto_closed = ref 0 in
  let prev_ts = ref neg_infinity in
  (* innermost-phase attribution over the combined phase/gc stream *)
  let phase_self : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let phase_stack = ref [] in
  let phase_last_ts = ref 0.0 in
  let accrue ts =
    (match !phase_stack with
    | [] -> ()
    | top :: _ ->
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt phase_self top) in
        Hashtbl.replace phase_self top (prev +. (ts -. !phase_last_ts)));
    phase_last_ts := ts
  in
  let n = ref 0 in
  List.iteri
    (fun i ev ->
      incr n;
      let ph = str_field ev "ph" in
      if ph = "M" then begin
        if str_field ev "name" = "thread_name" then
          declared :=
            ( int_field ev "tid",
              need "thread_name args.name"
                (Option.bind
                   (Option.bind (Json.member "args" ev) (Json.member "name"))
                   Json.get_str) )
            :: !declared
      end
      else begin
        let ts = num_field ev "ts" in
        if Float.is_nan ts then fail "event %d: NaN timestamp" i;
        if ts < !prev_ts then
          fail "event %d: timestamp %g before previous %g" i ts !prev_ts;
        prev_ts := ts;
        let tid = int_field ev "tid" in
        match ph with
        | "B" ->
            let name = str_field ev "name" in
            let cat = str_field ev "cat" in
            Hashtbl.replace duration_tids tid ();
            let st =
              Option.value ~default:[] (Hashtbl.find_opt stacks tid)
            in
            Hashtbl.replace stacks tid ((name, ts) :: st);
            if cat = "phase" || cat = "gc" then begin
              accrue ts;
              phase_stack := name :: !phase_stack
            end
        | "E" -> (
            let name = str_field ev "name" in
            let cat = str_field ev "cat" in
            (match Option.bind (Json.member "args" ev)
                     (Json.member "auto_closed")
             with
            | Some (Json.Bool true) -> incr auto_closed
            | _ -> ());
            (match Hashtbl.find_opt stacks tid with
            | Some ((open_name, _) :: rest) ->
                if open_name <> name then
                  fail "event %d: E %S closes open span %S on tid %d" i name
                    open_name tid;
                Hashtbl.replace stacks tid rest
            | _ -> fail "event %d: E %S on tid %d with no open span" i name tid);
            match cat with
            | "phase" | "gc" -> (
                accrue ts;
                match !phase_stack with
                | top :: rest ->
                    if top <> name then
                      fail "event %d: phase E %S but innermost phase is %S" i
                        name top;
                    phase_stack := rest
                | [] -> fail "event %d: phase E %S with empty phase stack" i name)
            | _ -> ())
        | "i" ->
            ignore (str_field ev "name");
            incr instants
        | "C" ->
            let name = str_field ev "name" in
            let v =
              need "counter args.value"
                (Option.bind
                   (Option.bind (Json.member "args" ev) (Json.member "value"))
                   Json.get_num)
            in
            if Float.is_nan v || v = Float.infinity || v < 0.0 then
              fail "event %d: counter %S has bad value %g" i name v;
            Hashtbl.replace counter_names name ()
        | ph -> fail "event %d: unknown ph %S" i ph
      end)
    events;
  Hashtbl.iter
    (fun tid st ->
      match st with
      | [] -> ()
      | (name, _) :: _ -> fail "span %S left open on tid %d" name tid)
    stacks;
  Hashtbl.iter
    (fun tid () ->
      if not (List.mem_assoc tid !declared) then
        fail "spans on tid %d, which no thread_name declares" tid)
    duration_tids;
  if !phase_stack <> [] then fail "phase stack not empty at end of stream";
  let phase_self_cycles =
    List.filter_map
      (fun p ->
        let name = Mtj_core.Phase.name p in
        Option.map (fun c -> (name, c)) (Hashtbl.find_opt phase_self name))
      Mtj_core.Phase.all
  in
  {
    events = !n;
    track_names = List.rev_map snd !declared;
    duration_tracks = Hashtbl.length duration_tids;
    counter_tracks = Hashtbl.length counter_names;
    instants = !instants;
    auto_closed = !auto_closed;
    phase_self_cycles;
  }

let trace = wrap trace_exn

(* --- metrics --- *)

let check_rate run what j key =
  match Option.bind (Json.member key j) Json.get_num with
  | None -> fail "run %s: %s missing %s" run what key
  | Some v ->
      if Float.is_nan v || v < 0.0 || v > 1.0 then
        fail "run %s: %s %s=%g outside [0,1]" run what key v

let check_snapshot run what j =
  List.iter
    (fun key ->
      if int_field j key < 0 then fail "run %s: %s %s negative" run what key)
    [ "insns"; "branches"; "branch_misses"; "loads"; "stores"; "cache_misses" ];
  if num_field j "cycles" < 0.0 then fail "run %s: %s cycles negative" run what;
  if num_field j "ipc" < 0.0 then fail "run %s: %s ipc negative" run what;
  check_rate run what j "branch_miss_rate";
  check_rate run what j "cache_miss_rate"

(* jit block (v2): threaded-code cache counters.  Every registered trace
   is translated at compile time, so [translations] dominates the trace
   count and each per-trace row carries at least one translation. *)
let check_jit run j insns =
  match Json.member "jit" j with
  | None | Some Json.Null -> ()
  | Some jit ->
      let num_traces = int_field jit "num_traces" in
      let translations = int_field jit "translations" in
      let hits = int_field jit "code_cache_hits" in
      if translations < 0 then fail "run %s: negative translations" run;
      if hits < 0 then fail "run %s: negative code_cache_hits" run;
      if translations < num_traces then
        fail "run %s: translations %d < num_traces %d" run translations
          num_traces;
      (* shared-cache split (v7): [code_cache_hits] is the same-context
         ("local") side, [shared_code_hits] counts cross-context imports,
         and the exported total must be exactly their sum — the
         accounting invariant that keeps the two tiers from double- or
         under-counting each other. *)
      let shared_hits = int_field jit "shared_code_hits" in
      let total_hits = int_field jit "code_cache_total_hits" in
      if shared_hits < 0 then fail "run %s: negative shared_code_hits" run;
      if total_hits <> hits + shared_hits then
        fail "run %s: code_cache_total_hits %d <> local %d + shared %d" run
          total_hits hits shared_hits;
      (* threaded interpreter tier (v4): a cache can only hit after at
         least one code object was translated into it *)
      let itrans = int_field jit "interp_translations" in
      let ihits = int_field jit "threaded_code_hits" in
      if itrans < 0 then fail "run %s: negative interp_translations" run;
      if ihits < 0 then fail "run %s: negative threaded_code_hits" run;
      if ihits > 0 && itrans = 0 then
        fail "run %s: threaded_code_hits %d with no interp_translations" run
          ihits;
      (* multi-tier counters (v6).  Every compile is exactly one tier-1
         or tier-2 compile; every promotion (retier) recompiled a tier-1
         loop through the optimizer, so promotions are bounded by tier-1
         compiles; demotions recompile an optimized loop, so they are
         bounded by tier-2 compiles; and the first compiled-trace entry
         cannot happen after the end of the run. *)
      let t1c = int_field jit "tier1_compiles" in
      let t2c = int_field jit "tier2_compiles" in
      let demotions = int_field jit "demotions" in
      let retiers = int_field jit "retiers" in
      let first_entry = int_field jit "first_entry_insns" in
      if t1c < 0 then fail "run %s: negative tier1_compiles" run;
      if t2c < 0 then fail "run %s: negative tier2_compiles" run;
      if demotions < 0 then fail "run %s: negative demotions" run;
      if t1c + t2c <> num_traces then
        fail "run %s: tier compiles %d+%d <> num_traces %d" run t1c t2c
          num_traces;
      if retiers > t1c then
        fail "run %s: tier2 promotions %d > tier1 compiles %d" run retiers t1c;
      if demotions > t2c then
        fail "run %s: demotions %d > tier2 compiles %d" run demotions t2c;
      if first_entry < -1 then
        fail "run %s: first_entry_insns %d < -1" run first_entry;
      if first_entry > insns then
        fail "run %s: first_entry_insns %d exceeds run insns %d" run
          first_entry insns;
      (* profile seeding (v9): seeded sites are loop sites, bounded by
         nothing the document carries per run except non-negativity *)
      if int_field jit "seeded_sites" < 0 then
        fail "run %s: negative seeded_sites" run;
      (* per-tier residency reconciles exactly with the trace rows *)
      let residency =
        need (run ^ " jit.tier_residency")
          (Json.member "tier_residency" jit)
      in
      let r_t1e = int_field residency "tier1_entries" in
      let r_t2e = int_field residency "tier2_entries" in
      let r_t1d = int_field residency "tier1_dynamic_ir" in
      let r_t2d = int_field residency "tier2_dynamic_ir" in
      let s_t1e = ref 0 and s_t2e = ref 0 in
      let s_t1d = ref 0 and s_t2d = ref 0 in
      let s_hits = ref 0 in
      let entered = ref false in
      List.iter
        (fun tr ->
          let id = int_field tr "id" in
          if int_field tr "translations" < 1 then
            fail "run %s: trace %d never translated" run id;
          if int_field tr "cache_hits" < 0 then
            fail "run %s: trace %d negative cache_hits" run id;
          s_hits := !s_hits + int_field tr "cache_hits";
          if int_field tr "deopts" < 0 then
            fail "run %s: trace %d negative deopts" run id;
          if int_field tr "bridges" < 0 then
            fail "run %s: trace %d negative bridges" run id;
          let entries = int_field tr "entries" in
          if entries > 0 then entered := true;
          let dyn = int_field tr "dynamic_ir" in
          if int_field tr "tier" <= 1 then begin
            s_t1e := !s_t1e + entries;
            s_t1d := !s_t1d + dyn
          end
          else begin
            s_t2e := !s_t2e + entries;
            s_t2d := !s_t2d + dyn
          end)
        (arr_field jit "traces");
      if (r_t1e, r_t2e, r_t1d, r_t2d) <> (!s_t1e, !s_t2e, !s_t1d, !s_t2d) then
        fail
          "run %s: tier_residency (%d,%d,%d,%d) <> trace-row sums \
           (%d,%d,%d,%d)"
          run r_t1e r_t2e r_t1d r_t2d !s_t1e !s_t2e !s_t1d !s_t2d;
      (* the warmup latch fires at the first trace entry, so it is set
         exactly when some trace row counts an entry *)
      if (first_entry >= 0) <> !entered then
        fail "run %s: first_entry_insns %d but %s trace row has entries" run
          first_entry
          (if !entered then "a" else "no");
      (* every local hit is attributed to exactly one trace row, so the
         row sums must reconcile with the machinery counter (v7:
         no-double-counting between the local and shared tiers) *)
      if !s_hits <> hits then
        fail "run %s: trace-row cache_hits sum %d <> code_cache_hits %d" run
          !s_hits hits

(* serve block (v7): a serving session's latency/throughput summary and
   shared-cache counters.  Invariants: percentiles are ordered; every
   request is either cold or warm; with the shared cache off nothing may
   touch it (a session resets the counters); with it on, every request
   performs exactly one lookup, every hit is a warm request, and only a
   miss can publish. *)
let check_serve j =
  match Json.member "serve" j with
  | None | Some Json.Null -> ()
  | Some s ->
      let bool_field key =
        match Json.member key s with
        | Some (Json.Bool b) -> b
        | _ -> fail "serve: missing %s (bool)" key
      in
      let requests = int_field s "requests" in
      if requests < 1 then fail "serve: requests < 1";
      if int_field s "jobs" < 1 then fail "serve: jobs < 1";
      let zipf_s = num_field s "zipf_s" in
      if not (zipf_s > 0.0) then fail "serve: zipf_s %g not > 0" zipf_s;
      if num_field s "wall_s" < 0.0 then fail "serve: negative wall_s";
      if num_field s "throughput_rps" < 0.0 then
        fail "serve: negative throughput_rps";
      let lat = need "serve.latency_ms" (Json.member "latency_ms" s) in
      let p50 = num_field lat "p50" in
      let p95 = num_field lat "p95" in
      let p99 = num_field lat "p99" in
      if p50 < 0.0 then fail "serve: negative p50";
      if not (p50 <= p95 && p95 <= p99) then
        fail "serve: percentiles not ordered (p50 %g, p95 %g, p99 %g)" p50 p95
          p99;
      let cold = need "serve.cold" (Json.member "cold" s) in
      let warm = need "serve.warm" (Json.member "warm" s) in
      let n_cold = int_field cold "count" in
      let n_warm = int_field warm "count" in
      if n_cold < 0 || n_warm < 0 then fail "serve: negative warm/cold count";
      if n_cold + n_warm <> requests then
        fail "serve: cold %d + warm %d <> requests %d" n_cold n_warm requests;
      if num_field cold "p50_ms" < 0.0 || num_field warm "p50_ms" < 0.0 then
        fail "serve: negative warm/cold p50";
      (* bounded-cache and seeding knobs (v9) *)
      let capacity = int_field s "cache_capacity" in
      let quota = int_field s "tenant_quota" in
      let corpus_size = int_field s "corpus_size" in
      let cache_entries = int_field s "cache_entries" in
      if capacity < 0 then fail "serve: negative cache_capacity";
      if quota < 0 then fail "serve: negative tenant_quota";
      if corpus_size < 1 then fail "serve: corpus_size < 1";
      if cache_entries < 0 then fail "serve: negative cache_entries";
      if capacity > 0 && cache_entries > capacity then
        fail "serve: cache_entries %d exceeds cache_capacity %d" cache_entries
          capacity;
      let seeded = need "serve.seeded" (Json.member "seeded" s) in
      let n_seeded = int_field seeded "count" in
      if n_seeded < 0 then fail "serve: negative seeded count";
      if n_seeded > n_warm then
        fail "serve: seeded %d > warm %d" n_seeded n_warm;
      if num_field seeded "first_entry_insns_mean" < 0.0 then
        fail "serve: negative seeded first-entry mean";
      if num_field s "unseeded_first_entry_insns_mean" < 0.0 then
        fail "serve: negative unseeded first-entry mean";
      let st = need "serve.shared_cache_stats" (Json.member "shared_cache_stats" s) in
      let shared_hits = int_field st "shared_hits" in
      let local_hits = int_field st "local_hits" in
      let misses = int_field st "misses" in
      let pubs = int_field st "publications" in
      let evictions = int_field st "evictions" in
      let requeues = int_field st "requeues" in
      let quota_rejections = int_field st "quota_rejections" in
      let profile_pubs = int_field st "profile_publications" in
      let seeded_imports = int_field st "seeded_imports" in
      List.iter
        (fun key ->
          if int_field st key < 0 then fail "serve: negative %s" key)
        [ "shared_hits"; "local_hits"; "misses"; "publications";
          "invalidations"; "evictions"; "requeues"; "quota_rejections";
          "profile_publications"; "seeded_imports"; "contention" ];
      if bool_field "shared_cache" then begin
        if shared_hits + local_hits + misses <> requests then
          fail "serve: hits %d+%d + misses %d <> requests %d" shared_hits
            local_hits misses requests;
        if shared_hits + local_hits <> n_warm then
          fail "serve: hits %d+%d <> warm count %d" shared_hits local_hits
            n_warm;
        (* a publication is attempted exactly on a miss, and resolves to
           a success or a quota rejection — the attempts cannot exceed
           the misses *)
        if pubs + quota_rejections > misses then
          fail "serve: publications %d + quota_rejections %d > misses %d" pubs
            quota_rejections misses;
        (* each eviction (and each requeue) is triggered by a successful
           publication; each attached profile annotates one *)
        if evictions > pubs then
          fail "serve: evictions %d > publications %d" evictions pubs;
        if requeues > pubs then
          fail "serve: requeues %d > publications %d" requeues pubs;
        if profile_pubs > pubs then
          fail "serve: profile_publications %d > publications %d" profile_pubs
            pubs;
        (* a seeded import is a cache hit that carried a profile, and
           every seeded request made exactly one *)
        if seeded_imports > shared_hits + local_hits then
          fail "serve: seeded_imports %d > hits %d" seeded_imports
            (shared_hits + local_hits);
        if n_seeded > seeded_imports then
          fail "serve: seeded requests %d > seeded_imports %d" n_seeded
            seeded_imports;
        if capacity = 0 && evictions + requeues > 0 then
          fail "serve: unbounded cache but evictions/requeues nonzero";
        if quota = 0 && quota_rejections > 0 then
          fail "serve: unbounded quota but quota_rejections nonzero";
        if not (bool_field "profile_seed")
           && n_seeded + seeded_imports + profile_pubs > 0
        then fail "serve: profile_seed off but seeding counters nonzero"
      end
      else if shared_hits + local_hits + misses + pubs > 0 then
        fail "serve: shared cache off but cache counters nonzero"

let metrics_exn j =
  check_schema j "mtj-metrics/12";
  check_serve j;
  let runs = arr_field j "runs" in
  List.iter
    (fun run ->
      let label =
        Printf.sprintf "%s/%s" (str_field run "bench") (str_field run "config")
      in
      ignore (str_field run "status");
      let insns = int_field run "insns" in
      if insns < 0 then fail "run %s: negative insns" label;
      if num_field run "cycles" < 0.0 then fail "run %s: negative cycles" label;
      let phases =
        need "phases (object)"
          (Option.bind (Json.member "phases" run) Json.get_obj)
      in
      let total =
        need (label ^ " phases.total")
          (List.assoc_opt "total" phases)
      in
      check_snapshot label "total" total;
      let sum = ref 0 in
      List.iter
        (fun (name, snap) ->
          if name <> "total" then begin
            check_snapshot label name snap;
            sum := !sum + int_field snap "insns"
          end)
        phases;
      let total_insns = int_field total "insns" in
      if !sum <> total_insns then
        fail "run %s: per-phase insns sum %d <> total %d" label !sum total_insns;
      if total_insns <> insns then
        fail "run %s: phases.total.insns %d <> run insns %d" label total_insns
          insns;
      check_jit label run insns)
    runs;
  List.length runs

let metrics = wrap metrics_exn

(* --- bench timings --- *)

let timings_exn j =
  check_schema j "mtj-bench-timings/2";
  if int_field j "jobs" < 1 then fail "jobs < 1";
  if num_field j "total_wall_s" < 0.0 then fail "negative total_wall_s";
  List.iter
    (fun e ->
      ignore (str_field e "name");
      if num_field e "wall_s" < 0.0 then
        fail "experiment %s: negative wall_s" (str_field e "name"))
    (arr_field j "experiments");
  let runs = arr_field j "runs" in
  List.iter
    (fun r ->
      let label =
        Printf.sprintf "%s/%s" (str_field r "bench") (str_field r "config")
      in
      if num_field r "wall_s" < 0.0 then fail "run %s: negative wall_s" label;
      if int_field r "insns" < 0 then fail "run %s: negative insns" label;
      if num_field r "cycles" < 0.0 then fail "run %s: negative cycles" label;
      (* v2: host minor-heap allocation of the run, for the CI
         allocation gate *)
      if num_field r "minor_words" < 0.0 then
        fail "run %s: negative minor_words" label)
    runs;
  List.length runs

let timings = wrap timings_exn
