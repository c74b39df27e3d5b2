(* The traced run: per-layer metrics for one workload, measured from
   outside by timing calls into each layer's public functions, run
   separately from the timed repetitions.

   - Paper workloads: a span around every [Runner.run] (the calls the
     timed repetitions make); then a bare pass that re-runs each non-c
     (program, config) as [create], [compile], [run_code], once with the
     host-phase probe and once without.
   - paper-jit also replays its JIT work ({!Jit_replay}): the workload
     where that layer does its work.
   - Serve workloads: [Serve.serve ~jobs:1] as the reference, then the
     stage-by-stage replay of the same stream ({!Serve_replay}).

   Every workload reports every metric in {!names}; a layer the workload
   does not exercise reads 0. *)

module R = Mtj_harness.Runner
module S = Mtj_harness.Serve
module B = Mtj_benchmarks.Registry
module Profile = Mtj_core.Profile
module Sharedcache = Mtj_rjit.Sharedcache

let names =
  [
    ("runner.instr_frac", "fraction");
    ("pool.busy_frac", "fraction");
    ("pool.tail_s", "s");
    ("frontend.compile_us", "us");
    ("frontend.words_per_compile", "words");
    ("frontend.compiles", "count");
    ("vm.create_us", "us");
    ("vm.import_us", "us");
    ("vm.seed_us", "us");
    ("vm.export_us", "us");
  ]
  @ List.concat_map
      (fun (g, _) ->
        [
          (g ^ ".ns_per_insn", "ns/insn");
          (g ^ ".words_per_insn", "words/insn");
          (g ^ ".host_frac", "fraction");
          (g ^ ".sim_insns", "count");
        ])
      Phases.groups
  @ [
      ("tracing.traces", "count");
      ("tracing.aborts", "count");
      ("jit.deopts", "count");
      ("jit.bridges", "count");
      ("jit.translations", "count");
      ("opt.traces", "count");
      ("opt.ops_in", "count");
      ("opt.ns_per_op", "ns/op");
      ("opt.words_per_op", "words/op");
      ("opt.ops_out_per_in", "ratio");
      ("backend.ns_per_op", "ns/op");
      ("backend.words_per_op", "words/op");
      ("translate.ns_per_op", "ns/op");
      ("cache.lookup_us", "us");
      ("cache.publish_us", "us");
      ("cache.hit_frac", "fraction");
      ("cache.evictions", "count");
      ("cache.requeues", "count");
      ("cache.contention", "count");
      ("serve.run_warm_us", "us");
      ("serve.run_cold_us", "us");
      ("serve.cold_frac", "fraction");
      ("serve.seeded_frac", "fraction");
      ("serve.first_entry_insns", "insns");
      ("trace.overhead_frac", "fraction");
    ]

type result = {
  metrics : (string * float * string) list;  (* in {!names} order *)
  items : int;  (* paper runs or serve requests traced *)
  failed : int;  (* of those, the ones failing the oracle *)
  checks : (string * bool) list;  (* named invariants of the traced run *)
  spans : Spans.t;
}

let failures check xs = List.length (List.filter (fun x -> check x = None) xs)

(* every metric in {!names}, 0 for the ones not [measured] *)
let result ~measured ~items ~failed ~checks spans =
  {
    metrics =
      List.map (fun (n, u) -> (n, Option.value ~default:0.0 (List.assoc_opt n measured), u)) names;
    items;
    failed;
    checks;
    spans;
  }

(* mean duration (us) and minor words of the spans called [name] *)
let span_stats spans name =
  let ss = Spans.named spans name in
  let n = float_of_int (List.length ss) in
  ( Stats.ratio (Stats.sum (List.map Spans.dur ss) *. 1e6) n,
    Stats.ratio (Stats.sum (List.map (fun s -> s.Spans.words) ss)) n,
    n )

let stage_metrics spans =
  let us name = let u, _, _ = span_stats spans name in u in
  let cu, cw, cn = span_stats spans "frontend.compile" in
  [
    ("frontend.compile_us", cu);
    ("frontend.words_per_compile", cw);
    ("frontend.compiles", cn);
    ("vm.create_us", us "vm.create");
    ("vm.import_us", us "vm.import");
    ("vm.seed_us", us "vm.seed");
    ("vm.export_us", us "vm.export");
    ("cache.lookup_us", us "cache.lookup");
    ("cache.publish_us", us "cache.publish");
    ("serve.run_warm_us", us "serve.run_warm");
    ("serve.run_cold_us", us "serve.run_cold");
  ]

let jit_metrics (traces, aborts, deopts, bridges, translations) =
  [
    ("tracing.traces", float_of_int traces);
    ("tracing.aborts", float_of_int aborts);
    ("jit.deopts", float_of_int deopts);
    ("jit.bridges", float_of_int bridges);
    ("jit.translations", float_of_int translations);
  ]

let add5 (a, b, c, d, e) (a', b', c', d', e') =
  (a + a', b + b', c + c', d + d', e + e')

let jit_counts jl =
  let module Jitlog = Mtj_rjit.Jitlog in
  ( Jitlog.num_traces jl, jl.Jitlog.aborts, jl.Jitlog.deopts,
    jl.Jitlog.bridges_attached, jl.Jitlog.translations )

(* --- paper workloads --- *)

let profile_of = function
  | R.Cpython -> Profile.cpython
  | R.Racket -> Profile.racket_custom
  | _ -> Profile.rpython_interp

type bare = {
  b_insns : int;
  b_run_s : float;  (* run_code wall *)
  b_total_s : float;  (* create + compile + run_code *)
  b_jit : int * int * int * int * int;
  b_sums_ok : bool;  (* phase words exact, phase time within 2% *)
}

(* [create], [compile], [run_code] on a fresh VM, as [Runner.run] does
   minus its instrumentation; with [cells] (fresh for this run), under
   the host-phase probe *)
let bare_run ?spans ?cells ~key (bench, vc) =
  let lang = if Oracle.output_key vc bench = "rk/" ^ bench then B.Rk else B.Py in
  let (module L : Lang.S) = Lang.get lang in
  let src = (B.find_exn ~lang bench).B.source in
  let config = R.config_of vc in
  let go parent =
    let stage name f =
      match spans with
      | Some sp -> Spans.span sp ?parent ~key name (fun _ -> f ())
      | None -> f ()
    in
    let t0 = Unix.gettimeofday () in
    let vm = stage "vm.create" (fun () -> L.create ~config ~profile:(profile_of vc) ()) in
    let code = stage "frontend.compile" (fun () -> L.compile src) in
    let eng = L.engine vm in
    let run () =
      match cells with
      | None ->
          let _, s = Workload.timed (fun () -> L.run_code vm code) in
          (s, true)
      | Some c ->
          let p = Phases.attach c eng in
          let i0 = Mtj_machine.Engine.total_insns eng in
          let w0 = Gc.minor_words () in
          let r0 = Unix.gettimeofday () in
          Phases.start p ~now:r0 ~words:w0;
          ignore (L.run_code vm code);
          let r1, w1 = Phases.close p eng in
          let wall_ns = (r1 -. r0) *. 1e9 in
          ( r1 -. r0,
            Phases.sum_words c = w1 -. w0
            && Float.abs (Phases.sum_ns c -. wall_ns) <= 0.02 *. wall_ns
            && Phases.sum_insns c = Mtj_machine.Engine.total_insns eng - i0 )
    in
    let run_s, sums_ok = stage "vm.run" run in
    {
      b_insns = Mtj_machine.Engine.total_insns eng;
      b_run_s = run_s;
      b_total_s = Unix.gettimeofday () -. t0;
      b_jit = jit_counts (L.jitlog vm);
      b_sums_ok = sums_ok;
    }
  in
  match spans with
  | Some sp -> Spans.span sp ~key "bare.run" (fun id -> go (Some id))
  | None -> go None

let paper ~small ~seed ~oracle ~jit =
  let spans = Spans.create () in
  let pairs = List.mapi (fun i p -> (i, p)) (Workload.order ~seed (Workload.paper_pairs ~small ~jit)) in
  R.clear_cache ();
  let results, pass_s =
    Workload.timed (fun () ->
        R.parallel_map ~jobs:Workload.jobs
          (fun (key, (b, vc)) -> Spans.span spans ~key "runner.run" (fun _ -> R.run b vc))
          pairs)
  in
  let runner_spans = Spans.named spans "runner.run" in
  let pass_end = List.fold_left (fun m s -> Float.max m s.Spans.stop) 0.0 runner_spans in
  let last_by_domain = Hashtbl.create 4 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt last_by_domain s.Spans.domain) in
      Hashtbl.replace last_by_domain s.Spans.domain (Float.max prev s.Spans.stop))
    runner_spans;
  let first_idle = Hashtbl.fold (fun _ t m -> Float.min t m) last_by_domain pass_end in
  let vm_pairs = List.filter (fun (_, (_, vc)) -> vc <> R.Native_c) pairs in
  let cells = Phases.create () in
  (* each run three times back to back: through [Runner.run], bare with
     the probe, bare without it.  Neighbours in time see the same host
     speed, so their differences are Runner's instrumentation and the
     probe's overhead. *)
  let triples =
    List.map
      (fun (key, ((b, vc) as p)) ->
        R.clear_cache ();
        let _, runner_s = Workload.timed (fun () -> R.run b vc) in
        let c = Phases.create () in
        let probed = bare_run ~spans ~cells:c ~key p in
        let plain = bare_run ~key p in
        Phases.add_into cells c;
        (runner_s, probed, plain))
      vm_pairs
  in
  let probed = List.map (fun (_, b, _) -> b) triples in
  let plain = List.map (fun (_, _, b) -> b) triples in
  let runner_s = Stats.sum (List.map (fun (r, _, _) -> r) triples) in
  let sum f l = Stats.sum (List.map f l) in
  let insns_match =
    List.for_all2
      (fun (key, _) (b : bare) ->
        let r = List.nth results key in
        b.b_insns = r.R.insns)
      vm_pairs probed
  in
  let replay =
    if jit then
      Some
        (Jit_replay.run
           (Jit_replay.collect
              (List.sort_uniq compare
                 (List.filter_map
                    (fun (_, (b, vc)) -> if Oracle.output_key vc b = "py/" ^ b then Some b else None)
                    pairs))))
    else None
  in
  let measured =
    [
      ("runner.instr_frac", Stats.ratio (runner_s -. sum (fun b -> b.b_total_s) plain) runner_s);
      ("pool.busy_frac",
        Stats.ratio (Stats.sum (List.map Spans.dur runner_spans))
          (float_of_int Workload.jobs *. pass_s));
      ("pool.tail_s", pass_end -. first_idle);
      ("trace.overhead_frac",
        Stats.ratio (sum (fun b -> b.b_run_s) probed -. sum (fun b -> b.b_run_s) plain)
          (sum (fun b -> b.b_run_s) plain));
    ]
    @ stage_metrics spans
    @ jit_metrics (List.fold_left (fun acc b -> add5 acc b.b_jit) (0, 0, 0, 0, 0) probed)
    @ Phases.metrics cells
    @ Option.fold ~none:[] ~some:Jit_replay.metrics replay
  in
  result ~measured ~items:(List.length results)
    ~failed:(failures (Oracle.check_run oracle) results)
    ~checks:
      ([
         ("bare insns equal Runner.run insns", insns_match);
         ("phase words exact, phase time within 2% of wall",
           List.for_all (fun b -> b.b_sums_ok) probed);
       ]
      @ Option.fold ~none:[]
          ~some:(fun r -> [ ("jit replay found traces", r.Jit_replay.traces > 0) ])
          replay)
    spans

(* --- serve workloads --- *)

let serve ~small ~seed ~oracle ~zipf_s ~capacity =
  let spans = Spans.create () in
  let requests = Workload.serve_requests ~small in
  let reference = S.serve ~jobs:1 ~requests ~zipf_s ~seed ~cache_capacity:capacity () in
  let cells = Phases.create () in
  let sess = Serve_replay.session ~spans ~cells ~capacity () in
  let reqs = S.gen_requests ~corpus:S.default_corpus ~requests ~zipf_s ~seed in
  (* a second, untraced session replays each request right after the
     traced one: their summed walls give the tracing overhead *)
  let plain = Serve_replay.session ~capacity () in
  let traced_s = ref 0.0 and plain_s = ref 0.0 in
  let outs =
    Array.map
      (fun req ->
        let o, t = Workload.timed (fun () -> Serve_replay.request sess req) in
        let (_ : Serve_replay.outcome), p = Workload.timed (fun () -> Serve_replay.request plain req) in
        traced_s := !traced_s +. t;
        plain_s := !plain_s +. p;
        o)
      reqs
  in
  let count p = Array.fold_left (fun n o -> if p o then n + 1 else n) 0 outs in
  let cold = count (fun o -> not o.Serve_replay.o_warm) in
  let seeded = count (fun o -> o.Serve_replay.o_seeded) in
  let st = Sharedcache.stats sess.Serve_replay.cache in
  let lookups = st.Sharedcache.shared_hits + st.Sharedcache.local_hits + st.Sharedcache.misses in
  let first =
    List.filter_map
      (fun o ->
        if o.Serve_replay.o_first_entry >= 0 then Some (float_of_int o.Serve_replay.o_first_entry)
        else None)
      (Array.to_list outs)
  in
  let frac n = Stats.ratio (float_of_int n) (float_of_int requests) in
  let measured =
    [
      ("cache.hit_frac",
        Stats.ratio (float_of_int (lookups - st.Sharedcache.misses)) (float_of_int lookups));
      ("cache.evictions", float_of_int st.Sharedcache.evictions);
      ("cache.requeues", float_of_int st.Sharedcache.requeues);
      ("cache.contention", float_of_int st.Sharedcache.contention);
      ("serve.cold_frac", frac cold);
      ("serve.seeded_frac", frac seeded);
      ("serve.first_entry_insns", Stats.mean first);
      ("trace.overhead_frac", Stats.ratio (!traced_s -. !plain_s) !plain_s);
    ]
    @ stage_metrics spans
    @ jit_metrics
        (Array.fold_left (fun acc o -> add5 acc o.Serve_replay.o_jit) (0, 0, 0, 0, 0) outs)
    @ Phases.metrics cells
  in
  let same_records =
    Array.for_all2
      (fun o (r : S.record) ->
        o.Serve_replay.o_digest = r.S.r_digest
        && o.Serve_replay.o_status = r.S.r_status
        && o.Serve_replay.o_warm = r.S.r_warm
        && o.Serve_replay.o_seeded = r.S.r_seeded)
      outs reference.S.sv_records
  in
  result ~measured ~items:requests
    ~failed:(failures (Oracle.check_request oracle) (Array.to_list reference.S.sv_records))
    ~checks:
      [
        ("replay cold/warm/seeded = Serve.serve ~jobs:1",
          cold = reference.S.sv_cold
          && requests - cold = reference.S.sv_warm
          && seeded = reference.S.sv_seeded);
        ("replay Sharedcache.stats = Serve.serve ~jobs:1", st = reference.S.sv_cache);
        ("replay digests = Serve.serve ~jobs:1", same_records);
      ]
    spans

let run ~small ~seed ~oracle (w : Workload.t) =
  match w.Workload.kind with
  | Workload.Paper { jit } -> paper ~small ~seed ~oracle ~jit
  | Workload.Serve { zipf_s; capacity } -> serve ~small ~seed ~oracle ~zipf_s ~capacity
