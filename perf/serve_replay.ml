(* A serving session replayed at one job through the same public stage
   calls [Serve.serve] makes (create, cache lookup, import, seed, run,
   compile, publish, profile export, invalidate), with a span around
   each stage and the host-phase probe around each run.  At one job
   [Serve.serve] executes its stream in order, so this replay must
   reproduce its warm/cold/seeded split, its cache statistics and every
   request's simulated digest exactly. *)

module B = Mtj_benchmarks.Registry
module Sharedcache = Mtj_rjit.Sharedcache
module Jitlog = Mtj_rjit.Jitlog
module Engine = Mtj_machine.Engine
module S = Mtj_harness.Serve

type outcome = {
  o_warm : bool;
  o_seeded : bool;
  o_status : string;
  o_insns : int;
  o_first_entry : int;
  o_digest : string;
  o_jit : int * int * int * int * int;
      (* traces, aborts, deopts, bridges, translations *)
}

(* The simulated-state digest [Serve] gives each request: status,
   retired work, GC totals, JIT machinery counters and output. *)
let digest ~status ~insns ~cycles ~output ~(gc : Mtj_rt.Gc_sim.stats)
    ~(jl : Jitlog.t) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%d|%.6f|%d.%d.%d.%d|%d.%d.%d.%d.%d.%d.%d.%d|%s"
          status insns cycles gc.Mtj_rt.Gc_sim.minor_collections
          gc.Mtj_rt.Gc_sim.major_collections gc.Mtj_rt.Gc_sim.allocated_objects
          gc.Mtj_rt.Gc_sim.allocated_words (Jitlog.num_traces jl)
          jl.Jitlog.bridges_attached jl.Jitlog.deopts jl.Jitlog.translations
          jl.Jitlog.code_cache_hits jl.Jitlog.tier1_compiles
          jl.Jitlog.tier2_compiles jl.Jitlog.threaded_code_hits output))

type session = {
  cache : Sharedcache.t;
  config : Mtj_core.Config.t;
  cfg_digest : string;
  spans : Spans.t option;
  cells : Phases.cells option;
}

(* the serving config and cache [Serve.serve] builds for a session *)
let session ?spans ?cells ~capacity () =
  let config = Mtj_harness.Runner.config_of ~budget:S.default_budget Mtj_harness.Runner.Pypy_jit in
  {
    cache = Sharedcache.create ~capacity ();
    config;
    cfg_digest = Digest.to_hex (Digest.string (Marshal.to_string config []));
    spans;
    cells;
  }

module Make (L : Lang.S) = struct
  type Sharedcache.entry += Bundle of L.bundle

  let stage s ?parent ~key name f =
    match s.spans with
    | Some sp -> Spans.span sp ?parent ~key name (fun _ -> f ())
    | None -> f ()

  let run_probed s vm bu =
    match s.cells with
    | None -> L.run_bundle vm bu
    | Some cells ->
        let eng = L.engine vm in
        let p = Phases.attach cells eng in
        Phases.start p ~now:(Unix.gettimeofday ()) ~words:(Gc.minor_words ());
        let out = L.run_bundle vm bu in
        ignore (Phases.close p eng);
        out

  let request s ?parent (req : S.request) =
    let key = req.S.req_id in
    let stage name f = stage s ?parent ~key name f in
    let lang = Lang.name L.lang in
    let b = B.find_exn ~lang:L.lang req.S.req_bench in
    let vm = stage "vm.create" (fun () -> L.create ~config:s.config ()) in
    let ckey =
      Sharedcache.key ~lang ~program:req.S.req_bench ~config_digest:s.cfg_digest
    in
    let uid = Mtj_rt.Ctx.uid (L.rtc vm) in
    let warm, seeded, published, outcome =
      match
        stage "cache.lookup" (fun () ->
            Sharedcache.find_with_profile s.cache ~ctx_uid:uid ckey)
      with
      | Some (Bundle bu, prof) ->
          stage "vm.import" (fun () ->
              L.import_bundle vm bu;
              Jitlog.record_shared_code_hits (L.jitlog vm) ~n:(L.bundle_size bu));
          let seeded =
            match prof with
            | Some p ->
                stage "vm.seed" (fun () -> L.seed_profile vm p);
                true
            | None -> false
          in
          (true, seeded, false, stage "serve.run_warm" (fun () -> run_probed s vm bu))
      | Some _ | None ->
          let bu = stage "frontend.compile" (fun () -> L.compile_bundle b.B.source) in
          let pr =
            stage "cache.publish" (fun () ->
                Sharedcache.publish s.cache ~ctx_uid:uid
                  ~tenant:(lang ^ ":" ^ req.S.req_bench) ckey (Bundle bu))
          in
          ( false, false, pr = Sharedcache.Published,
            stage "serve.run_cold" (fun () -> run_probed s vm bu) )
    in
    let status = Lang.status outcome in
    (match outcome with
    | Mtj_rjit.Driver.Runtime_error _ ->
        stage "cache.invalidate" (fun () -> Sharedcache.invalidate s.cache ckey)
    | _ ->
        if published then
          stage "vm.export" (fun () ->
              ignore (Sharedcache.attach_profile s.cache ckey (L.export_profile vm))));
    let eng = L.engine vm and jl = L.jitlog vm in
    let output = L.output vm in
    {
      o_warm = warm;
      o_seeded = seeded;
      o_status = status;
      o_insns = Engine.total_insns eng;
      o_first_entry = jl.Jitlog.first_entry_insns;
      o_digest =
        digest ~status ~insns:(Engine.total_insns eng)
          ~cycles:(Engine.total_cycles eng) ~output
          ~gc:(Mtj_rt.Gc_sim.stats (Mtj_rt.Ctx.gc (L.rtc vm)))
          ~jl;
      o_jit =
        ( Jitlog.num_traces jl, jl.Jitlog.aborts, jl.Jitlog.deopts,
          jl.Jitlog.bridges_attached, jl.Jitlog.translations );
    }
end

module Py = Make (Lang.Py)
module Rk = Make (Lang.Rk)

let request s (req : S.request) =
  let go ?parent () =
    match req.S.req_lang with
    | B.Py -> Py.request s ?parent req
    | B.Rk -> Rk.request s ?parent req
  in
  match s.spans with
  | Some sp -> Spans.span sp ~key:req.S.req_id "serve.request" (fun id -> go ~parent:id ())
  | None -> go ()
