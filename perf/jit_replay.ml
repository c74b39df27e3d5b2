(* Host cost of the JIT's host-only work, replayed from outside: the raw
   tier-1 loop traces of baseline-tier runs (the baseline tier compiles
   recordings without optimizing them, so [Jitlog.traces] holds them
   verbatim) are copied with [Ir.copy_ops] and pushed through
   [Opt.optimize], [Backend.compile] and [Executor.precompile] on a
   fresh context and jitlog. *)

module B = Mtj_benchmarks.Registry
module Ir = Mtj_rjit.Ir
module Config = Mtj_core.Config

type raw = { kind : Ir.trace_kind; entry_slots : int; ops : Ir.op array }

let collect programs =
  List.concat_map
    (fun name ->
      let b = B.find_exn ~lang:B.Py name in
      let _, vm = Mtj_pylite.Vm.run ~config:Config.baseline_tier b.B.source in
      List.filter_map
        (fun (tr : Ir.trace) ->
          match tr.Ir.kind with
          | Ir.Loop _ when tr.Ir.tier = 1 ->
              Some
                { kind = tr.Ir.kind; entry_slots = tr.Ir.entry_slots;
                  ops = Ir.copy_ops tr.Ir.ops }
          | _ -> None)
        (Mtj_rjit.Jitlog.traces (Mtj_pylite.Vm.jitlog vm)))
    programs

type totals = {
  rounds : int;
  mutable traces : int;
  mutable ops_in : int;
  mutable ops_out : int;
  mutable opt_s : float;
  mutable opt_words : float;
  mutable backend_s : float;
  mutable backend_words : float;
  mutable translate_s : float;
}

let measure f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  (x, t1 -. t0, Gc.minor_words () -. w0)

(* [rounds] passes over every trace, timed per call *)
let run ?(rounds = 3) raws =
  let cfg = Config.default in
  let t =
    { rounds; traces = 0; ops_in = 0; ops_out = 0; opt_s = 0.0; opt_words = 0.0;
      backend_s = 0.0; backend_words = 0.0; translate_s = 0.0 }
  in
  for _ = 1 to rounds do
    List.iter
      (fun r ->
        let ops = Ir.copy_ops r.ops in
        let (opt_ops, loop_base, loop_start), s, w =
          measure (fun () ->
              Mtj_rjit.Opt.optimize cfg ~kind:`Loop ops ~entry_slots:r.entry_slots)
        in
        t.opt_s <- t.opt_s +. s;
        t.opt_words <- t.opt_words +. w;
        let ctx = Mtj_rt.Ctx.create ~config:cfg () in
        let jl = Mtj_rjit.Jitlog.create () in
        let tr, s, w =
          measure (fun () ->
              Mtj_rjit.Backend.compile jl ctx ~kind:r.kind ~entry_slots:r.entry_slots
                ~loop_base ~loop_start opt_ops)
        in
        t.backend_s <- t.backend_s +. s;
        t.backend_words <- t.backend_words +. w;
        let (), s, _ = measure (fun () -> Mtj_rjit.Executor.precompile ctx jl tr) in
        t.translate_s <- t.translate_s +. s;
        t.traces <- t.traces + 1;
        t.ops_in <- t.ops_in + Array.length r.ops;
        t.ops_out <- t.ops_out + Array.length opt_ops)
      raws
  done;
  t

let metrics t =
  let per_in x = Stats.ratio x (float_of_int t.ops_in) in
  let per_out x = Stats.ratio x (float_of_int t.ops_out) in
  [
    ("opt.traces", float_of_int (t.traces / t.rounds));
    ("opt.ops_in", float_of_int (t.ops_in / t.rounds));
    ("opt.ns_per_op", per_in (t.opt_s *. 1e9));
    ("opt.words_per_op", per_in t.opt_words);
    ("opt.ops_out_per_in", per_in (float_of_int t.ops_out));
    ("backend.ns_per_op", per_out (t.backend_s *. 1e9));
    ("backend.words_per_op", per_out t.backend_words);
    ("translate.ns_per_op", per_out (t.translate_s *. 1e9));
  ]
