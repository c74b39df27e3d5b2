(* Warmup tuning: how the JIT's compilation policy knobs move the
   warmup/steady-state trade-off on a single workload.

   The paper's Sec. VI asks (Q2/Q5) how long a meta-tracing JIT takes to
   pay for itself and whether a multi-tier design would help. This
   example sweeps the two policy knobs the framework exposes —
   [jit_threshold] (how hot a loop must be before tracing) and
   [Config.two_tier] (compile quick first, well later) — and reports,
   for each setting, total time, time spent tracing/compiling, and the
   break-even point against the plain interpreter.

     dune exec examples/warmup_tuning.exe *)

module Config = Mtj_core.Config
module Phase = Mtj_core.Phase
module Vm = Mtj_pylite.Vm
module Engine = Mtj_machine.Engine

(* a mid-sized workload: enough loop nests to keep the tracer busy, short
   enough that warmup is a visible fraction of the run *)
let program =
  {|
def smooth(xs):
    out = []
    n = len(xs)
    for i in range(n):
        lo = i - 2
        hi = i + 3
        if lo < 0:
            lo = 0
        if hi > n:
            hi = n
        s = 0
        for j in range(lo, hi):
            s = s + xs[j]
        out.append(s // (hi - lo))
    return out

xs = []
seed = 7
for i in range(300):
    seed = (seed * 1103515245 + 12345) % 65536
    xs.append(seed % 1000)
for round in range(40):
    xs = smooth(xs)
total = 0
for v in xs:
    total = total + v
print(total)
|}

type run = {
  label : string;
  cycles : float;
  compile_insns : int;
  traces : int;
  retiers : int;
  samples : (int * int) array;
  output : string;
}

let run_with label config =
  let vm = Vm.create ~config () in
  let eng = Vm.engine vm in
  let tracker = Mtj_pintool.Phase_tracker.attach eng in
  let sampler = Mtj_pintool.Rate_sampler.attach eng in
  (match Vm.run_source vm program with
  | Mtj_rjit.Driver.Completed _ -> ()
  | Mtj_rjit.Driver.Budget_exceeded -> failwith "ran out of budget"
  | Mtj_rjit.Driver.Runtime_error e -> failwith e);
  Mtj_pintool.Phase_tracker.finalize tracker;
  Mtj_pintool.Rate_sampler.finalize sampler;
  let jl = Vm.jitlog vm in
  {
    label;
    cycles = Engine.total_cycles eng;
    compile_insns = Mtj_pintool.Phase_tracker.phase_insns tracker Phase.Tracing;
    traces = Mtj_rjit.Jitlog.num_traces jl;
    retiers = jl.Mtj_rjit.Jitlog.retiers;
    samples = Mtj_pintool.Rate_sampler.samples sampler;
    output = Vm.output vm;
  }

(* first instruction count where this run's cumulative work (dispatch
   ticks) overtakes the interpreter's at the same instruction count *)
let break_even (jit : run) (interp : run) =
  let jit_at = Mtj_pintool.Rate_sampler.interpolate jit.samples in
  let interp_at = Mtj_pintool.Rate_sampler.interpolate interp.samples in
  let rec scan x =
    if x > 30_000_000 then None
    else if jit_at x >= interp_at x && jit_at x > 0 then Some x
    else scan (x + 100_000)
  in
  scan 100_000

let () =
  let budget = Config.with_budget 400_000_000 in
  let interp = run_with "interpreter" (budget Config.no_jit) in
  let variants =
    [
      ("threshold 37", budget { Config.default with Config.jit_threshold = 37 });
      ("threshold 131 (default)", budget Config.default);
      ("threshold 523", budget { Config.default with Config.jit_threshold = 523 });
      ("two-tier", budget Config.two_tier);
    ]
  in
  let runs = List.map (fun (l, c) -> run_with l c) variants in
  List.iter (fun r -> assert (r.output = interp.output)) runs;
  print_endline "Warmup tuning on a 300-element smoothing kernel (40 rounds)\n";
  Printf.printf "%-24s  %11s  %8s  %7s  %7s  %11s  %10s\n" "policy"
    "Mcycles" "vs interp" "traces" "retiers" "compile Mi" "break-even";
  Printf.printf "%s\n" (String.make 89 '-');
  Printf.printf "%-24s  %11.2f  %8s  %7s  %7s  %11s  %10s\n" interp.label
    (interp.cycles /. 1e6) "1.00x" "-" "-" "-" "-";
  List.iter
    (fun r ->
      let be =
        match break_even r interp with
        | Some x -> Printf.sprintf "%.1f Mi" (float_of_int x /. 1e6)
        | None -> "never"
      in
      Printf.printf "%-24s  %11.2f  %7.2fx  %7d  %7d  %11.2f  %10s\n" r.label
        (r.cycles /. 1e6)
        (interp.cycles /. r.cycles)
        r.traces r.retiers
        (float_of_int r.compile_insns /. 1e6)
        be)
    runs;
  print_endline
    "\nLower thresholds trace more loops, including ones that are not yet\n\
     stable, so they can pay MORE compile time and break even later;\n\
     higher thresholds interpret longer but compile only what stays hot.\n\
     Two-tier compiles cheaply first and recompiles hot loops (the\n\
     retiers column) through the full optimizer."
