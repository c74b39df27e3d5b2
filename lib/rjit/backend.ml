(** Trace "assembler": lowers optimized IR into executable, costed trace
    code.

    Each IR node is assigned its x86 footprint (Figure 9's templates from
    {!Ir.x86_template}); assembling charges machine work proportional to
    the trace length, with a superlinear term reflecting the compiler
    passes the paper notes scale super-linearly with trace size
    (Sec. V-E). *)

open Mtj_core
module Engine = Mtj_machine.Engine

(* each lowered node also carries register-shuffle/spill traffic: one
   extra instruction per op keeps trace branch density realistic *)
let cost_of_template (a, f, l, s, o) =
  Cost.make ~alu:a ~fpu:f ~load:l ~store:s ~other:(o + 1) ()

let compile jitlog rtc ~(kind : Ir.trace_kind) ~entry_slots
    ?(loop_base = 0) ?(loop_start = 0) ?(tier = 2)
    ?(promote_at = Tierpolicy.never) (ops : Ir.op array) : Ir.trace =
  let nops = Array.length ops in
  (* assembling cost: linear register allocation + superlinear passes.
     A tier-1 compile skipped the optimizer pipeline, so it pays only a
     single lowering pass and none of the superlinear terms. *)
  let eng = Mtj_rt.Ctx.engine rtc in
  if tier <= 1 then
    Engine.emit eng
      (Cost.make ~alu:(5 * nops) ~load:(3 * nops) ~store:(3 * nops)
         ~other:(4 * nops) ())
  else begin
    Engine.emit eng
      (Cost.make ~alu:(14 * nops) ~load:(9 * nops) ~store:(7 * nops)
         ~other:(11 * nops) ());
    let superlinear = nops * nops / 400 in
    if superlinear > 0 then Engine.emit eng (Cost.make ~alu:superlinear ())
  end;
  let min_regs = max entry_slots (loop_base + entry_slots) in
  let nregs =
    Array.fold_left
      (fun acc (op : Ir.op) ->
        let acc = max acc (op.Ir.result + 1) in
        Array.fold_left
          (fun acc arg ->
            match arg with Ir.Reg r -> max acc (r + 1) | Ir.Const _ -> acc)
          acc op.Ir.args)
      min_regs ops
  in
  let trace_id = Jitlog.fresh_trace_id jitlog in
  let trace =
    {
      Ir.trace_id;
      kind;
      ops;
      op_costs =
        Heap_array.map ~dummy:Cost.zero
          (fun (op : Ir.op) -> cost_of_template (Ir.x86_template op.Ir.opcode))
          ops;
      nregs;
      entry_slots;
      loop_base;
      loop_start;
      exec_count = 0;
      op_exec = Array.make nops 0;
      tier;
      promote_at;
      deopts = 0;
      bridges = 0;
      code_version = 0;
      translations = 0;
      cache_hits = 0;
      enter_annot = Annot.Trace_enter trace_id;
      exit_annot = Annot.Trace_exit trace_id;
    }
  in
  Jitlog.register jitlog trace;
  Jitlog.record_tier_compile jitlog ~tier;
  Engine.annot eng (Annot.Trace_compile trace_id);
  (* translate once, here, so the first entry already runs threaded code
     out of the context's cache.  Host-side work only: translation is
     part of what the simulated assembling cost above already models, so
     it charges nothing extra. *)
  Executor.precompile rtc jitlog trace;
  trace
