(* The meta-JIT pitch, demonstrated: define a brand-new toy language in
   ~100 lines — just its bytecode and a one-instruction step function —
   and the framework gives it a tracing JIT, guards, deoptimization and
   cross-layer profiling for free.  No JIT-specific code below: the
   interpreter is written against the OPS seam and the generic driver
   does the rest (the RPython value proposition from the paper's intro).

     dune exec examples/build_a_language.exe *)

open Mtj_rjit

(* --- the "Acc" language: a tiny register machine --- *)

type instr =
  | Push of int          (* push a constant *)
  | Load of int          (* push register r *)
  | Store of int         (* pop into register r *)
  | Add | Sub | Mul | Mod
  | Less                 (* pop b, a; push a < b *)
  | Jmpf of int          (* pop; jump if false *)
  | Jmp of int
  | Print                (* pop and print *)
  | Halt

module Acc_lang = struct
  type code = instr array * int

  let registry : (int, code) Hashtbl.t = Hashtbl.create 8
  let next = ref 0

  let register instrs =
    let id = !next in
    incr next;
    let c = (instrs, id) in
    Hashtbl.replace registry id c;
    c

  let code_ref (_, id) = id
  let lookup_code id = Hashtbl.find registry id
  let nlocals _ = 8          (* eight registers *)
  let stack_size _ = 16
  let name (_, id) = Printf.sprintf "acc-%d" id

  (* loop headers: targets of backward jumps *)
  let loop_header (instrs, _) pc =
    let is_target = ref false in
    Array.iteri
      (fun src i ->
        match i with
        | Jmp t | Jmpf t -> if t = pc && t <= src then is_target := true
        | _ -> ())
      instrs;
    !is_target

  let opcode_at (instrs, _) pc =
    match instrs.(pc) with
    | Push _ -> 0 | Load _ -> 1 | Store _ -> 2 | Add -> 3 | Sub -> 4
    | Mul -> 5 | Mod -> 6 | Less -> 7 | Jmpf _ -> 8 | Jmp _ -> 9
    | Print -> 10 | Halt -> 11

  module Step (O : Ops_intf.OPS) = struct
    let step cx _globals (f : (O.t, code) Frame.t) =
      let instrs, _ = f.Frame.code in
      let pc = f.Frame.pc in
      let next () = f.Frame.pc <- pc + 1; Frame.Continue in
      match instrs.(pc) with
      | Push k ->
          Frame.push f (O.const cx (Mtj_rt.Value.of_int k));
          next ()
      | Load r ->
          Frame.push f f.Frame.locals.(r);
          next ()
      | Store r ->
          f.Frame.locals.(r) <- Frame.pop f;
          next ()
      | Add -> let b = Frame.pop f in let a = Frame.pop f in
          Frame.push f (O.add cx a b); next ()
      | Sub -> let b = Frame.pop f in let a = Frame.pop f in
          Frame.push f (O.sub cx a b); next ()
      | Mul -> let b = Frame.pop f in let a = Frame.pop f in
          Frame.push f (O.mul cx a b); next ()
      | Mod -> let b = Frame.pop f in let a = Frame.pop f in
          Frame.push f (O.modulo cx a b); next ()
      | Less -> let b = Frame.pop f in let a = Frame.pop f in
          Frame.push f (O.compare cx Ops_intf.Lt a b); next ()
      | Jmpf t ->
          let v = Frame.pop f in
          if O.is_true cx v then next () else (f.Frame.pc <- t; Frame.Continue)
      | Jmp t -> f.Frame.pc <- t; Frame.Continue
      | Print ->
          ignore (O.call_builtin cx Builtin.Print [| Frame.pop f |]);
          next ()
      | Halt -> Frame.Return (O.const cx Mtj_rt.Value.nil)

    let step_ref = step
  end

  (* the threaded-dispatch tier, generic flavour: a language that wants
     it for free wraps its reference step in one pre-bound closure per
     pc (pylite/rklite go further: their Step stages each bytecode, so
     operands are decoded once per pc) *)
  module D_ref = Step (Direct_ops)

  let headers ((instrs, _) as c) =
    Array.init (Array.length instrs) (loop_header c)

  let threaded_tbl : (int, (Direct_ops.t, code) Threaded.step array) Hashtbl.t =
    Hashtbl.create 8

  let lookup_threaded c = Hashtbl.find_opt threaded_tbl (code_ref c)
  let store_threaded c s = Hashtbl.replace threaded_tbl (code_ref c) s

  let threaded_code dcx globals d ((instrs, _) as c) =
    let charge = Threaded.charger d in
    Array.init (Array.length instrs) (fun pc ->
        let target = opcode_at c pc in
        fun f ->
          charge ~target;
          D_ref.step_ref dcx globals f)
end

module Acc_vm = Driver.Make (Acc_lang)

(* --- an Acc program: sum of i*i mod 9973 for i < 200000 --- *)

let program =
  Acc_lang.register
    [|
      (* r0 = i, r1 = acc *)
      Push 0; Store 0;                            (* 0-1 *)
      Push 0; Store 1;                            (* 2-3 *)
      (* 4: loop header *)
      Load 0; Push 60000; Less; Jmpf 21;         (* 4-7 *)
      Load 0; Load 0; Mul;                        (* 8-10 *)
      Load 1; Add; Push 9973; Mod; Store 1;       (* 11-15 *)
      Load 0; Push 1; Add; Store 0;               (* 16-19 *)
      Jmp 4;                                      (* 20 *)
      (* 21: epilogue: print acc and its negation *)
      Load 1; Print;                              (* 21-22 *)
      Push 0; Load 1; Sub; Print;                 (* 23-26 *)
      Halt;                                       (* 27 *)
    |]

let run jit =
  (* cached threaded steps bind a run's engine; drop them between runs *)
  Hashtbl.reset Acc_lang.threaded_tbl;
  let config =
    Mtj_core.Config.with_budget 100_000_000
      (if jit then Mtj_core.Config.default else Mtj_core.Config.no_jit)
  in
  let rtc = Mtj_rt.Ctx.create ~config () in
  let globals = Globals.create () in
  let vm = Acc_vm.create ~profile:Mtj_core.Profile.rpython_interp rtc globals in
  (match Acc_vm.run vm program with
  | Driver.Completed _ -> ()
  | Driver.Budget_exceeded -> failwith "budget"
  | Driver.Runtime_error e -> failwith e);
  let out = Buffer.contents (Mtj_rt.Ctx.out rtc) in
  (out, Mtj_machine.Engine.total_cycles (Mtj_rt.Ctx.engine rtc),
   Acc_vm.jitlog vm)

let () =
  print_endline "A new language defined in ~100 lines, JIT included:\n";
  let out_i, cycles_i, _ = run false in
  let out_j, cycles_j, jl = run true in
  assert (out_i = out_j);
  Printf.printf "program result: %s" out_j;
  Printf.printf "\ninterpreted: %.0f cycles\n" cycles_i;
  Printf.printf "with JIT:    %.0f cycles   (%.1fx faster)\n" cycles_j
    (cycles_i /. cycles_j);
  Printf.printf
    "\nthe framework compiled %d trace(s) for the Acc language
(with guards, an optimizer, deoptimization and peeling) —
none of which the language implementer had to write.\n"
    (Jitlog.num_traces jl);
  List.iter
    (fun (tr : Ir.trace) ->
      Printf.printf "  trace %d: %d IR ops, executed %d times\n" tr.Ir.trace_id
        (Array.length tr.Ir.ops) tr.Ir.exec_count)
    (Jitlog.traces jl)
