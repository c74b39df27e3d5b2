(** Compiled-trace executor.

    Runs a compiled loop over a register file of runtime values, charging
    the machine each operation's lowered footprint.  Guards evaluate
    their condition on live data; a failing guard either transfers to an
    attached bridge or {e deoptimizes}: under the [Blackhole] phase the
    interpreter frames are rebuilt from the guard's resume data,
    materializing objects removed by escape analysis.  Residual calls run
    under the [Jit_call] phase via {!Mtj_rt.Aot.call}; a language error
    raised by one deoptimizes to the current bytecode boundary, where the
    interpreter re-executes and reports it.

    Each op's semantics is defined once, staged (decode now, run when
    applied): {!Eval_op.stage} for the pure ops, [stage_op] for heap
    reads and writes, allocation and residual calls, [guard_test] for
    guards.  Each way out of JIT code is defined once too: [deopt],
    [finished] and [tier_up_exit] build the {!exit_state}, and both
    strategies enter a trace through [entering] and a bridge through
    [bridge_regs].  Two execution strategies run those definitions:

    - {!run_ref}, the reference loop, re-matches [op.opcode] and stages
      the op on every iteration;
    - {!run}, continuation-threaded code (after Izawa et al. 2021):
      {!precompile}/[code_for] translate the op array {e once}, back to
      front, into step closures built from the staged definitions — one
      step per op, operands resolved to direct register indices or
      hoisted constants, guards pre-bound to their resume data and fail
      path — cached per context and keyed by trace id, invalidated when
      a bridge attachment bumps the trace's [code_version].  Each step
      holds its successor as its continuation and tail-calls it; a
      back-edge tail-calls the loop head, a bridge entry or
      call_assembler the target's first step, and an exit returns its
      [exit_state].  There is no instruction pointer and no dispatch
      loop.  No pair of ops is fused: built without [-opaque], a
      hand-fused compare+guard or int-op+overflow-guard step ran no
      faster than the two plain steps (DESIGN.md §3f).

    Both charge the simulated machine identically: every counter the
    engine sees is byte-for-byte the same under either strategy. *)

open Mtj_core
open Mtj_rt
module Engine = Mtj_machine.Engine

type deopt_frame = {
  df_code : int;
  df_pc : int;
  df_locals : Value.t array;
  df_stack : Value.t array;
  df_discard : bool;
}

type exit_state =
  | Finished of Value.t
  | Deopt of {
      frames : deopt_frame list;
      guard : Ir.guard option;
      trace : Ir.trace;
      request_bridge : bool;
    }
  | Tier_up of deopt_frame

let as_obj = Semantics.as_obj
let as_int = Eval_op.as_int

(* --- materialization of resume data --- *)

let resume_slots (resume : Ir.resume) =
  List.fold_left
    (fun acc (f : Ir.frame_snap) ->
      acc + Array.length f.Ir.snap_locals + Array.length f.Ir.snap_stack)
    0 resume.Ir.frames

(* Write the values [resume] describes into [dst] from index 0,
   flattened the way a bridge's entry registers are laid out: frames
   outermost first, each frame's locals then its stack.  Each frame's
   stack is materialized before its locals, the order deoptimization has
   always used: materializing a virtual allocates in the simulated heap,
   so the order shows in simulated counters. *)
let materialize_flat rtc (resume : Ir.resume) (regs : Value.t array)
    (dst : Value.t array) =
  let gc = Ctx.gc rtc in
  let memo = Array.make (Array.length resume.Ir.r_virtuals) None in
  let rec value_of (s : Ir.source) : Value.t =
    match s with
    | Ir.S_reg r -> regs.(r)
    | Ir.S_const v -> v
    | Ir.S_virtual k -> (
        match memo.(k) with
        | Some v -> v
        | None -> build k)
  and build k =
    match resume.Ir.r_virtuals.(k) with
    | Ir.V_instance { v_cls; v_fields } ->
        let inst =
          {
            Value.cls = v_cls;
            fields = Array.make (Array.length v_fields) Value.nil;
          }
        in
        let o = Gc_sim.obj gc (Value.Instance inst) in
        memo.(k) <- Some o;
        Array.iteri (fun i s -> inst.Value.fields.(i) <- value_of s) v_fields;
        o
    | Ir.V_tuple srcs ->
        let v = Gc_sim.obj gc (Value.Tuple (Array.map value_of srcs)) in
        memo.(k) <- Some v;
        v
    | Ir.V_list srcs ->
        let lst = Rlist.create rtc [] in
        let v = Value.of_obj lst in
        memo.(k) <- Some v;
        Array.iter (fun s -> Rlist.append rtc lst (value_of s)) srcs;
        v
    | Ir.V_cell s ->
        let payload = Value.Cell { cell = Value.nil } in
        let v = Gc_sim.obj gc payload in
        memo.(k) <- Some v;
        (match payload with
        | Value.Cell c -> c.cell <- value_of s
        | _ -> assert false);
        v
  in
  List.fold_left
    (fun pos (f : Ir.frame_snap) ->
      let nl = Array.length f.Ir.snap_locals in
      Array.iteri (fun i s -> dst.(pos + nl + i) <- value_of s) f.Ir.snap_stack;
      Array.iteri (fun i s -> dst.(pos + i) <- value_of s) f.Ir.snap_locals;
      pos + nl + Array.length f.Ir.snap_stack)
    0 resume.Ir.frames
  |> ignore

let materialize_frames rtc (resume : Ir.resume) (regs : Value.t array) =
  let flat = Array.make (resume_slots resume) Value.nil in
  materialize_flat rtc resume regs flat;
  let pos = ref 0 in
  List.map
    (fun (f : Ir.frame_snap) ->
      let nl = Array.length f.Ir.snap_locals in
      let ns = Array.length f.Ir.snap_stack in
      let d =
        {
          df_code = f.Ir.snap_code;
          df_pc = f.Ir.snap_pc;
          df_locals = Array.sub flat !pos nl;
          df_stack = Array.sub flat (!pos + nl) ns;
          df_discard = f.Ir.snap_discard;
        }
      in
      pos := !pos + nl + ns;
      d)
    resume.Ir.frames

(* --- guard evaluation --- *)

(* an overflow guard holds when the checked op it guards does not raise *)
let no_ovf checked e =
  match checked e with
  | (_ : Value.t) -> true
  | exception Eval_op.Overflow -> false

(* A guard's condition, staged like {!Eval_op.stage}: [guard_test g gs]
   binds the operand readers [gs] once and returns the test over the
   environment they read.  Both executor loops run this one definition. *)
let guard_test (g : Ir.guard) (gs : ('e -> Value.t) array) : 'e -> bool =
  match g.Ir.gkind with
  | Ir.G_true ->
      let a = gs.(0) in
      fun e -> Value.truthy (a e)
  | Ir.G_false ->
      let a = gs.(0) in
      fun e -> not (Value.truthy (a e))
  | Ir.G_value v ->
      let a = gs.(0) in
      fun e -> Value.py_eq (a e) v
  | Ir.G_class sh ->
      let a = gs.(0) in
      fun e -> Ir.has_tyshape sh (a e)
  | Ir.G_nonnull ->
      let a = gs.(0) in
      fun e -> not (Value.is_nil (a e))
  | Ir.G_no_ovf_add -> no_ovf (Eval_op.stage_checked Ir.Int_add gs)
  | Ir.G_no_ovf_sub -> no_ovf (Eval_op.stage_checked Ir.Int_sub gs)
  | Ir.G_no_ovf_mul -> no_ovf (Eval_op.stage_checked Ir.Int_mul gs)
  | Ir.G_index_lt ->
      let a = gs.(0) and b = gs.(1) in
      fun e ->
        let i = as_int (a e) and n = as_int (b e) in
        i >= 0 && i < n
  | Ir.G_global_version (cell, ver) -> fun _ -> !cell = ver

(* --- blackhole: charge deoptimization and rebuild frames --- *)

(* fixed entry cost of a deopt, hoisted so it is not rebuilt per event *)
let blackhole_entry_cost = Cost.make ~alu:160 ~load:130 ~store:95 ~other:120 ()

let blackhole rtc (resume : Ir.resume) regs ~guard_id =
  let eng = Ctx.engine rtc in
  Engine.in_phase eng Phase.Blackhole @@ fun () ->
  let slots = resume_slots resume in
  Engine.emit eng blackhole_entry_cost;
  Engine.emit eng
    (Cost.make ~alu:(5 * slots) ~load:(4 * slots) ~store:(4 * slots) ());
  (* the blackhole interpreter walks resume chains with irregular,
     data-dependent control flow: poor prediction (Table IV) *)
  for i = 0 to (slots / 2) + 3 do
    Engine.branch eng
      ~site:(950_000 + (guard_id land 63))
      ~taken:(((i * 7) + guard_id) mod 3 <> 0)
  done;
  materialize_frames rtc resume regs

(* --- heap operations on concrete values --- *)

let getfield rtc o idx =
  let obj = as_obj o in
  Engine.mem_access (Ctx.engine rtc) ~addr:(Gc_sim.addr obj ~field:idx)
    ~write:false;
  match obj.Value.payload with
  | Value.Instance i -> Semantics.field_get i idx
  | Value.Func f ->
      if idx < Array.length f.Value.captured then f.Value.captured.(idx)
      else Value.nil
  | _ -> Semantics.err "getfield on %s" (Value.type_name o)

let setfield rtc o idx v =
  let obj = as_obj o in
  Engine.mem_access (Ctx.engine rtc) ~addr:(Gc_sim.addr obj ~field:idx)
    ~write:true;
  match obj.Value.payload with
  | Value.Instance i -> Semantics.field_set rtc obj i idx v
  | _ -> Semantics.err "setfield on %s" (Value.type_name o)

(* --- ordinary operations ---

   Heap reads and writes, allocation, residual calls and, through
   {!Eval_op.stage}, the pure ops: the one staged definition both loops
   run.  [stage_op rtc opcode gs] decodes the op once and returns its
   work over the environment the operand readers [gs] read (the
   register file).  Ops without a result return [Value.nil].  Language
   errors propagate; each loop deoptimizes them to the bytecode
   boundary. *)

let fetch gs e = Array.map (fun g -> g e) gs

let stage_op rtc (opcode : Ir.opcode) (gs : ('e -> Value.t) array) :
    'e -> Value.t =
  let eng = Ctx.engine rtc and gc = Ctx.gc rtc in
  match opcode with
  | Ir.Getfield_gc idx ->
      let a = gs.(0) in
      fun e -> getfield rtc (a e) idx
  | Ir.Setfield_gc idx ->
      let a = gs.(0) and v = gs.(1) in
      fun e ->
        setfield rtc (a e) idx (v e);
        Value.nil
  | Ir.Getcell ->
      let a = gs.(0) in
      fun e ->
        let v = a e in
        if Value.is_obj v then (
          match (Value.to_obj_unchecked v).Value.payload with
          | Value.Cell c -> c.cell
          | _ -> Semantics.err "getcell on %s" (Value.type_name v))
        else Semantics.err "getcell on %s" (Value.type_name v)
  | Ir.Setcell ->
      let a = gs.(0) and x = gs.(1) in
      fun e ->
        let v = a e in
        if Value.is_obj v then (
          let o = Value.to_obj_unchecked v in
          match o.Value.payload with
          | Value.Cell c ->
              let x = x e in
              c.cell <- x;
              Gc_sim.write_barrier gc ~parent:o ~child:x;
              Value.nil
          | _ -> Semantics.err "setcell on %s" (Value.type_name v))
        else Semantics.err "setcell on %s" (Value.type_name v)
  | Ir.Getlistitem ->
      let a = gs.(0) and b = gs.(1) in
      fun e ->
        let o = Semantics.as_list (a e) in
        let i = as_int (b e) in
        let l = Rlist.of_obj o in
        if i < 0 || i >= Rlist.length l then
          Semantics.err "list index out of range";
        Engine.mem_access eng ~addr:(Gc_sim.addr o ~field:(i land 15))
          ~write:false;
        Value.list_get_unsafe l i
  | Ir.Setlistitem ->
      let a = gs.(0) and b = gs.(1) and x = gs.(2) in
      fun e ->
        let o = Semantics.as_list (a e) in
        let i = as_int (b e) in
        let l = Rlist.of_obj o in
        if i < 0 || i >= Rlist.length l then
          Semantics.err "list assignment index out of range";
        Rlist.set rtc o i (x e);
        Value.nil
  | Ir.Getarrayitem_gc ->
      let a = gs.(0) and b = gs.(1) in
      fun e ->
        let v = a e in
        if Value.is_obj v then (
          let o = Value.to_obj_unchecked v in
          match o.Value.payload with
          | Value.Tuple arr ->
              let i = as_int (b e) in
              if i < 0 || i >= Array.length arr then
                Semantics.err "tuple index out of range";
              Engine.mem_access eng ~addr:(Gc_sim.addr o ~field:(i land 15))
                ~write:false;
              arr.(i)
          | _ -> Semantics.err "getarrayitem on %s" (Value.type_name v))
        else Semantics.err "getarrayitem on %s" (Value.type_name v)
  | Ir.Arraylen ->
      let a = gs.(0) in
      fun e -> Value.of_int (Semantics.len_of rtc (a e))
  | Ir.New_with_vtable cls_obj -> (
      match cls_obj.Value.payload with
      | Value.Class c ->
          let nfields = Array.length c.Value.layout in
          fun _ ->
            Gc_sim.obj gc
              (Value.Instance
                 { cls = cls_obj; fields = Array.make nfields Value.nil })
      | _ -> fun _ -> Semantics.err "new_with_vtable: not a class")
  | Ir.New_array _ -> fun e -> Gc_sim.obj gc (Value.Tuple (fetch gs e))
  | Ir.New_list _ ->
      fun e -> Value.of_obj (Rlist.create rtc (Array.to_list (fetch gs e)))
  | Ir.New_cell ->
      let a = gs.(0) in
      fun e -> Gc_sim.obj gc (Value.Cell { cell = a e })
  | Ir.Call_r rc ->
      fun e ->
        let vals = fetch gs e in
        Aot.call rtc rc.Ir.aot (fun () -> rc.Ir.run rtc vals)
  | Ir.Call_n rc ->
      fun e ->
        let vals = fetch gs e in
        ignore (Aot.call rtc rc.Ir.aot (fun () -> rc.Ir.run rtc vals));
        Value.nil
  | opc -> Eval_op.stage opc gs

(* an operand's reader over a register file of [nregs] registers,
   checked once here so the reader indexes unchecked *)
let reader ~nregs (o : Ir.operand) : Value.t array -> Value.t =
  match o with
  | Ir.Const v -> fun _ -> v
  | Ir.Reg r ->
      if r < 0 || r >= nregs then
        invalid_arg "Executor: register out of range";
      fun regs -> Array.unsafe_get regs r

(* read every operand into [tmp], which is as long as [gs], before
   anything is written: a jump's sources may overlap the entry
   registers it refills *)
let[@inline] fill (gs : (Value.t array -> Value.t) array) tmp regs =
  for k = 0 to Array.length gs - 1 do
    Array.unsafe_set tmp k ((Array.unsafe_get gs k) regs)
  done

let entry_cost = Cost.make ~alu:6 ~load:8 ~store:8 ~other:9 ()

(* --- exits, shared by both loops ---

   Each exit annotates its own trace's [Trace_exit], last. *)

(* leave [t] through [guard]'s (or, with [None], the bytecode
   boundary's) resume data: charge the blackhole and rebuild the
   interpreter frames from [t]'s register file [regs] *)
let deopt rtc (jitlog : Jitlog.t) (t : Ir.trace) (regs : Value.t array)
    (resume : Ir.resume) (guard : Ir.guard option) : exit_state =
  let eng = Ctx.engine rtc in
  let guard_id = match guard with Some g -> g.Ir.guard_id | None -> -1 in
  Engine.annot eng (Annot.Guard_fail guard_id);
  Jitlog.record_deopt jitlog;
  t.Ir.deopts <- t.Ir.deopts + 1;
  let frames = blackhole rtc resume regs ~guard_id in
  let request_bridge =
    match guard with
    | Some g ->
        g.Ir.fail_count >= (Ctx.config rtc).Config.bridge_threshold
        && g.Ir.bridgeable && g.Ir.bridge = None
    | None -> false
  in
  Engine.annot eng t.Ir.exit_annot;
  Deopt { frames; guard; trace = t; request_bridge }

(* [t] ended with [finish]: the traced region returned [v] *)
let finished eng (t : Ir.trace) v =
  Engine.annot eng t.Ir.exit_annot;
  Finished v

(* adaptive tiers: a baseline loop that has reached its promotion point
   leaves JIT code at its own back-edge — the frame state there is
   exactly the loop-header state [vals] — so the driver's portal can
   take a tier-up decision and re-enter *)
let tier_up_exit eng (t : Ir.trace) ~loop_code ~loop_pc vals =
  Engine.annot eng t.Ir.exit_annot;
  Tier_up
    {
      df_code = loop_code;
      df_pc = loop_pc;
      df_locals = vals;
      df_stack = [||];
      df_discard = false;
    }

(* --- register files and the way in, shared by both loops --- *)

(* The run-time state of trace code: the register file of the trace
   running.  It belongs to that trace, and leaving the trace ends its
   use; exits only read from it or copy out of it. *)
type state = { mutable st_regs : Value.t array }

(* a fresh register file for [t] holding [vals] in its first registers *)
let regs_for (t : Ir.trace) (vals : Value.t array) =
  let regs = Array.make t.Ir.nregs Value.nil in
  Array.blit vals 0 regs 0 (Array.length vals);
  regs

(* a fresh register file for [g]'s attached [bridge], holding the
   guard's frames materialized straight into its entry registers *)
let bridge_regs rtc (g : Ir.guard) (bridge : Ir.trace) regs =
  let dst = Array.make bridge.Ir.nregs Value.nil in
  materialize_flat rtc g.Ir.resume regs dst;
  dst

(* run [body] with [scan] registered as a GC root scanner, removing it
   however [body] ends *)
let with_roots gc scan body =
  let id = Gc_sim.add_root_scanner gc scan in
  match body () with
  | v ->
      Gc_sim.remove_root_scanner gc id;
      v
  | exception e ->
      Gc_sim.remove_root_scanner gc id;
      raise e

(* Enter [trace] with [entry] in its first registers and run [body] on
   the state: a fresh register file, whichever file is live scanned as
   GC roots until [body] returns; [Trace_enter]; the first-entry latch;
   the entry count, taken before the charge (the charge can exhaust the
   budget, and the annotated entry and the latch must still show in
   [exec_count]); the entry charge. *)
let entering rtc (jitlog : Jitlog.t) (trace : Ir.trace) entry
    (body : state -> exit_state) =
  let eng = Ctx.engine rtc in
  let st = { st_regs = regs_for trace entry } in
  with_roots (Ctx.gc rtc) (fun visit -> Array.iter visit st.st_regs)
  @@ fun () ->
  Engine.annot eng trace.Ir.enter_annot;
  Jitlog.record_first_entry jitlog ~insns:(Engine.total_insns eng);
  trace.Ir.exec_count <- trace.Ir.exec_count + 1;
  Engine.emit eng entry_cost;
  body st

(* --- the reference loop ---

   Interprets the IR directly, staging each op as it runs it: the
   oracle for what the threaded translation below adds on top of the
   shared op, entry and exit definitions, namely pre-bound fail paths,
   boundary resumes resolved at translation, the code cache and
   continuation-passing control flow (the differential test in
   test/test_threaded_diff.ml holds the two to identical exits, register
   files and machine counters). *)

let run_ref rtc (jitlog : Jitlog.t) ~(trace : Ir.trace)
    ~(entry : Value.t array) : exit_state =
  let eng = Ctx.engine rtc in
  entering rtc jitlog trace entry @@ fun st ->
  let cur = ref trace in
  let ip = ref 0 in
  (* the resume of the last merge point passed in the current segment:
     since op 0 in the preamble, since [loop_start] in the loop *)
  let last_resume = ref None in
  let goto i =
    if i = !cur.Ir.loop_start then last_resume := None;
    ip := i
  in
  let switch_trace (target : Ir.trace) (regs : Value.t array) =
    Engine.annot eng !cur.Ir.exit_annot;
    Engine.annot eng target.Ir.enter_annot;
    st.st_regs <- regs;
    cur := target;
    target.Ir.exec_count <- target.Ir.exec_count + 1;
    last_resume := None;
    goto 0
  in
  let exit_state = ref None in
  let leave e = exit_state := Some e in
  while !exit_state = None do
    let t = !cur in
    let regs = st.st_regs in
    let op = t.Ir.ops.(!ip) in
    t.Ir.op_exec.(!ip) <- t.Ir.op_exec.(!ip) + 1;
    (* per-opcode costs are interned in the trace at compile time *)
    Engine.emit eng t.Ir.op_costs.(!ip);
    let readers () = Array.map (reader ~nregs:(Array.length regs)) op.Ir.args in
    let argvals () = fetch (readers ()) regs in
    let set_result v = if op.Ir.result >= 0 then regs.(op.Ir.result) <- v in
    let next () = goto (!ip + 1) in
    (* a failure partway through the bytecode deoptimizes at its
       boundary, or raises [e] where the segment has no merge point *)
    let boundary e =
      match !last_resume with
      | Some r -> leave (deopt rtc jitlog t regs r None)
      | None -> raise e
    in
    match op.Ir.opcode with
    | Ir.Debug_merge_point d ->
        last_resume := Some d.dmp_resume;
        Engine.tick eng;
        next ()
    | Ir.Label -> next ()
    | Ir.Guard g -> (
        match guard_test g (readers ()) regs with
        | true ->
            Engine.branch eng ~site:(400_000 + (g.Ir.guard_id land 4095)) ~taken:true;
            next ()
        | false -> (
            Engine.branch eng ~site:(400_000 + (g.Ir.guard_id land 4095)) ~taken:false;
            g.Ir.fail_count <- g.Ir.fail_count + 1;
            match g.Ir.bridge with
            | Some bridge -> switch_trace bridge (bridge_regs rtc g bridge regs)
            | None -> leave (deopt rtc jitlog t regs g.Ir.resume (Some g)))
        | exception (Ops_intf.Lang_error _ | Rarith.Type_error _ | Division_by_zero) ->
            leave (deopt rtc jitlog t regs g.Ir.resume (Some g)))
    | Ir.Finish ->
        Engine.branch eng ~site:(430_000 + (t.Ir.trace_id land 1023)) ~taken:true;
        leave (finished eng t (argvals ()).(0))
    | Ir.Jump -> (
        let vals = argvals () in
        match t.Ir.kind with
        | Ir.Loop { loop_code; loop_pc }
          when t.Ir.tier = 1 && t.Ir.exec_count >= t.Ir.promote_at ->
            leave (tier_up_exit eng t ~loop_code ~loop_pc vals)
        | _ ->
            Array.blit vals 0 regs t.Ir.loop_base (Array.length vals);
            Engine.branch eng ~site:(410_000 + (t.Ir.trace_id land 1023))
              ~taken:true;
            t.Ir.exec_count <- t.Ir.exec_count + 1;
            goto t.Ir.loop_start)
    | Ir.Call_assembler target_id -> (
        match Jitlog.find jitlog target_id with
        | Some target ->
            Engine.branch_indirect eng ~site:(420_000 + (t.Ir.trace_id land 1023))
              ~target:target_id;
            switch_trace target (regs_for target (argvals ()))
        | None ->
            boundary (Ops_intf.Lang_error "call_assembler to unknown trace"))
    | opc -> (
        match set_result (stage_op rtc opc (readers ()) regs) with
        | () -> next ()
        | exception
            ((Ops_intf.Lang_error _ | Rarith.Type_error _ | Division_by_zero)
             as e) ->
            boundary e)
  done;
  Option.get !exit_state

(* --- continuation-threaded trace code ---

   [translate] lowers a trace's op array, once, into an array of [step]
   closures, one per op.  Each step is pre-bound at translation time:
   the op's work is its staged definition, operand lookups are direct
   register indices or hoisted constants, the per-op cost bundle and
   op_exec counter cell are captured, guards carry their resolved fail
   path (bridge target or deopt), and an op that can fail partway
   through its bytecode carries its boundary resume.  A step ends by
   tail-calling its continuation — the next op's step, the loop head at
   a back-edge, the target's first step on a trace switch — or returns
   the [exit_state] it leaves JIT code with, so a run is one chain of
   tail calls in constant host stack.  The interpretive costs of the
   reference loop (opcode re-match, operand re-decode and staging,
   per-iteration closure and array allocation, the instruction pointer,
   its dispatch loop and the merge-point store) are paid once per
   translation instead of once per executed op. *)

type step = state -> exit_state
type threaded = { th_version : int; th_code : step array }
type Ctx.code += Threaded of threaded

(* the executor's caught-error set: language errors deoptimize to the
   bytecode boundary, everything else (Budget_exhausted in particular)
   propagates *)
let lang_errors = function
  | Ops_intf.Lang_error _ | Rarith.Type_error _ | Division_by_zero -> true
  | _ -> false

(* the continuation past the last op: well-formed traces end in a jump,
   finish or call_assembler and never reach it *)
let off_end (_ : state) : exit_state =
  invalid_arg "Executor: trace ran off the end"

(* The resume an op at [i] of [t] deoptimizes to when it fails partway
   through its bytecode: that of the last merge point before it in its
   segment, [0, i) in the preamble and [loop_start, i) in the loop, or
   [None].  Every trace the recorder builds has a merge point at op 0
   and, when peeled, at [loop_start], so this is the last merge point
   the run passed. *)
let boundary_resume (t : Ir.trace) i =
  let from = if i >= t.Ir.loop_start then t.Ir.loop_start else 0 in
  let rec back j =
    if j < from then None
    else
      match t.Ir.ops.(j).Ir.opcode with
      | Ir.Debug_merge_point d -> Some d.dmp_resume
      | _ -> back (j - 1)
  in
  back (i - 1)

let rec translate rtc (jitlog : Jitlog.t) (t : Ir.trace) : step array =
  let eng = Ctx.engine rtc in
  let ops = t.Ir.ops in
  let costs = t.Ir.op_costs in
  let exec = t.Ir.op_exec in
  let n = Array.length ops in
  if t.Ir.loop_start < 0 || t.Ir.loop_start > n then
    invalid_arg "Executor.translate: loop_start out of range";
  (* filled back to front below; the back-edge reads its loop head out
     of it when it runs, after every step is in place *)
  let code = Array.make (n + 1) off_end in
  (* operand readers: constants hoisted, registers resolved to direct
     (validated, hence unsafe-indexable) slots *)
  let readers (args : Ir.operand array) =
    Array.map (reader ~nregs:t.Ir.nregs) args
  in
  let store (d : int) : Value.t array -> Value.t -> unit =
    if d >= 0 then begin
      if d >= t.Ir.nregs then
        invalid_arg "Executor.translate: result register out of range";
      fun regs v -> Array.unsafe_set regs d v
    end
    else fun _ _ -> ()
  in
  (* the way out of op [i] failing partway through its bytecode with [e] *)
  let boundary i : exn -> step =
    match boundary_resume t i with
    | Some r -> fun _ st -> deopt rtc jitlog t st.st_regs r None
    | None -> fun e _ -> raise e
  in
  (* continue in [target]'s first step with [regs] as its register file *)
  let enter st (target : Ir.trace) (regs : Value.t array) =
    Engine.annot eng t.Ir.exit_annot;
    Engine.annot eng target.Ir.enter_annot;
    st.st_regs <- regs;
    let first = Array.unsafe_get (code_for rtc jitlog target) 0 in
    target.Ir.exec_count <- target.Ir.exec_count + 1;
    first st
  in
  (* a guard's fail path, resolved at translation time: an attached
     bridge becomes a direct jump into the bridge's register file,
     otherwise the deopt.  Sound to pre-bind because bridges only attach
     between runs (in the driver), and attaching one bumps
     [code_version] which invalidates this translation. *)
  let fail_path (g : Ir.guard) : step =
    match g.Ir.bridge with
    | Some bridge ->
        fun st ->
          g.Ir.fail_count <- g.Ir.fail_count + 1;
          enter st bridge (bridge_regs rtc g bridge st.st_regs)
    | None ->
        fun st ->
          g.Ir.fail_count <- g.Ir.fail_count + 1;
          deopt rtc jitlog t st.st_regs g.Ir.resume (Some g)
  in
  let guard_step i (g : Ir.guard) (args : Ir.operand array) ~(k : step) :
      step =
    let cost = costs.(i) in
    let site = 400_000 + (g.Ir.guard_id land 4095) in
    let test = guard_test g (readers args) in
    let fail = fail_path g in
    fun st ->
      exec.(i) <- exec.(i) + 1;
      Engine.emit eng cost;
      match test st.st_regs with
      | true ->
          Engine.branch eng ~site ~taken:true;
          k st
      | false ->
          Engine.branch eng ~site ~taken:false;
          fail st
      | exception e when lang_errors e ->
          deopt rtc jitlog t st.st_regs g.Ir.resume (Some g)
  in
  (* ordinary (non-control) op: bump, charge, do the work, fall through;
     language errors leave through the op's boundary *)
  let ordinary i (op : Ir.op) ~(k : step) : step =
    let cost = costs.(i) in
    let work = stage_op rtc op.Ir.opcode (readers op.Ir.args) in
    let set = store op.Ir.result in
    let fail = boundary i in
    fun st ->
      exec.(i) <- exec.(i) + 1;
      Engine.emit eng cost;
      let regs = st.st_regs in
      match set regs (work regs) with
      | () -> k st
      | exception e when lang_errors e -> fail e st
  in
  let op_step i (op : Ir.op) ~(k : step) : step =
    match op.Ir.opcode with
    | Ir.Debug_merge_point _ ->
        let cost = costs.(i) in
        fun st ->
          exec.(i) <- exec.(i) + 1;
          Engine.emit eng cost;
          Engine.tick eng;
          k st
    | Ir.Label ->
        let cost = costs.(i) in
        fun st ->
          exec.(i) <- exec.(i) + 1;
          Engine.emit eng cost;
          k st
    | Ir.Guard g -> guard_step i g op.Ir.args ~k
    | Ir.Finish ->
        let cost = costs.(i) in
        let a0 = (readers op.Ir.args).(0) in
        let site = 430_000 + (t.Ir.trace_id land 1023) in
        fun st ->
          exec.(i) <- exec.(i) + 1;
          Engine.emit eng cost;
          Engine.branch eng ~site ~taken:true;
          finished eng t (a0 st.st_regs)
    | Ir.Jump ->
        let cost = costs.(i) in
        let gs = readers op.Ir.args in
        let len = Array.length gs in
        let site = 410_000 + (t.Ir.trace_id land 1023) in
        (* one translation-time scratch array serves every iteration; the
           tier-up exit hands out a copy, since its frame escapes *)
        let tmp = Array.make len Value.nil in
        fun st -> (
          exec.(i) <- exec.(i) + 1;
          Engine.emit eng cost;
          let regs = st.st_regs in
          fill gs tmp regs;
          match t.Ir.kind with
          | Ir.Loop { loop_code; loop_pc }
            when t.Ir.tier = 1 && t.Ir.exec_count >= t.Ir.promote_at ->
              tier_up_exit eng t ~loop_code ~loop_pc (Array.copy tmp)
          | _ ->
              Array.blit tmp 0 regs t.Ir.loop_base len;
              Engine.branch eng ~site ~taken:true;
              t.Ir.exec_count <- t.Ir.exec_count + 1;
              (Array.unsafe_get code t.Ir.loop_start) st)
    | Ir.Call_assembler target_id -> (
        let cost = costs.(i) in
        (* the backend registers a trace before translating it, and the
           recorder only emits a call_assembler to a compiled loop, so a
           target unknown now stays unknown: leave at the boundary *)
        match Jitlog.find jitlog target_id with
        | Some target ->
            let gs = readers op.Ir.args in
            let site = 420_000 + (t.Ir.trace_id land 1023) in
            let tmp = Array.make (Array.length gs) Value.nil in
            fun st ->
              exec.(i) <- exec.(i) + 1;
              Engine.emit eng cost;
              Engine.branch_indirect eng ~site ~target:target_id;
              fill gs tmp st.st_regs;
              enter st target (regs_for target tmp)
        | None ->
            let unknown =
              Ops_intf.Lang_error "call_assembler to unknown trace"
            in
            let fail = boundary i in
            fun st ->
              exec.(i) <- exec.(i) + 1;
              Engine.emit eng cost;
              fail unknown st)
    | _ -> ordinary i op ~k
  in
  for i = n - 1 downto 0 do
    code.(i) <- op_step i ops.(i) ~k:code.(i + 1)
  done;
  code

(* --- the per-context trace code cache --- *)

and code_for rtc (jitlog : Jitlog.t) (t : Ir.trace) : step array =
  let cache = Ctx.code_cache rtc in
  match Hashtbl.find_opt cache t.Ir.trace_id with
  | Some (Threaded { th_version; th_code }) when th_version = t.Ir.code_version
    ->
      t.Ir.cache_hits <- t.Ir.cache_hits + 1;
      Jitlog.record_code_cache_hit jitlog;
      th_code
  | _ -> install rtc jitlog t

and install rtc (jitlog : Jitlog.t) (t : Ir.trace) : step array =
  let code = translate rtc jitlog t in
  Hashtbl.replace (Ctx.code_cache rtc) t.Ir.trace_id
    (Threaded { th_version = t.Ir.code_version; th_code = code });
  t.Ir.translations <- t.Ir.translations + 1;
  Jitlog.record_translation jitlog;
  code

let precompile rtc jitlog t = ignore (install rtc jitlog t : step array)

(* --- entry: the first step runs the whole chain --- *)

let run rtc (jitlog : Jitlog.t) ~(trace : Ir.trace) ~(entry : Value.t array) :
    exit_state =
  let code = code_for rtc jitlog trace in
  entering rtc jitlog trace entry (Array.unsafe_get code 0)
