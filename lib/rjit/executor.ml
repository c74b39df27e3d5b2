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

    Two execution strategies share these semantics:

    - {!run_ref}, the reference loop, re-matches [op.opcode] and
      re-decodes operands on every iteration;
    - {!run}, the closure-threaded loop (after Izawa et al. 2021):
      {!precompile}/[code_for] translate the op array {e once} into an
      array of pre-bound step closures — operands resolved to direct
      register indices or hoisted constants, guards pre-bound to their
      resume data and fail path, compare+guard and int-op+overflow-guard
      pairs fused into superinstructions — cached per context and keyed
      by trace id, invalidated when a bridge attachment bumps the
      trace's [code_version].

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

type exit_state = {
  frames : deopt_frame list;  (* outermost first; empty on [finished] *)
  failed_guard : Ir.guard option;
  failed_in : Ir.trace option;
      (* the trace the failing guard belongs to (the executor may have
         switched traces since entry); the driver invalidates its cached
         threaded code when it attaches a bridge to the guard *)
  request_bridge : bool;
  finished : Value.t option;
      (* a bridge ended with [finish]: the traced region returned this
         value to its caller *)
}

let as_obj = Semantics.as_obj
let as_int = Eval_op.as_int
let as_float = Eval_op.as_float

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

let guard_holds (g : Ir.guard) (vals : Value.t array) =
  match g.Ir.gkind with
  | Ir.G_true -> Value.truthy vals.(0)
  | Ir.G_false -> not (Value.truthy vals.(0))
  | Ir.G_value v -> Value.py_eq vals.(0) v
  | Ir.G_class sh -> Trace_ops.tyshape_of vals.(0) = sh
  | Ir.G_nonnull -> not (Value.is_nil vals.(0))
  | Ir.G_no_ovf_add -> (
      match Eval_op.checked_add (as_int vals.(0)) (as_int vals.(1)) with
      | (_ : int) -> true
      | exception Eval_op.Overflow -> false)
  | Ir.G_no_ovf_sub -> (
      match Eval_op.checked_sub (as_int vals.(0)) (as_int vals.(1)) with
      | (_ : int) -> true
      | exception Eval_op.Overflow -> false)
  | Ir.G_no_ovf_mul -> (
      match Eval_op.checked_mul (as_int vals.(0)) (as_int vals.(1)) with
      | (_ : int) -> true
      | exception Eval_op.Overflow -> false)
  | Ir.G_index_lt ->
      let i = as_int vals.(0) and n = as_int vals.(1) in
      i >= 0 && i < n
  | Ir.G_global_version (cell, ver) -> !cell = ver

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

let entry_cost = Cost.make ~alu:6 ~load:8 ~store:8 ~other:9 ()

(* --- the reference loop ---

   Interprets the IR directly: the executable semantics the threaded
   translation below must reproduce exactly (the differential test in
   test/test_threaded_diff.ml holds the two to identical exits, register
   files and machine counters). *)

let run_ref rtc (jitlog : Jitlog.t) ~(trace : Ir.trace)
    ~(entry : Value.t array) : exit_state =
  let eng = Ctx.engine rtc in
  let cfg = Ctx.config rtc in
  let gc = Ctx.gc rtc in
  (* current register file, tracked for GC root scanning *)
  let cur_regs = ref (Array.make trace.Ir.nregs Value.nil) in
  Array.blit entry 0 !cur_regs 0 (Array.length entry);
  let scanner_id =
    Gc_sim.add_root_scanner gc (fun visit -> Array.iter visit !cur_regs)
  in
  Fun.protect ~finally:(fun () -> Gc_sim.remove_root_scanner gc scanner_id)
  @@ fun () ->
  let cur_trace = ref trace in
  let last_resume = ref None in
  Engine.annot eng (Annot.Trace_enter trace.Ir.trace_id);
  Jitlog.record_first_entry jitlog ~insns:(Engine.total_insns eng);
  (* count the entry before charging it: the charge can exhaust the
     budget, and the annotated entry and the latch must still show in
     [exec_count] *)
  trace.Ir.exec_count <- trace.Ir.exec_count + 1;
  Engine.emit eng entry_cost;
  let exit_state = ref None in
  let ip = ref 0 in
  let switch_trace (target : Ir.trace) (values : Value.t array) =
    Engine.annot eng (Annot.Trace_exit !cur_trace.Ir.trace_id);
    Engine.annot eng (Annot.Trace_enter target.Ir.trace_id);
    let regs = Array.make target.Ir.nregs Value.nil in
    Array.blit values 0 regs 0 (Array.length values);
    cur_regs := regs;
    cur_trace := target;
    target.Ir.exec_count <- target.Ir.exec_count + 1;
    ip := 0
  in
  let deopt resume ~guard =
    let guard_id = match guard with Some g -> g.Ir.guard_id | None -> -1 in
    Engine.annot eng (Annot.Guard_fail guard_id);
    Jitlog.record_deopt jitlog;
    (!cur_trace).Ir.deopts <- (!cur_trace).Ir.deopts + 1;
    let frames = blackhole rtc resume !cur_regs ~guard_id in
    let request_bridge =
      match guard with
      | Some g ->
          g.Ir.fail_count >= cfg.Config.bridge_threshold
          && g.Ir.bridgeable && g.Ir.bridge = None
      | None -> false
    in
    exit_state :=
      Some
        {
          frames;
          failed_guard = guard;
          failed_in = Some !cur_trace;
          request_bridge;
          finished = None;
        }
  in
  while !exit_state = None do
    let t = !cur_trace in
    let regs = !cur_regs in
    let op = t.Ir.ops.(!ip) in
    t.Ir.op_exec.(!ip) <- t.Ir.op_exec.(!ip) + 1;
    (* per-opcode costs are interned in the trace's code table at
       compile time; charge through the block API *)
    Engine.emit_static eng t.Ir.op_costs ~lo:!ip ~hi:(!ip + 1);
    let arg i =
      match op.Ir.args.(i) with
      | Ir.Const v -> v
      | Ir.Reg r -> regs.(r)
    in
    let argvals () = Array.map (function
        | Ir.Const v -> v
        | Ir.Reg r -> regs.(r)) op.Ir.args
    in
    let set_result v = if op.Ir.result >= 0 then regs.(op.Ir.result) <- v in
    match op.Ir.opcode with
    | Ir.Debug_merge_point d ->
        last_resume := Some d.dmp_resume;
        Engine.annot eng Annot.Dispatch_tick;
        incr ip
    | Ir.Label -> incr ip
    | Ir.Guard g -> (
        let vals = argvals () in
        match guard_holds g vals with
        | true ->
            Engine.branch eng ~site:(400_000 + (g.Ir.guard_id land 4095)) ~taken:true;
            incr ip
        | false -> (
            Engine.branch eng ~site:(400_000 + (g.Ir.guard_id land 4095)) ~taken:false;
            g.Ir.fail_count <- g.Ir.fail_count + 1;
            match g.Ir.bridge with
            | Some bridge ->
                (* patched side-exit: jump straight into the bridge with
                   the (materialized) frame state flattened into its
                   entry registers *)
                let frames = materialize_frames rtc g.Ir.resume regs in
                let flat =
                  List.concat_map
                    (fun f -> Array.to_list f.df_locals @ Array.to_list f.df_stack)
                    frames
                in
                switch_trace bridge (Array.of_list flat)
            | None -> deopt g.Ir.resume ~guard:(Some g))
        | exception (Ops_intf.Lang_error _ | Rarith.Type_error _ | Division_by_zero) ->
            deopt g.Ir.resume ~guard:(Some g))
    | Ir.Finish ->
        Engine.branch eng ~site:(430_000 + (t.Ir.trace_id land 1023)) ~taken:true;
        exit_state :=
          Some
            {
              frames = [];
              failed_guard = None;
              failed_in = None;
              request_bridge = false;
              finished = Some (arg 0);
            }
    | Ir.Jump -> (
        let vals = argvals () in
        (* adaptive tiers: a baseline loop that has reached its
           promotion point leaves JIT code at its own back-edge — the
           frame state there is exactly the loop-header state — so the
           driver's portal can take a tier-up decision and re-enter *)
        match t.Ir.kind with
        | Ir.Loop { loop_code; loop_pc }
          when t.Ir.tier = 1 && t.Ir.exec_count >= t.Ir.promote_at ->
            exit_state :=
              Some
                {
                  frames =
                    [
                      {
                        df_code = loop_code;
                        df_pc = loop_pc;
                        df_locals = vals;
                        df_stack = [||];
                        df_discard = false;
                      };
                    ];
                  failed_guard = None;
                  failed_in = None;
                  request_bridge = false;
                  finished = None;
                }
        | _ ->
            Array.blit vals 0 regs t.Ir.loop_base (Array.length vals);
            Engine.branch eng ~site:(410_000 + (t.Ir.trace_id land 1023))
              ~taken:true;
            t.Ir.exec_count <- t.Ir.exec_count + 1;
            ip := t.Ir.loop_start)
    | Ir.Call_assembler target_id -> (
        match Jitlog.find jitlog target_id with
        | Some target ->
            Engine.branch_indirect eng ~site:(420_000 + (t.Ir.trace_id land 1023))
              ~target:target_id;
            switch_trace target (argvals ())
        | None -> (
            match !last_resume with
            | Some r -> deopt r ~guard:None
            | None -> Semantics.err "call_assembler to unknown trace"))
    | _ -> (
        (* ordinary operations; language errors deoptimize to the current
           bytecode boundary *)
        match
          (match op.Ir.opcode with
          | Ir.Getfield_gc idx -> set_result (getfield rtc (arg 0) idx)
          | Ir.Setfield_gc idx -> setfield rtc (arg 0) idx (arg 1)
          | Ir.Getcell ->
              let v = arg 0 in
              if Value.is_obj v then (
                match (Value.to_obj_unchecked v).Value.payload with
                | Value.Cell c -> set_result c.cell
                | _ -> Semantics.err "getcell on %s" (Value.type_name v))
              else Semantics.err "getcell on %s" (Value.type_name v)
          | Ir.Setcell ->
              let v = arg 0 in
              if Value.is_obj v then (
                let o = Value.to_obj_unchecked v in
                match o.Value.payload with
                | Value.Cell c ->
                    c.cell <- arg 1;
                    Gc_sim.write_barrier gc ~parent:o ~child:(arg 1)
                | _ -> Semantics.err "setcell on %s" (Value.type_name v))
              else Semantics.err "setcell on %s" (Value.type_name v)
          | Ir.Getlistitem ->
              let o = Semantics.as_list (arg 0) in
              let i = as_int (arg 1) in
              let l = Rlist.of_obj o in
              if i < 0 || i >= Rlist.length l then
                Semantics.err "list index out of range";
              Engine.mem_access eng ~addr:(Gc_sim.addr o ~field:(i land 15))
                ~write:false;
              set_result (Value.list_get_unsafe l i)
          | Ir.Setlistitem ->
              let o = Semantics.as_list (arg 0) in
              let i = as_int (arg 1) in
              let l = Rlist.of_obj o in
              if i < 0 || i >= Rlist.length l then
                Semantics.err "list assignment index out of range";
              Rlist.set rtc o i (arg 2)
          | Ir.Getarrayitem_gc ->
              let v = arg 0 in
              if Value.is_obj v then (
                let o = Value.to_obj_unchecked v in
                match o.Value.payload with
                | Value.Tuple a ->
                    let i = as_int (arg 1) in
                    if i < 0 || i >= Array.length a then
                      Semantics.err "tuple index out of range";
                    Engine.mem_access eng
                      ~addr:(Gc_sim.addr o ~field:(i land 15))
                      ~write:false;
                    set_result a.(i)
                | _ -> Semantics.err "getarrayitem on %s" (Value.type_name v))
              else Semantics.err "getarrayitem on %s" (Value.type_name v)
          | Ir.Arraylen ->
              set_result (Value.of_int (Semantics.len_of rtc (arg 0)))
          | Ir.New_with_vtable cls_obj -> (
              match cls_obj.Value.payload with
              | Value.Class c ->
                  set_result
                    (Gc_sim.obj gc
                       (Value.Instance
                          {
                            cls = cls_obj;
                            fields =
                              Array.make
                                (Array.length c.Value.layout)
                                Value.nil;
                          }))
              | _ -> Semantics.err "new_with_vtable: not a class")
          | Ir.New_array _ ->
              set_result (Gc_sim.obj gc (Value.Tuple (argvals ())))
          | Ir.New_list _ ->
              set_result
                (Value.of_obj (Rlist.create rtc (Array.to_list (argvals ()))))
          | Ir.New_cell ->
              set_result (Gc_sim.obj gc (Value.Cell { cell = arg 0 }))
          | Ir.Call_r rc ->
              let vals = argvals () in
              set_result (Aot.call rtc rc.Ir.aot (fun () -> rc.Ir.run rtc vals))
          | Ir.Call_n rc ->
              let vals = argvals () in
              ignore (Aot.call rtc rc.Ir.aot (fun () -> rc.Ir.run rtc vals))
          | opc ->
              (* pure ops *)
              set_result (Eval_op.eval opc (argvals ())))
        with
        | () -> incr ip
        | exception
            ((Ops_intf.Lang_error _ | Rarith.Type_error _ | Division_by_zero)
             as e) -> (
            match !last_resume with
            | Some r -> deopt r ~guard:None
            | None -> raise e))
  done;
  Engine.annot eng (Annot.Trace_exit !cur_trace.Ir.trace_id);
  Option.get !exit_state

(* --- closure-threaded trace code ---

   [translate] lowers a trace's op array, once, into an array of [step]
   closures over a small mutable machine state.  Each step is pre-bound
   at translation time: operand lookups are direct register indices or
   hoisted constants, the per-op cost bundle and op_exec counter cell
   are captured, guards carry their resolved fail path (bridge target or
   deopt), and the two pairs the recorder always emits adjacently —
   compare+guard and int-op+overflow-guard — collapse into fused
   superinstruction steps.  The interpretive costs of the reference loop
   (opcode re-match, operand re-decode, per-iteration closure and array
   allocation) are paid once per translation instead of once per
   executed op. *)

type state = {
  mutable st_regs : Value.t array;
  mutable st_cur : Ir.trace;
  mutable st_code : step array;
  mutable st_ip : int;
  mutable st_resume : Ir.resume option;
  mutable st_exit : exit_state option;
}

and step = state -> unit

type threaded = { th_version : int; th_code : step array }
type Ctx.code += Threaded of threaded

(* the executor's caught-error set: language errors deoptimize to the
   bytecode boundary, everything else (Budget_exhausted in particular)
   propagates *)
let lang_errors = function
  | Ops_intf.Lang_error _ | Rarith.Type_error _ | Division_by_zero -> true
  | _ -> false

let rec translate rtc (jitlog : Jitlog.t) (t : Ir.trace) : step array =
  let eng = Ctx.engine rtc in
  let cfg = Ctx.config rtc in
  let gc = Ctx.gc rtc in
  let ops = t.Ir.ops in
  let costs = t.Ir.op_costs in
  let exec = t.Ir.op_exec in
  let n = Array.length ops in
  if t.Ir.loop_start < 0 || t.Ir.loop_start > n then
    invalid_arg "Executor.translate: loop_start out of range";
  (* operand fetchers: constants hoisted, registers resolved to direct
     (validated, hence unsafe-indexable) slots *)
  let getter (o : Ir.operand) : Value.t array -> Value.t =
    match o with
    | Ir.Const v -> fun _ -> v
    | Ir.Reg r ->
        if r < 0 || r >= t.Ir.nregs then
          invalid_arg "Executor.translate: register out of range";
        fun regs -> Array.unsafe_get regs r
  in
  let store (d : int) : Value.t array -> Value.t -> unit =
    if d >= 0 then begin
      if d >= t.Ir.nregs then
        invalid_arg "Executor.translate: result register out of range";
      fun regs v -> Array.unsafe_set regs d v
    end
    else fun _ _ -> ()
  in
  let fetch_all (args : Ir.operand array) : Value.t array -> Value.t array =
    let gs = Array.map getter args in
    fun regs -> Array.map (fun g -> g regs) gs
  in
  (* shared exit paths, mirroring the reference loop exactly *)
  let deopt st (resume : Ir.resume) (guard : Ir.guard option) =
    let guard_id = match guard with Some g -> g.Ir.guard_id | None -> -1 in
    Engine.annot eng (Annot.Guard_fail guard_id);
    Jitlog.record_deopt jitlog;
    st.st_cur.Ir.deopts <- st.st_cur.Ir.deopts + 1;
    let frames = blackhole rtc resume st.st_regs ~guard_id in
    let request_bridge =
      match guard with
      | Some g ->
          g.Ir.fail_count >= cfg.Config.bridge_threshold
          && g.Ir.bridgeable && g.Ir.bridge = None
      | None -> false
    in
    st.st_exit <-
      Some
        {
          frames;
          failed_guard = guard;
          failed_in = Some st.st_cur;
          request_bridge;
          finished = None;
        }
  in
  let deopt_boundary st e =
    match st.st_resume with
    | Some r -> deopt st r None
    | None -> raise e
  in
  (* continue in [target] with [regs] as its register file *)
  let enter st (target : Ir.trace) (regs : Value.t array) =
    Engine.annot eng (Annot.Trace_exit st.st_cur.Ir.trace_id);
    Engine.annot eng (Annot.Trace_enter target.Ir.trace_id);
    st.st_regs <- regs;
    st.st_cur <- target;
    st.st_code <- code_for rtc jitlog target;
    target.Ir.exec_count <- target.Ir.exec_count + 1;
    st.st_ip <- 0
  in
  let switch st (target : Ir.trace) (values : Value.t array) =
    let regs = Array.make target.Ir.nregs Value.nil in
    Array.blit values 0 regs 0 (Array.length values);
    enter st target regs
  in
  (* a guard's fail path, resolved at translation time: an attached
     bridge becomes a direct jump that materializes the guard's frames
     straight into the bridge's entry registers, otherwise the deopt.
     Sound to pre-bind because bridges only attach between runs (in the
     driver), and attaching one bumps [code_version] which invalidates
     this translation. *)
  let fail_path (g : Ir.guard) : state -> unit =
    match g.Ir.bridge with
    | Some bridge ->
        fun st ->
          g.Ir.fail_count <- g.Ir.fail_count + 1;
          let regs = Array.make bridge.Ir.nregs Value.nil in
          materialize_flat rtc g.Ir.resume st.st_regs regs;
          enter st bridge regs
    | None ->
        fun st ->
          g.Ir.fail_count <- g.Ir.fail_count + 1;
          deopt st g.Ir.resume (Some g)
  in
  (* guard condition, specialized on the (immutable) kind *)
  let guard_test (g : Ir.guard) (args : Ir.operand array) :
      Value.t array -> bool =
    match g.Ir.gkind with
    | Ir.G_true ->
        let a = getter args.(0) in
        fun regs -> Value.truthy (a regs)
    | Ir.G_false ->
        let a = getter args.(0) in
        fun regs -> not (Value.truthy (a regs))
    | Ir.G_value v ->
        let a = getter args.(0) in
        fun regs -> Value.py_eq (a regs) v
    | Ir.G_class sh ->
        let a = getter args.(0) in
        fun regs -> Trace_ops.tyshape_of (a regs) = sh
    | Ir.G_nonnull ->
        let a = getter args.(0) in
        fun regs -> not (Value.is_nil (a regs))
    | Ir.G_no_ovf_add ->
        let a = getter args.(0) and b = getter args.(1) in
        fun regs -> (
          match Eval_op.checked_add (as_int (a regs)) (as_int (b regs)) with
          | (_ : int) -> true
          | exception Eval_op.Overflow -> false)
    | Ir.G_no_ovf_sub ->
        let a = getter args.(0) and b = getter args.(1) in
        fun regs -> (
          match Eval_op.checked_sub (as_int (a regs)) (as_int (b regs)) with
          | (_ : int) -> true
          | exception Eval_op.Overflow -> false)
    | Ir.G_no_ovf_mul ->
        let a = getter args.(0) and b = getter args.(1) in
        fun regs -> (
          match Eval_op.checked_mul (as_int (a regs)) (as_int (b regs)) with
          | (_ : int) -> true
          | exception Eval_op.Overflow -> false)
    | Ir.G_index_lt ->
        let a = getter args.(0) and b = getter args.(1) in
        fun regs ->
          let i = as_int (a regs) and n = as_int (b regs) in
          i >= 0 && i < n
    | Ir.G_global_version (cell, ver) -> fun _ -> !cell = ver
  in
  let guard_step i (g : Ir.guard) (args : Ir.operand array) : step =
    let cost = costs.(i) in
    let site = 400_000 + (g.Ir.guard_id land 4095) in
    let test = guard_test g args in
    let fail = fail_path g in
    fun st ->
      exec.(i) <- exec.(i) + 1;
      Engine.emit eng cost;
      match test st.st_regs with
      | true ->
          Engine.branch eng ~site ~taken:true;
          st.st_ip <- i + 1
      | false ->
          Engine.branch eng ~site ~taken:false;
          fail st
      | exception e when lang_errors e -> deopt st g.Ir.resume (Some g)
  in
  (* ordinary (non-control) op: bump, charge, do the work, fall through;
     language errors deoptimize to the last bytecode boundary *)
  let ordinary i (work : state -> unit) : step =
    let cost = costs.(i) in
    fun st ->
      exec.(i) <- exec.(i) + 1;
      Engine.emit eng cost;
      match work st with
      | () -> st.st_ip <- i + 1
      | exception e when lang_errors e -> deopt_boundary st e
  in
  let generic i (op : Ir.op) : step =
    let fetch = fetch_all op.Ir.args in
    let set = store op.Ir.result in
    let opc = op.Ir.opcode in
    ordinary i (fun st -> set st.st_regs (Eval_op.eval opc (fetch st.st_regs)))
  in
  (* binary specializations.  [y] is converted before [x], matching the
     reference loop's right-to-left operand evaluation, so a type error
     on either operand surfaces identically. *)
  let int_binop i (op : Ir.op) (f : int -> int -> Value.t) : step =
    let a = getter op.Ir.args.(0) and b = getter op.Ir.args.(1) in
    let set = store op.Ir.result in
    ordinary i (fun st ->
        let regs = st.st_regs in
        let y = as_int (b regs) in
        let x = as_int (a regs) in
        set regs (f x y))
  in
  let float_binop i (op : Ir.op) (f : float -> float -> Value.t) : step =
    let a = getter op.Ir.args.(0) and b = getter op.Ir.args.(1) in
    let set = store op.Ir.result in
    ordinary i (fun st ->
        let regs = st.st_regs in
        let y = as_float (b regs) in
        let x = as_float (a regs) in
        set regs (f x y))
  in
  let plain_step i (op : Ir.op) : step =
    match op.Ir.opcode with
    | Ir.Debug_merge_point d ->
        let cost = costs.(i) in
        let resume = Some d.dmp_resume in
        fun st ->
          exec.(i) <- exec.(i) + 1;
          Engine.emit eng cost;
          st.st_resume <- resume;
          Engine.annot eng Annot.Dispatch_tick;
          st.st_ip <- i + 1
    | Ir.Label ->
        let cost = costs.(i) in
        fun st ->
          exec.(i) <- exec.(i) + 1;
          Engine.emit eng cost;
          st.st_ip <- i + 1
    | Ir.Guard g -> guard_step i g op.Ir.args
    | Ir.Finish ->
        let cost = costs.(i) in
        let a0 = getter op.Ir.args.(0) in
        let site = 430_000 + (t.Ir.trace_id land 1023) in
        fun st ->
          exec.(i) <- exec.(i) + 1;
          Engine.emit eng cost;
          Engine.branch eng ~site ~taken:true;
          st.st_exit <-
            Some
              {
                frames = [];
                failed_guard = None;
                failed_in = None;
                request_bridge = false;
                finished = Some (a0 st.st_regs);
              }
    | Ir.Jump -> (
        let cost = costs.(i) in
        let gs = Array.map getter op.Ir.args in
        let len = Array.length gs in
        let site = 410_000 + (t.Ir.trace_id land 1023) in
        let back_edge st vals =
          (* values are all read before the blit: the jump's sources may
             overlap the entry registers it refills *)
          Array.blit vals 0 st.st_regs t.Ir.loop_base len;
          Engine.branch eng ~site ~taken:true;
          t.Ir.exec_count <- t.Ir.exec_count + 1;
          st.st_ip <- t.Ir.loop_start
        in
        match t.Ir.kind with
        | Ir.Loop { loop_code; loop_pc }
          when t.Ir.tier = 1 && t.Ir.promote_at <> Tierpolicy.never ->
            fun st ->
              exec.(i) <- exec.(i) + 1;
              Engine.emit eng cost;
              let regs = st.st_regs in
              let vals = Array.map (fun g -> g regs) gs in
              if t.Ir.exec_count >= t.Ir.promote_at then
                (* baseline loop at its promotion point: leave JIT code
                   at the back-edge so the driver's portal can take a
                   tier-up decision *)
                st.st_exit <-
                  Some
                    {
                      frames =
                        [
                          {
                            df_code = loop_code;
                            df_pc = loop_pc;
                            df_locals = vals;
                            df_stack = [||];
                            df_discard = false;
                          };
                        ];
                      failed_guard = None;
                      failed_in = None;
                      request_bridge = false;
                      finished = None;
                    }
              else back_edge st vals
        | _ ->
            (* steady state: the argument scratch never escapes, so one
               translation-time array serves every iteration *)
            let tmp = Array.make len Value.nil in
            fun st ->
              exec.(i) <- exec.(i) + 1;
              Engine.emit eng cost;
              let regs = st.st_regs in
              for k = 0 to len - 1 do
                Array.unsafe_set tmp k ((Array.unsafe_get gs k) regs)
              done;
              back_edge st tmp)
    | Ir.Call_assembler target_id -> (
        let cost = costs.(i) in
        let gs = Array.map getter op.Ir.args in
        let len = Array.length gs in
        let site = 420_000 + (t.Ir.trace_id land 1023) in
        match Jitlog.find jitlog target_id with
        | Some target ->
            (* target resolved at translation time; trace registration is
               permanent, so the binding can never go stale *)
            let tmp = Array.make len Value.nil in
            fun st ->
              exec.(i) <- exec.(i) + 1;
              Engine.emit eng cost;
              Engine.branch_indirect eng ~site ~target:target_id;
              let regs = st.st_regs in
              for k = 0 to len - 1 do
                Array.unsafe_set tmp k ((Array.unsafe_get gs k) regs)
              done;
              switch st target tmp
        | None ->
            fun st -> (
              exec.(i) <- exec.(i) + 1;
              Engine.emit eng cost;
              match Jitlog.find jitlog target_id with
              | Some target ->
                  Engine.branch_indirect eng ~site ~target:target_id;
                  let regs = st.st_regs in
                  switch st target (Array.map (fun g -> g regs) gs)
              | None -> (
                  match st.st_resume with
                  | Some r -> deopt st r None
                  | None -> Semantics.err "call_assembler to unknown trace")))
    (* memops *)
    | Ir.Getfield_gc idx ->
        let a0 = getter op.Ir.args.(0) in
        let set = store op.Ir.result in
        ordinary i (fun st -> set st.st_regs (getfield rtc (a0 st.st_regs) idx))
    | Ir.Setfield_gc idx ->
        let a0 = getter op.Ir.args.(0) and a1 = getter op.Ir.args.(1) in
        ordinary i (fun st ->
            let regs = st.st_regs in
            setfield rtc (a0 regs) idx (a1 regs))
    | Ir.Getcell ->
        let a0 = getter op.Ir.args.(0) in
        let set = store op.Ir.result in
        ordinary i (fun st ->
            let v = a0 st.st_regs in
            if Value.is_obj v then (
              match (Value.to_obj_unchecked v).Value.payload with
              | Value.Cell c -> set st.st_regs c.cell
              | _ -> Semantics.err "getcell on %s" (Value.type_name v))
            else Semantics.err "getcell on %s" (Value.type_name v))
    | Ir.Setcell ->
        let a0 = getter op.Ir.args.(0) and a1 = getter op.Ir.args.(1) in
        ordinary i (fun st ->
            let regs = st.st_regs in
            let cell = a0 regs in
            if Value.is_obj cell then (
              let o = Value.to_obj_unchecked cell in
              match o.Value.payload with
              | Value.Cell c ->
                  let v = a1 regs in
                  c.cell <- v;
                  Gc_sim.write_barrier gc ~parent:o ~child:v
              | _ -> Semantics.err "setcell on %s" (Value.type_name cell))
            else Semantics.err "setcell on %s" (Value.type_name cell))
    | Ir.Getlistitem ->
        let a0 = getter op.Ir.args.(0) and a1 = getter op.Ir.args.(1) in
        let set = store op.Ir.result in
        ordinary i (fun st ->
            let regs = st.st_regs in
            let o = Semantics.as_list (a0 regs) in
            let i_ = as_int (a1 regs) in
            let l = Rlist.of_obj o in
            if i_ < 0 || i_ >= Rlist.length l then
              Semantics.err "list index out of range";
            Engine.mem_access eng ~addr:(Gc_sim.addr o ~field:(i_ land 15))
              ~write:false;
            set regs (Value.list_get_unsafe l i_))
    | Ir.Setlistitem ->
        let a0 = getter op.Ir.args.(0)
        and a1 = getter op.Ir.args.(1)
        and a2 = getter op.Ir.args.(2) in
        ordinary i (fun st ->
            let regs = st.st_regs in
            let o = Semantics.as_list (a0 regs) in
            let i_ = as_int (a1 regs) in
            let l = Rlist.of_obj o in
            if i_ < 0 || i_ >= Rlist.length l then
              Semantics.err "list assignment index out of range";
            Rlist.set rtc o i_ (a2 regs))
    | Ir.Getarrayitem_gc ->
        let a0 = getter op.Ir.args.(0) and a1 = getter op.Ir.args.(1) in
        let set = store op.Ir.result in
        ordinary i (fun st ->
            let regs = st.st_regs in
            let v = a0 regs in
            if Value.is_obj v then (
              let o = Value.to_obj_unchecked v in
              match o.Value.payload with
              | Value.Tuple a ->
                  let i_ = as_int (a1 regs) in
                  if i_ < 0 || i_ >= Array.length a then
                    Semantics.err "tuple index out of range";
                  Engine.mem_access eng
                    ~addr:(Gc_sim.addr o ~field:(i_ land 15))
                    ~write:false;
                  set regs a.(i_)
              | _ -> Semantics.err "getarrayitem on %s" (Value.type_name v))
            else Semantics.err "getarrayitem on %s" (Value.type_name v))
    | Ir.Arraylen ->
        let a0 = getter op.Ir.args.(0) in
        let set = store op.Ir.result in
        ordinary i (fun st ->
            let regs = st.st_regs in
            set regs (Value.of_int (Semantics.len_of rtc (a0 regs))))
    (* allocation *)
    | Ir.New_with_vtable cls_obj ->
        let set = store op.Ir.result in
        let nfields =
          match cls_obj.Value.payload with
          | Value.Class c -> Array.length c.Value.layout
          | _ -> -1
        in
        ordinary i (fun st ->
            if nfields < 0 then Semantics.err "new_with_vtable: not a class";
            set st.st_regs
              (Gc_sim.obj gc
                 (Value.Instance
                    { cls = cls_obj; fields = Array.make nfields Value.nil })))
    | Ir.New_array _ ->
        let fetch = fetch_all op.Ir.args in
        let set = store op.Ir.result in
        ordinary i (fun st ->
            set st.st_regs (Gc_sim.obj gc (Value.Tuple (fetch st.st_regs))))
    | Ir.New_list _ ->
        let fetch = fetch_all op.Ir.args in
        let set = store op.Ir.result in
        ordinary i (fun st ->
            set st.st_regs
              (Value.of_obj (Rlist.create rtc (Array.to_list (fetch st.st_regs)))))
    | Ir.New_cell ->
        let a0 = getter op.Ir.args.(0) in
        let set = store op.Ir.result in
        ordinary i (fun st ->
            let regs = st.st_regs in
            set regs (Gc_sim.obj gc (Value.Cell { cell = a0 regs })))
    (* residual calls *)
    | Ir.Call_r rc ->
        let fetch = fetch_all op.Ir.args in
        let set = store op.Ir.result in
        ordinary i (fun st ->
            let vals = fetch st.st_regs in
            set st.st_regs
              (Aot.call rtc rc.Ir.aot (fun () -> rc.Ir.run rtc vals)))
    | Ir.Call_n rc ->
        let fetch = fetch_all op.Ir.args in
        ordinary i (fun st ->
            let vals = fetch st.st_regs in
            ignore (Aot.call rtc rc.Ir.aot (fun () -> rc.Ir.run rtc vals)))
    (* pure int ops *)
    | Ir.Int_add -> int_binop i op (fun x y -> Value.of_int (x + y))
    | Ir.Int_sub -> int_binop i op (fun x y -> Value.of_int (x - y))
    | Ir.Int_mul -> int_binop i op (fun x y -> Value.of_int (x * y))
    | Ir.Int_and -> int_binop i op (fun x y -> Value.of_int (x land y))
    | Ir.Int_or -> int_binop i op (fun x y -> Value.of_int (x lor y))
    | Ir.Int_xor -> int_binop i op (fun x y -> Value.of_int (x lxor y))
    | Ir.Int_lshift -> int_binop i op (fun x y -> Value.of_int (x lsl y))
    | Ir.Int_rshift -> int_binop i op (fun x y -> Value.of_int (x asr y))
    | Ir.Int_lt -> int_binop i op (fun x y -> Value.of_bool (x < y))
    | Ir.Int_le -> int_binop i op (fun x y -> Value.of_bool (x <= y))
    | Ir.Int_eq -> int_binop i op (fun x y -> Value.of_bool (x = y))
    | Ir.Int_ne -> int_binop i op (fun x y -> Value.of_bool (x <> y))
    | Ir.Int_gt -> int_binop i op (fun x y -> Value.of_bool (x > y))
    | Ir.Int_ge -> int_binop i op (fun x y -> Value.of_bool (x >= y))
    | Ir.Int_floordiv ->
        int_binop i op (fun x y -> Value.of_int (Rarith.floordiv_int x y))
    | Ir.Int_mod -> int_binop i op (fun x y -> Value.of_int (Rarith.mod_int x y))
    | Ir.Int_neg ->
        let a0 = getter op.Ir.args.(0) in
        let set = store op.Ir.result in
        ordinary i (fun st ->
            let regs = st.st_regs in
            let x = as_int (a0 regs) in
            if x = min_int then Semantics.err "integer negation overflow"
            else set regs (Value.of_int (-x)))
    | Ir.Int_is_true ->
        let a0 = getter op.Ir.args.(0) in
        let set = store op.Ir.result in
        ordinary i (fun st ->
            let regs = st.st_regs in
            set regs (Value.of_bool (as_int (a0 regs) <> 0)))
    | Ir.Int_is_zero ->
        let a0 = getter op.Ir.args.(0) in
        let set = store op.Ir.result in
        ordinary i (fun st ->
            let regs = st.st_regs in
            set regs (Value.of_bool (not (Value.truthy (a0 regs)))))
    (* pure float ops *)
    | Ir.Float_add -> float_binop i op (fun x y -> Value.of_float (x +. y))
    | Ir.Float_sub -> float_binop i op (fun x y -> Value.of_float (x -. y))
    | Ir.Float_mul -> float_binop i op (fun x y -> Value.of_float (x *. y))
    | Ir.Float_truediv ->
        let a = getter op.Ir.args.(0) and b = getter op.Ir.args.(1) in
        let set = store op.Ir.result in
        ordinary i (fun st ->
            let regs = st.st_regs in
            (* divisor converted (and checked) first, like Eval_op *)
            let y = as_float (b regs) in
            if y = 0.0 then raise Division_by_zero
            else set regs (Value.of_float (as_float (a regs) /. y)))
    | Ir.Float_lt -> float_binop i op (fun x y -> Value.of_bool (x < y))
    | Ir.Float_le -> float_binop i op (fun x y -> Value.of_bool (x <= y))
    | Ir.Float_eq -> float_binop i op (fun x y -> Value.of_bool (x = y))
    | Ir.Float_ne -> float_binop i op (fun x y -> Value.of_bool (x <> y))
    | Ir.Float_gt -> float_binop i op (fun x y -> Value.of_bool (x > y))
    | Ir.Float_ge -> float_binop i op (fun x y -> Value.of_bool (x >= y))
    | Ir.Float_neg ->
        let a0 = getter op.Ir.args.(0) in
        let set = store op.Ir.result in
        ordinary i (fun st ->
            let regs = st.st_regs in
            set regs (Value.of_float (-.as_float (a0 regs))))
    | Ir.Float_abs ->
        let a0 = getter op.Ir.args.(0) in
        let set = store op.Ir.result in
        ordinary i (fun st ->
            let regs = st.st_regs in
            set regs (Value.of_float (Float.abs (as_float (a0 regs)))))
    | Ir.Cast_int_to_float ->
        let a0 = getter op.Ir.args.(0) in
        let set = store op.Ir.result in
        ordinary i (fun st ->
            let regs = st.st_regs in
            set regs (Value.of_float (float_of_int (as_int (a0 regs)))))
    | Ir.Cast_float_to_int ->
        let a0 = getter op.Ir.args.(0) in
        let set = store op.Ir.result in
        ordinary i (fun st ->
            let regs = st.st_regs in
            set regs (Value.of_int (int_of_float (Float.trunc (as_float (a0 regs))))))
    (* ptr ops *)
    | Ir.Ptr_eq ->
        let a = getter op.Ir.args.(0) and b = getter op.Ir.args.(1) in
        let set = store op.Ir.result in
        ordinary i (fun st ->
            let regs = st.st_regs in
            set regs (Value.of_bool (Semantics.identical (a regs) (b regs))))
    | Ir.Ptr_ne ->
        let a = getter op.Ir.args.(0) and b = getter op.Ir.args.(1) in
        let set = store op.Ir.result in
        ordinary i (fun st ->
            let regs = st.st_regs in
            set regs (Value.of_bool (not (Semantics.identical (a regs) (b regs)))))
    | Ir.Same_as ->
        let a0 = getter op.Ir.args.(0) in
        let set = store op.Ir.result in
        ordinary i (fun st -> set st.st_regs (a0 st.st_regs))
    (* str/unicode ops are cold in the bench suite: generic evaluation *)
    | Ir.Str_concat | Ir.Str_eq | Ir.Strlen | Ir.Strgetitem | Ir.Unicode_len
    | Ir.Unicode_getitem ->
        generic i op
  in
  (* superinstruction fusion: compare feeding a truth guard, and the
     int-op + overflow-guard pair the recorder always emits adjacently.
     The guard slot keeps its standalone step so a back-edge landing on
     it (loop_start) still works. *)
  let cmp_test (op : Ir.op) : (Value.t array -> bool) option =
    let a () = getter op.Ir.args.(0) and b () = getter op.Ir.args.(1) in
    match op.Ir.opcode with
    | Ir.Int_lt ->
        let a = a () and b = b () in
        Some (fun regs -> let y = as_int (b regs) in as_int (a regs) < y)
    | Ir.Int_le ->
        let a = a () and b = b () in
        Some (fun regs -> let y = as_int (b regs) in as_int (a regs) <= y)
    | Ir.Int_eq ->
        let a = a () and b = b () in
        Some (fun regs -> let y = as_int (b regs) in as_int (a regs) = y)
    | Ir.Int_ne ->
        let a = a () and b = b () in
        Some (fun regs -> let y = as_int (b regs) in as_int (a regs) <> y)
    | Ir.Int_gt ->
        let a = a () and b = b () in
        Some (fun regs -> let y = as_int (b regs) in as_int (a regs) > y)
    | Ir.Int_ge ->
        let a = a () and b = b () in
        Some (fun regs -> let y = as_int (b regs) in as_int (a regs) >= y)
    | Ir.Int_is_true ->
        let a = a () in
        Some (fun regs -> as_int (a regs) <> 0)
    | Ir.Int_is_zero ->
        let a = a () in
        Some (fun regs -> not (Value.truthy (a regs)))
    | Ir.Float_lt ->
        let a = a () and b = b () in
        Some (fun regs -> let y = as_float (b regs) in as_float (a regs) < y)
    | Ir.Float_le ->
        let a = a () and b = b () in
        Some (fun regs -> let y = as_float (b regs) in as_float (a regs) <= y)
    | Ir.Float_eq ->
        let a = a () and b = b () in
        Some (fun regs -> let y = as_float (b regs) in as_float (a regs) = y)
    | Ir.Float_ne ->
        let a = a () and b = b () in
        Some (fun regs -> let y = as_float (b regs) in as_float (a regs) <> y)
    | Ir.Float_gt ->
        let a = a () and b = b () in
        Some (fun regs -> let y = as_float (b regs) in as_float (a regs) > y)
    | Ir.Float_ge ->
        let a = a () and b = b () in
        Some (fun regs -> let y = as_float (b regs) in as_float (a regs) >= y)
    | Ir.Ptr_eq ->
        let a = a () and b = b () in
        Some (fun regs -> Semantics.identical (a regs) (b regs))
    | Ir.Ptr_ne ->
        let a = a () and b = b () in
        Some (fun regs -> not (Semantics.identical (a regs) (b regs)))
    | _ -> None
  in
  let fused_cmp_guard i (op : Ir.op) (g : Ir.guard) (test : Value.t array -> bool)
      : step =
    let cost_op = costs.(i) and cost_g = costs.(i + 1) in
    let set = store op.Ir.result in
    let site = 400_000 + (g.Ir.guard_id land 4095) in
    let want = match g.Ir.gkind with Ir.G_true -> true | _ -> false in
    let fail = fail_path g in
    fun st ->
      exec.(i) <- exec.(i) + 1;
      Engine.emit eng cost_op;
      match test st.st_regs with
      | b ->
          set st.st_regs (Value.of_bool b);
          exec.(i + 1) <- exec.(i + 1) + 1;
          Engine.emit eng cost_g;
          if b = want then begin
            Engine.branch eng ~site ~taken:true;
            st.st_ip <- i + 2
          end
          else begin
            Engine.branch eng ~site ~taken:false;
            fail st
          end
      | exception e when lang_errors e -> deopt_boundary st e
  in
  let fused_int_ovf i (op : Ir.op) (g : Ir.guard) : step =
    let a = getter op.Ir.args.(0) and b = getter op.Ir.args.(1) in
    let set = store op.Ir.result in
    let cost_op = costs.(i) and cost_g = costs.(i + 1) in
    let site = 400_000 + (g.Ir.guard_id land 4095) in
    let fail = fail_path g in
    let wrap, checked =
      match op.Ir.opcode with
      | Ir.Int_add -> (( + ), Eval_op.checked_add)
      | Ir.Int_sub -> (( - ), Eval_op.checked_sub)
      | _ -> (( * ), Eval_op.checked_mul)
    in
    fun st ->
      exec.(i) <- exec.(i) + 1;
      Engine.emit eng cost_op;
      let regs = st.st_regs in
      match
        let y = as_int (b regs) in
        let x = as_int (a regs) in
        set regs (Value.of_int (wrap x y));
        (x, y)
      with
      | x, y -> (
          exec.(i + 1) <- exec.(i + 1) + 1;
          Engine.emit eng cost_g;
          match checked x y with
          | (_ : int) ->
              Engine.branch eng ~site ~taken:true;
              st.st_ip <- i + 2
          | exception Eval_op.Overflow ->
              Engine.branch eng ~site ~taken:false;
              fail st)
      | exception e when lang_errors e -> deopt_boundary st e
  in
  let reads_reg (args : Ir.operand array) r =
    Array.exists (function Ir.Reg x -> x = r | Ir.Const _ -> false) args
  in
  let same_args (xs : Ir.operand array) (ys : Ir.operand array) =
    Array.length xs = Array.length ys
    && Array.for_all2
         (fun (x : Ir.operand) (y : Ir.operand) ->
           match (x, y) with
           | Ir.Reg a, Ir.Reg b -> a = b
           | Ir.Const a, Ir.Const b ->
               Value.is_int a && Value.is_int b
               && Value.to_int_unchecked a = Value.to_int_unchecked b
           | _ -> false)
         xs ys
  in
  let fuse i (op : Ir.op) : step option =
    if i + 1 >= n then None
    else
      match ops.(i + 1).Ir.opcode with
      | Ir.Guard g -> (
          let gargs = ops.(i + 1).Ir.args in
          match (g.Ir.gkind, op.Ir.opcode) with
          | (Ir.G_true | Ir.G_false), _
            when op.Ir.result >= 0
                 && same_args gargs [| Ir.Reg op.Ir.result |] -> (
              match cmp_test op with
              | Some test -> Some (fused_cmp_guard i op g test)
              | None -> None)
          | Ir.G_no_ovf_add, Ir.Int_add
          | Ir.G_no_ovf_sub, Ir.Int_sub
          | Ir.G_no_ovf_mul, Ir.Int_mul
            when op.Ir.result >= 0
                 && same_args gargs op.Ir.args
                 && not (reads_reg op.Ir.args op.Ir.result) ->
              Some (fused_int_ovf i op g)
          | _ -> None)
      | _ -> None
  in
  let code =
    Array.init (n + 1) (fun i ->
        if i = n then (fun (_ : state) ->
          invalid_arg "Executor: trace ran off the end")
        else
          let op = ops.(i) in
          match fuse i op with Some s -> s | None -> plain_step i op)
  in
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

(* --- the threaded main loop --- *)

let run rtc (jitlog : Jitlog.t) ~(trace : Ir.trace) ~(entry : Value.t array) :
    exit_state =
  let eng = Ctx.engine rtc in
  let gc = Ctx.gc rtc in
  let regs = Array.make trace.Ir.nregs Value.nil in
  Array.blit entry 0 regs 0 (Array.length entry);
  let st =
    {
      st_regs = regs;
      st_cur = trace;
      st_code = code_for rtc jitlog trace;
      st_ip = 0;
      st_resume = None;
      st_exit = None;
    }
  in
  (* the live register file is a GC root for the duration *)
  let scanner_id =
    Gc_sim.add_root_scanner gc (fun visit -> Array.iter visit st.st_regs)
  in
  Fun.protect ~finally:(fun () -> Gc_sim.remove_root_scanner gc scanner_id)
  @@ fun () ->
  Engine.annot eng (Annot.Trace_enter trace.Ir.trace_id);
  Jitlog.record_first_entry jitlog ~insns:(Engine.total_insns eng);
  (* counted before the charge, as in [run_ref] *)
  trace.Ir.exec_count <- trace.Ir.exec_count + 1;
  Engine.emit eng entry_cost;
  while st.st_exit == None do
    (Array.unsafe_get st.st_code st.st_ip) st
  done;
  Engine.annot eng (Annot.Trace_exit st.st_cur.Ir.trace_id);
  Option.get st.st_exit
