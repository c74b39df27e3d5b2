(** The pylite bytecode interpreter, written once against the OPS seam.

    [Step (O)] defines every bytecode once, staged ([stage]: decode
    now, run when applied), and every way of running pylite runs that
    one definition.  Instantiated with {!Mtj_rjit.Direct_ops} it is "the
    interpreter": [threaded_code] stages each code object into its
    threaded step array, and [step_ref], the reference loop's handler,
    stages and runs one bytecode at a time.  Instantiated with
    {!Mtj_rjit.Trace_ops} it is the meta-interpreter recording traces
    through [step_ref].  Handler discipline: within one bytecode all
    guard-recording / error-raising operations run before the first heap
    side effect, and [pc] is committed last. *)

open Mtj_rt
open Mtj_rjit
open Bytecode

module Step (O : Ops_intf.OPS) = struct
  type frame = (O.t, Bytecode.code) Frame.t
  type step = frame -> (O.t, Bytecode.code) Frame.outcome

  let err = Semantics.err

  let make_frame cx code parent : frame =
    Frame.create_pooled
      ~pool:(O.frame_pool cx)
      ~code ~code_ref:code.Bytecode.id ~nlocals:code.Bytecode.nlocals
      ~stack_size:code.Bytecode.stacksize ~parent

  (* pop [n] operands into a fresh positional-order array (top of stack
     is the last argument) *)
  let pop_args cx (f : frame) n : O.t array =
    if n = 0 then [||]
    else begin
      let args = Array.make n (O.const cx Value.nil) in
      for i = n - 1 downto 0 do
        args.(i) <- Frame.pop f
      done;
      args
    end

  (* [first :: args] as a single fresh array (one allocation, unlike
     [Array.append [| first |] args]) — the receiver-prepend of every
     method call *)
  let prepend (first : O.t) (args : O.t array) : O.t array =
    let n = Array.length args in
    let out = Array.make (n + 1) first in
    Array.blit args 0 out 1 n;
    out

  (* dispatch a call to any callable value; [args] is in positional
     order (collected off the stack by [pop_args], no list building) *)
  let rec call_value cx (f : frame) callee (args : O.t array) :
      (O.t, Bytecode.code) Frame.outcome =
    let nargs = Array.length args in
    let cv = O.concrete callee in
    if not (Value.is_obj cv) then
      err "%s object is not callable" (Value.type_name cv)
    else
    match (Value.to_obj_unchecked cv).Value.payload with
    | Value.Func fn ->
        if fn.Value.code_ref < 0 then begin
          let fn = O.guard_func cx callee in
          let b = Builtin.of_tag (-fn.Value.code_ref - 1) in
          let r = O.call_builtin cx b args in
          Frame.push f r;
          f.Frame.pc <- f.Frame.pc + 1;
          Frame.Continue
        end
        else begin
          let fn = O.guard_func cx callee in
          if fn.Value.arity <> nargs then
            err "%s() takes %d arguments (%d given)" fn.Value.func_name
              fn.Value.arity nargs;
          let code = Code_table.lookup fn.Value.code_ref in
          f.Frame.pc <- f.Frame.pc + 1;
          let nf = make_frame cx code (Some f) in
          Array.blit args 0 nf.Frame.locals 0 nargs;
          Frame.Call nf
        end
    | Value.Class _ ->
        let inst = O.alloc_instance cx callee in
        (match O.class_init_func cx callee with
        | Some initf ->
            if initf.Value.arity <> nargs + 1 then
              err "__init__ takes %d arguments (%d given)" initf.Value.arity
                (nargs + 1);
            let code = Code_table.lookup initf.Value.code_ref in
            Frame.push f inst;
            f.Frame.pc <- f.Frame.pc + 1;
            let nf = make_frame cx code (Some f) in
            nf.Frame.discard_return <- true;
            nf.Frame.locals.(0) <- inst;
            Array.blit args 0 nf.Frame.locals 1 nargs;
            Frame.Call nf
        | None ->
            if nargs <> 0 then err "this class takes no constructor arguments";
            Frame.push f inst;
            f.Frame.pc <- f.Frame.pc + 1;
            Frame.Continue)
    | Value.Method _ -> (
        match O.method_parts cx callee with
        | Some (func, recv) -> call_value cx f func (prepend recv args)
        | None -> err "broken bound method")
    | _ -> err "%s object is not callable" (Value.type_name cv)

  (* the binop table: a BINARY resolves its function when it is staged,
     and the superinstruction table uses the same table *)
  let binary_fn : Ast.binop -> O.cx -> O.t -> O.t -> O.t = function
    | Ast.Add -> O.add
    | Ast.Sub -> O.sub
    | Ast.Mult -> O.mul
    | Ast.Div -> O.truediv
    | Ast.Floordiv -> O.floordiv
    | Ast.Mod -> O.modulo
    | Ast.Pow -> O.pow
    | Ast.Lshift -> O.lshift
    | Ast.Rshift -> O.rshift
    | Ast.Bitand -> O.bitand
    | Ast.Bitor -> O.bitor
    | Ast.Bitxor -> O.bitxor

  let[@inline] continue_at (f : frame) pc =
    f.Frame.pc <- pc;
    Frame.Continue

  (* The one definition of every bytecode, staged.  [stage cx globals
     ~charge pc instr] decodes [instr] (operands, jump targets,
     constant-pool values, the binop function) and returns the step
     that runs it: [charge ~target] first, then the handler's
     operations.  Staging only decodes: it charges nothing, allocates
     nothing simulated and records no IR, so where a bytecode is staged
     cannot show in simulated counters. *)
  let stage cx (globals : Globals.t) ~(charge : target:int -> unit) pc
      (instr : Bytecode.instr) : step =
    let target = Bytecode.tag instr in
    let next = pc + 1 in
    match instr with
    | NOP ->
        fun f ->
          charge ~target;
          continue_at f next
    | LOAD_CONST v ->
        let c = O.const cx v in
        fun f ->
          charge ~target;
          Frame.push f c;
          continue_at f next
    | LOAD_FAST slot ->
        fun f ->
          charge ~target;
          Frame.push f f.Frame.locals.(slot);
          continue_at f next
    | STORE_FAST slot ->
        fun f ->
          charge ~target;
          f.Frame.locals.(slot) <- Frame.pop f;
          continue_at f next
    | LOAD_GLOBAL name ->
        fun f ->
          charge ~target;
          Frame.push f (O.load_global cx globals name);
          continue_at f next
    | STORE_GLOBAL name ->
        fun f ->
          charge ~target;
          O.store_global cx globals name (Frame.pop f);
          continue_at f next
    | LOAD_ATTR name ->
        fun f ->
          charge ~target;
          let obj = Frame.pop f in
          Frame.push f (O.getattr cx obj name);
          continue_at f next
    | STORE_ATTR name ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          let obj = Frame.pop f in
          O.setattr cx obj name v;
          continue_at f next
    | LOAD_METHOD name ->
        fun f ->
          charge ~target;
          let obj = Frame.pop f in
          let callable, self = O.load_method cx obj name in
          Frame.push f callable;
          Frame.push f self;
          continue_at f next
    | CALL_METHOD nargs ->
        fun f ->
          charge ~target;
          let args = pop_args cx f nargs in
          let self = Frame.pop f in
          let callable = Frame.pop f in
          if Value.is_nil (O.concrete self) then call_value cx f callable args
          else call_value cx f callable (prepend self args)
    | CALL_FUNCTION nargs ->
        fun f ->
          charge ~target;
          let args = pop_args cx f nargs in
          let callee = Frame.pop f in
          call_value cx f callee args
    | BINARY op ->
        let fn = binary_fn op in
        fun f ->
          charge ~target;
          let b = Frame.pop f in
          let a = Frame.pop f in
          Frame.push f (fn cx a b);
          continue_at f next
    | UNARY_NEG ->
        fun f ->
          charge ~target;
          let a = Frame.pop f in
          Frame.push f (O.neg cx a);
          continue_at f next
    | UNARY_NOT ->
        fun f ->
          charge ~target;
          let a = Frame.pop f in
          Frame.push f (O.not_ cx a);
          continue_at f next
    | COMPARE op ->
        fun f ->
          charge ~target;
          let b = Frame.pop f in
          let a = Frame.pop f in
          Frame.push f (O.compare cx op a b);
          continue_at f next
    | JUMP t ->
        fun f ->
          charge ~target;
          continue_at f t
    | POP_JUMP_IF_FALSE t ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          continue_at f (if O.is_true cx v then next else t)
    | POP_JUMP_IF_TRUE t ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          continue_at f (if O.is_true cx v then t else next)
    | JUMP_IF_FALSE_OR_POP t ->
        fun f ->
          charge ~target;
          let v = Frame.peek f 0 in
          if O.is_true cx v then begin
            ignore (Frame.pop f);
            continue_at f next
          end
          else continue_at f t
    | JUMP_IF_TRUE_OR_POP t ->
        fun f ->
          charge ~target;
          let v = Frame.peek f 0 in
          if O.is_true cx v then continue_at f t
          else begin
            ignore (Frame.pop f);
            continue_at f next
          end
    | BUILD_LIST n ->
        fun f ->
          charge ~target;
          Frame.push f (O.make_list cx (pop_args cx f n));
          continue_at f next
    | BUILD_TUPLE n ->
        fun f ->
          charge ~target;
          Frame.push f (O.make_tuple cx (pop_args cx f n));
          continue_at f next
    | BUILD_DICT n ->
        fun f ->
          charge ~target;
          let pairs =
            Array.make n (O.const cx Value.nil, O.const cx Value.nil)
          in
          for i = n - 1 downto 0 do
            let v = Frame.pop f in
            let k = Frame.pop f in
            pairs.(i) <- (k, v)
          done;
          Frame.push f (O.make_dict cx pairs);
          continue_at f next
    | BUILD_SET n ->
        fun f ->
          charge ~target;
          Frame.push f (O.make_set cx (pop_args cx f n));
          continue_at f next
    | BINARY_SUBSCR ->
        fun f ->
          charge ~target;
          let k = Frame.pop f in
          let obj = Frame.pop f in
          Frame.push f (O.getitem cx obj k);
          continue_at f next
    | STORE_SUBSCR ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          let k = Frame.pop f in
          let obj = Frame.pop f in
          O.setitem cx obj k v;
          continue_at f next
    | DELETE_SUBSCR ->
        fun f ->
          charge ~target;
          let k = Frame.pop f in
          let obj = Frame.pop f in
          ignore (O.call_builtin cx Builtin.Del_item [| obj; k |]);
          continue_at f next
    | GET_SLICE ->
        fun f ->
          charge ~target;
          let hi = Frame.pop f in
          let lo = Frame.pop f in
          let obj = Frame.pop f in
          Frame.push f (O.call_builtin cx Builtin.Slice_get [| obj; lo; hi |]);
          continue_at f next
    | SET_SLICE ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          let hi = Frame.pop f in
          let lo = Frame.pop f in
          let obj = Frame.pop f in
          ignore (O.call_builtin cx Builtin.Slice_set [| obj; lo; hi; v |]);
          continue_at f next
    | RETURN_VALUE ->
        fun f ->
          charge ~target;
          Frame.Return (Frame.pop f)
    | RETURN_NONE ->
        let nil = O.const cx Value.nil in
        fun _ ->
          charge ~target;
          Frame.Return nil
    | POP_TOP ->
        fun f ->
          charge ~target;
          ignore (Frame.pop f);
          continue_at f next
    | DUP_TOP ->
        fun f ->
          charge ~target;
          Frame.push f (Frame.peek f 0);
          continue_at f next
    | UNPACK_SEQUENCE n ->
        fun f ->
          charge ~target;
          let seq = Frame.pop f in
          let items = O.unpack cx seq n in
          for i = n - 1 downto 0 do
            Frame.push f items.(i)
          done;
          continue_at f next
    | GET_INDEXABLE ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          Frame.push f (O.call_builtin cx Builtin.Indexable [| v |]);
          continue_at f next
    | FOR_RANGE { var; cur; stop; step; exit } ->
        fun f ->
          charge ~target;
          let c = f.Frame.locals.(cur) in
          let s = f.Frame.locals.(stop) in
          let st = f.Frame.locals.(step) in
          let stepi = O.guard_int cx st in
          let cond =
            O.compare cx (if stepi > 0 then Ops_intf.Lt else Ops_intf.Gt) c s
          in
          if O.is_true cx cond then begin
            f.Frame.locals.(var) <- c;
            f.Frame.locals.(cur) <- O.add cx c st;
            continue_at f next
          end
          else continue_at f exit
    | FOR_ITER { var; seq; idx; exit } ->
        let one = O.const cx (Value.of_int 1) in
        fun f ->
          charge ~target;
          let s = f.Frame.locals.(seq) in
          let i = f.Frame.locals.(idx) in
          let n = O.len_ cx s in
          let cond = O.compare cx Ops_intf.Lt i n in
          if O.is_true cx cond then begin
            let v = O.getitem cx s i in
            f.Frame.locals.(var) <- v;
            f.Frame.locals.(idx) <- O.add cx i one;
            continue_at f next
          end
          else continue_at f exit
    | MAKE_FUNCTION { code_ref; fname; arity } ->
        (* function objects are created during (cold) module setup *)
        fun f ->
          charge ~target;
          let fv =
            Gc_sim.obj
              (Ctx.gc (O.rt cx))
              (Value.Func
                 {
                   func_id = code_ref;
                   func_name = fname;
                   arity;
                   code_ref;
                   captured = [||];
                 })
          in
          Frame.push f (O.const cx fv);
          continue_at f next
    | MAKE_CLASS { cls_name; parent; methods } ->
        fun f ->
          charge ~target;
          let parent_obj =
            match parent with
            | None -> None
            | Some pname -> (
                let pv = O.concrete (O.load_global cx globals pname) in
                if Value.is_obj pv then
                  let p = Value.to_obj_unchecked pv in
                  match p.Value.payload with
                  | Value.Class _ -> Some p
                  | _ -> err "class parent %s is %s" pname (Value.type_name pv)
                else err "class parent %s is %s" pname (Value.type_name pv))
          in
          let n = List.length methods in
          let method_values = pop_args cx f n in
          let attrs =
            List.mapi
              (fun i name -> (name, O.concrete method_values.(i)))
              methods
          in
          (* instances of a subclass share the parent's layout prefix *)
          let layout =
            match parent_obj with
            | Some { Value.payload = Value.Class pc; _ } ->
                Array.copy pc.Value.layout
            | _ -> [||]
          in
          let next_cls_id = Code_table.fresh_id () in
          let cls =
            Gc_sim.obj
              (Ctx.gc (O.rt cx))
              (Value.Class
                 {
                   Value.cls_id = next_cls_id;
                   cls_name;
                   layout;
                   attrs;
                   parent = parent_obj;
                 })
          in
          Frame.push f (O.const cx cls);
          continue_at f next

  let no_charge ~target:_ = ()

  (* the reference handler: stage the bytecode at the current pc and
     run it at once, charging nothing (the driver's reference loop
     charges the dispatch prologue itself; the tracer records through
     this) *)
  let step_ref cx globals (f : frame) =
    let pc = f.Frame.pc in
    stage cx globals ~charge:no_charge pc f.Frame.code.Bytecode.instrs.(pc) f
end

(* ------------------------------------------------------------------ *)
(* The threaded-dispatch tier (the pylite half of {!Mtj_rjit.Threaded}).

   Each code object is staged once into an array of step closures:
   [Step(Direct_ops).stage] for every pc, with the dispatch prologue as
   the charge, so a standalone step is the reference handler itself and
   emits the charge sequence of one reference dispatch iteration by
   construction.  The hottest shapes are then fused into
   superinstructions, the only steps written here; their charge
   sequences match the steps they replace (held by
   test/test_dispatch_diff.ml). *)

module D_ref = Step (Direct_ops)

type dstep = (Direct_ops.t, Bytecode.code) Threaded.step

let threaded_code (cx : Direct_ops.cx) (globals : Globals.t)
    (d : Threaded.dispatch) (code : Bytecode.code) : dstep array =
  let instrs = code.Bytecode.instrs in
  let hdrs = code.Bytecode.headers in
  let n = Array.length instrs in
  let charge = Threaded.charger d in
  (* a stale code table must fail at translation, not mid-run: resolve
     every code_ref a step could bind right now *)
  Array.iter
    (function
      | MAKE_FUNCTION { code_ref; _ } -> ignore (Code_table.lookup code_ref)
      | _ -> ())
    instrs;
  let steps =
    Array.init n (fun pc -> D_ref.stage cx globals ~charge pc instrs.(pc))
  in
  (* Superinstructions: fuse the hottest shapes.  The fused closure sits
     at the head pc only — every pc keeps its standalone step above, so
     a jump landing inside a fused pair behaves exactly as before — and
     interior pcs must not be loop headers (the driver consults the JIT
     portal between bytecodes; fusing across a merge point would skip
     it).  Interior dispatch charges are emitted inside the fused
     closure in reference order, so counters cannot tell the loops
     apart; only interior stack traffic (free in the cost model) is
     elided, which is GC-safe because the operands stay reachable
     through the locals. *)
  let interior pc = pc < n && not hdrs.(pc) in
  let tag i = Bytecode.tag instrs.(i) in
  let fused pc =
    (* two-operand loads: x and y resolved at translate time to either a
       local slot read or a hoisted constant *)
    let operand2 =
      match instrs.(pc) with
      | LOAD_FAST a when interior (pc + 1) -> (
          match instrs.(pc + 1) with
          | LOAD_FAST b ->
              Some (tag pc, tag (pc + 1),
                    (fun (f : (Direct_ops.t, Bytecode.code) Frame.t) ->
                       f.Frame.locals.(a)),
                    (fun (f : (Direct_ops.t, Bytecode.code) Frame.t) ->
                       f.Frame.locals.(b)),
                    None)
          | LOAD_CONST v ->
              let c = Direct_ops.const cx v in
              Some (tag pc, tag (pc + 1),
                    (fun (f : (Direct_ops.t, Bytecode.code) Frame.t) ->
                       f.Frame.locals.(a)),
                    (fun _ -> c),
                    Some c)
          | _ -> None)
      | _ -> None
    in
    match operand2 with
    | Some (t0, t1, getx, gety, yconst) when interior (pc + 2) -> (
        let t2 = tag (pc + 2) in
        match instrs.(pc + 2) with
        | BINARY op -> (
            let fn = D_ref.binary_fn op in
            let nx = pc + 3 in
            match if interior nx then Some instrs.(nx) else None with
            | Some (STORE_FAST s) ->
                (* c = a op b : no operand stack traffic at all *)
                let t3 = tag nx in
                let nx4 = nx + 1 in
                Some
                  (fun f ->
                    charge ~target:t0;
                    let x = getx f in
                    charge ~target:t1;
                    let y = gety f in
                    charge ~target:t2;
                    let r = fn cx x y in
                    charge ~target:t3;
                    f.Frame.locals.(s) <- r;
                    f.Frame.pc <- nx4;
                    Frame.Continue)
            | _ ->
                Some
                  (fun f ->
                    charge ~target:t0;
                    let x = getx f in
                    charge ~target:t1;
                    let y = gety f in
                    charge ~target:t2;
                    Frame.push f (fn cx x y);
                    f.Frame.pc <- nx;
                    Frame.Continue))
        | COMPARE op -> (
            let nx = pc + 3 in
            match if interior nx then Some instrs.(nx) else None with
            | Some (POP_JUMP_IF_FALSE t) ->
                (* if a op b : full guard shape, branch straight off the
                   comparison result *)
                let t3 = tag nx in
                let nx4 = nx + 1 in
                Some
                  (fun f ->
                    charge ~target:t0;
                    let x = getx f in
                    charge ~target:t1;
                    let y = gety f in
                    charge ~target:t2;
                    let r = Direct_ops.compare cx op x y in
                    charge ~target:t3;
                    f.Frame.pc <-
                      (if Direct_ops.is_true cx r then nx4 else t);
                    Frame.Continue)
            | Some (POP_JUMP_IF_TRUE t) ->
                let t3 = tag nx in
                let nx4 = nx + 1 in
                Some
                  (fun f ->
                    charge ~target:t0;
                    let x = getx f in
                    charge ~target:t1;
                    let y = gety f in
                    charge ~target:t2;
                    let r = Direct_ops.compare cx op x y in
                    charge ~target:t3;
                    f.Frame.pc <-
                      (if Direct_ops.is_true cx r then t else nx4);
                    Frame.Continue)
            | _ ->
                Some
                  (fun f ->
                    charge ~target:t0;
                    let x = getx f in
                    charge ~target:t1;
                    let y = gety f in
                    charge ~target:t2;
                    Frame.push f (Direct_ops.compare cx op x y);
                    f.Frame.pc <- nx;
                    Frame.Continue))
        | BINARY_SUBSCR -> (
            (* a[i] with both operands pre-resolved *)
            let nx = pc + 3 in
            match yconst with
            | Some k when Value.is_str k ->
                (* string-constant key: the dict probe's hash is hoisted
                   to translate time ([py_hash] charges nothing, so the
                   counters cannot tell; test_value_diff.ml holds this) *)
                let khash = Value.py_hash k in
                Some
                  (fun f ->
                    charge ~target:t0;
                    let obj = getx f in
                    charge ~target:t1;
                    charge ~target:t2;
                    Frame.push f (Direct_ops.getitem_h cx obj k khash);
                    f.Frame.pc <- nx;
                    Frame.Continue)
            | _ ->
                Some
                  (fun f ->
                    charge ~target:t0;
                    let obj = getx f in
                    charge ~target:t1;
                    let k = gety f in
                    charge ~target:t2;
                    Frame.push f (Direct_ops.getitem cx obj k);
                    f.Frame.pc <- nx;
                    Frame.Continue))
        | _ -> None)
    | _ -> (
        match instrs.(pc) with
        | LOAD_FAST a when interior (pc + 1) -> (
            let t0 = tag pc and t1 = tag (pc + 1) in
            let nx = pc + 2 in
            match instrs.(pc + 1) with
            | STORE_FAST s ->
                (* b = a : local-to-local copy *)
                Some
                  (fun f ->
                    charge ~target:t0;
                    let x = f.Frame.locals.(a) in
                    charge ~target:t1;
                    f.Frame.locals.(s) <- x;
                    f.Frame.pc <- nx;
                    Frame.Continue)
            | BINARY op -> (
                (* <stack> op a : right operand from the local *)
                let fn = D_ref.binary_fn op in
                match if interior nx then Some instrs.(nx) else None with
                | Some (STORE_FAST s) ->
                    let t2 = tag nx in
                    let nx3 = nx + 1 in
                    Some
                      (fun f ->
                        charge ~target:t0;
                        let y = f.Frame.locals.(a) in
                        charge ~target:t1;
                        let x = Frame.pop f in
                        let r = fn cx x y in
                        charge ~target:t2;
                        f.Frame.locals.(s) <- r;
                        f.Frame.pc <- nx3;
                        Frame.Continue)
                | _ ->
                    Some
                      (fun f ->
                        charge ~target:t0;
                        let y = f.Frame.locals.(a) in
                        charge ~target:t1;
                        let x = Frame.pop f in
                        Frame.push f (fn cx x y);
                        f.Frame.pc <- nx;
                        Frame.Continue))
            | BINARY_SUBSCR ->
                (* <stack>[a] : subscript from the local *)
                Some
                  (fun f ->
                    charge ~target:t0;
                    let k = f.Frame.locals.(a) in
                    charge ~target:t1;
                    let obj = Frame.pop f in
                    Frame.push f (Direct_ops.getitem cx obj k);
                    f.Frame.pc <- nx;
                    Frame.Continue)
            | LOAD_ATTR name ->
                (* a.name : attribute read off the local *)
                Some
                  (fun f ->
                    charge ~target:t0;
                    let obj = f.Frame.locals.(a) in
                    charge ~target:t1;
                    Frame.push f (Direct_ops.getattr cx obj name);
                    f.Frame.pc <- nx;
                    Frame.Continue)
            | _ -> None)
        | LOAD_CONST v when interior (pc + 1) -> (
            let c = Direct_ops.const cx v in
            let t0 = tag pc and t1 = tag (pc + 1) in
            let nx = pc + 2 in
            match instrs.(pc + 1) with
            | BINARY_SUBSCR ->
                (* <stack>[<const>] : dict reads with literal keys; for
                   string keys the probe hash is hoisted to translate
                   time *)
                let get =
                  if Value.is_str c then
                    let khash = Value.py_hash c in
                    fun obj -> Direct_ops.getitem_h cx obj c khash
                  else fun obj -> Direct_ops.getitem cx obj c
                in
                Some
                  (fun f ->
                    charge ~target:t0;
                    charge ~target:t1;
                    let obj = Frame.pop f in
                    Frame.push f (get obj);
                    f.Frame.pc <- nx;
                    Frame.Continue)
            | STORE_FAST s ->
                (* b = <const> : constant hoisted at translate time *)
                Some
                  (fun f ->
                    charge ~target:t0;
                    charge ~target:t1;
                    f.Frame.locals.(s) <- c;
                    f.Frame.pc <- nx;
                    Frame.Continue)
            | BINARY op -> (
                (* <stack> op <const> : the tail of every x*2+1 chain *)
                let fn = D_ref.binary_fn op in
                match if interior nx then Some instrs.(nx) else None with
                | Some (STORE_FAST s) ->
                    let t2 = tag nx in
                    let nx3 = nx + 1 in
                    Some
                      (fun f ->
                        charge ~target:t0;
                        charge ~target:t1;
                        let x = Frame.pop f in
                        let r = fn cx x c in
                        charge ~target:t2;
                        f.Frame.locals.(s) <- r;
                        f.Frame.pc <- nx3;
                        Frame.Continue)
                | _ ->
                    Some
                      (fun f ->
                        charge ~target:t0;
                        charge ~target:t1;
                        let x = Frame.pop f in
                        Frame.push f (fn cx x c);
                        f.Frame.pc <- nx;
                        Frame.Continue))
            | COMPARE op -> (
                (* <stack> op <const>, usually feeding a conditional *)
                match if interior nx then Some instrs.(nx) else None with
                | Some (POP_JUMP_IF_FALSE t) ->
                    let t2 = tag nx in
                    let nx3 = nx + 1 in
                    Some
                      (fun f ->
                        charge ~target:t0;
                        charge ~target:t1;
                        let x = Frame.pop f in
                        let r = Direct_ops.compare cx op x c in
                        charge ~target:t2;
                        f.Frame.pc <-
                          (if Direct_ops.is_true cx r then nx3 else t);
                        Frame.Continue)
                | Some (POP_JUMP_IF_TRUE t) ->
                    let t2 = tag nx in
                    let nx3 = nx + 1 in
                    Some
                      (fun f ->
                        charge ~target:t0;
                        charge ~target:t1;
                        let x = Frame.pop f in
                        let r = Direct_ops.compare cx op x c in
                        charge ~target:t2;
                        f.Frame.pc <-
                          (if Direct_ops.is_true cx r then t else nx3);
                        Frame.Continue)
                | _ ->
                    Some
                      (fun f ->
                        charge ~target:t0;
                        charge ~target:t1;
                        let x = Frame.pop f in
                        Frame.push f (Direct_ops.compare cx op x c);
                        f.Frame.pc <- nx;
                        Frame.Continue))
            | _ -> None)
        | STORE_FAST s when interior (pc + 1) -> (
            let t0 = tag pc and t1 = tag (pc + 1) in
            let nx = pc + 2 in
            match instrs.(pc + 1) with
            | LOAD_FAST a ->
                (* store one local, immediately read another *)
                Some
                  (fun f ->
                    charge ~target:t0;
                    f.Frame.locals.(s) <- Frame.pop f;
                    charge ~target:t1;
                    Frame.push f f.Frame.locals.(a);
                    f.Frame.pc <- nx;
                    Frame.Continue)
            | JUMP t ->
                (* loop latch: store the induction value and branch *)
                Some
                  (fun f ->
                    charge ~target:t0;
                    f.Frame.locals.(s) <- Frame.pop f;
                    charge ~target:t1;
                    f.Frame.pc <- t;
                    Frame.Continue)
            | _ -> None)
        | JUMP t when interior t -> (
            (* forward jump into a plain local load (if/else join): run
               the landing instruction in the same step *)
            match instrs.(t) with
            | LOAD_FAST a ->
                let t0 = tag pc and t1 = tag t in
                let nx = t + 1 in
                Some
                  (fun f ->
                    charge ~target:t0;
                    charge ~target:t1;
                    Frame.push f f.Frame.locals.(a);
                    f.Frame.pc <- nx;
                    Frame.Continue)
            | _ -> None)
        | BINARY op when interior (pc + 1) -> (
            let fn = D_ref.binary_fn op in
            match instrs.(pc + 1) with
            | STORE_FAST s -> (
                (* tail of mixed-operand expressions: result straight to
                   the local, folding a trailing loop-latch jump in *)
                let t0 = tag pc and t1 = tag (pc + 1) in
                let nx = pc + 2 in
                match if interior nx then Some instrs.(nx) else None with
                | Some (JUMP t) ->
                    let t2 = tag nx in
                    Some
                      (fun f ->
                        charge ~target:t0;
                        let y = Frame.pop f in
                        let x = Frame.pop f in
                        let r = fn cx x y in
                        charge ~target:t1;
                        f.Frame.locals.(s) <- r;
                        charge ~target:t2;
                        f.Frame.pc <- t;
                        Frame.Continue)
                | _ ->
                    Some
                      (fun f ->
                        charge ~target:t0;
                        let y = Frame.pop f in
                        let x = Frame.pop f in
                        let r = fn cx x y in
                        charge ~target:t1;
                        f.Frame.locals.(s) <- r;
                        f.Frame.pc <- nx;
                        Frame.Continue))
            | LOAD_CONST v when interior (pc + 2) -> (
                (* op-const-op chains like x*2+1: fold the middle
                   constant load into one superinstruction *)
                match instrs.(pc + 2) with
                | BINARY op2 ->
                    let c = Direct_ops.const cx v in
                    let fn2 = D_ref.binary_fn op2 in
                    let t0 = tag pc and t1 = tag (pc + 1) in
                    let t2 = tag (pc + 2) in
                    let nx = pc + 3 in
                    Some
                      (fun f ->
                        charge ~target:t0;
                        let y = Frame.pop f in
                        let x = Frame.pop f in
                        let r = fn cx x y in
                        charge ~target:t1;
                        charge ~target:t2;
                        Frame.push f (fn2 cx r c);
                        f.Frame.pc <- nx;
                        Frame.Continue)
                | _ -> None)
            | _ -> None)
        | COMPARE op when interior (pc + 1) -> (
            let t0 = tag pc in
            let t1 = tag (pc + 1) in
            let nx = pc + 2 in
            match instrs.(pc + 1) with
            | POP_JUMP_IF_FALSE t ->
                Some
                  (fun f ->
                    charge ~target:t0;
                    let y = Frame.pop f in
                    let x = Frame.pop f in
                    let r = Direct_ops.compare cx op x y in
                    charge ~target:t1;
                    f.Frame.pc <- (if Direct_ops.is_true cx r then nx else t);
                    Frame.Continue)
            | POP_JUMP_IF_TRUE t ->
                Some
                  (fun f ->
                    charge ~target:t0;
                    let y = Frame.pop f in
                    let x = Frame.pop f in
                    let r = Direct_ops.compare cx op x y in
                    charge ~target:t1;
                    f.Frame.pc <- (if Direct_ops.is_true cx r then t else nx);
                    Frame.Continue)
            | _ -> None)
        | _ -> None)
  in
  for pc = 0 to n - 1 do
    match fused pc with Some s -> steps.(pc) <- s | None -> ()
  done;
  steps
