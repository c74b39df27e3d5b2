(** The pylite bytecode interpreter, written once against the OPS seam.

    [Step (O)] defines every bytecode once, staged ([stage]: decode
    now, run when applied, then fall through to the continuation [k]),
    and every way of running pylite runs that one definition.
    Instantiated with {!Mtj_rjit.Direct_ops} it is "the interpreter":
    [threaded_code] stages each code object into its threaded step
    array, each step continuing straight into the step at pc + 1, and
    [step_ref], the reference loop's handler, stages and runs one
    bytecode at a time.  Instantiated with {!Mtj_rjit.Trace_ops} it is
    the meta-interpreter recording traces through [step_ref].  Handler
    discipline: within one bytecode all guard-recording / error-raising
    operations run before the first heap side effect, and control
    leaves last (through [k], a committed jump target, or a call or
    return outcome). *)

open Mtj_rt
open Mtj_rjit
open Bytecode

module Step (O : Ops_intf.OPS) = struct
  type frame = (O.t, Bytecode.code) Frame.t
  type step = frame -> (O.t, Bytecode.code) Frame.outcome

  let err = Semantics.err

  let make_frame cx code parent : frame =
    Frame.create ~code ~code_ref:code.Bytecode.id
      ~nlocals:code.Bytecode.nlocals ~stack_size:code.Bytecode.stacksize
      ~default:(O.const cx Value.nil) ~parent

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
     order (collected off the stack by [pop_args], no list building).
     A call into a frame commits [next] before returning [Call]; a call
     that completes here (builtin, class without [__init__]) runs [k] *)
  let rec call_value cx (f : frame) ~next ~(k : step) callee
      (args : O.t array) : (O.t, Bytecode.code) Frame.outcome =
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
          k f
        end
        else begin
          let fn = O.guard_func cx callee in
          if fn.Value.arity <> nargs then
            err "%s() takes %d arguments (%d given)" fn.Value.func_name
              fn.Value.arity nargs;
          let code = Code_table.lookup fn.Value.code_ref in
          f.Frame.pc <- next;
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
            f.Frame.pc <- next;
            let nf = make_frame cx code (Some f) in
            nf.Frame.discard_return <- true;
            nf.Frame.locals.(0) <- inst;
            Array.blit args 0 nf.Frame.locals 1 nargs;
            Frame.Call nf
        | None ->
            if nargs <> 0 then err "this class takes no constructor arguments";
            Frame.push f inst;
            k f)
    | Value.Method _ -> (
        match O.method_parts cx callee with
        | Some (func, recv) ->
            call_value cx f ~next ~k func (prepend recv args)
        | None -> err "broken bound method")
    | _ -> err "%s object is not callable" (Value.type_name cv)

  (* the binop table: a BINARY resolves its function when it is staged *)
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
     ~charge ~k pc instr] decodes [instr] (operands, jump targets,
     constant-pool values, the binop function) and returns the step
     that runs it: [charge ~target] first, then the handler's
     operations, then [k] when the bytecode falls through to [pc + 1].
     A taken branch or jump commits its target instead, and a call into
     a frame commits [pc + 1] before returning [Call].  Inside a chain
     of [k]s, [f.Frame.pc] still holds the chain head's pc, so no
     handler computes its successor from it.  Staging only decodes: it
     charges nothing, allocates nothing simulated and records no IR, so
     where a bytecode is staged cannot show in simulated counters. *)
  let stage cx (globals : Globals.t) ~(charge : target:int -> unit)
      ~(k : step) pc (instr : Bytecode.instr) : step =
    let target = Bytecode.tag instr in
    let next = pc + 1 in
    match instr with
    | NOP ->
        fun f ->
          charge ~target;
          k f
    | LOAD_CONST v ->
        let c = O.const cx v in
        fun f ->
          charge ~target;
          Frame.push f c;
          k f
    | LOAD_FAST slot ->
        fun f ->
          charge ~target;
          Frame.push f f.Frame.locals.(slot);
          k f
    | STORE_FAST slot ->
        fun f ->
          charge ~target;
          f.Frame.locals.(slot) <- Frame.pop f;
          k f
    | LOAD_GLOBAL name ->
        fun f ->
          charge ~target;
          Frame.push f (O.load_global cx globals name);
          k f
    | STORE_GLOBAL name ->
        fun f ->
          charge ~target;
          O.store_global cx globals name (Frame.pop f);
          k f
    | LOAD_ATTR name ->
        fun f ->
          charge ~target;
          let obj = Frame.pop f in
          Frame.push f (O.getattr cx obj name);
          k f
    | STORE_ATTR name ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          let obj = Frame.pop f in
          O.setattr cx obj name v;
          k f
    | LOAD_METHOD name ->
        fun f ->
          charge ~target;
          let obj = Frame.pop f in
          let callable, self = O.load_method cx obj name in
          Frame.push f callable;
          Frame.push f self;
          k f
    | CALL_METHOD nargs ->
        fun f ->
          charge ~target;
          let args = pop_args cx f nargs in
          let self = Frame.pop f in
          let callable = Frame.pop f in
          if Value.is_nil (O.concrete self) then
            call_value cx f ~next ~k callable args
          else call_value cx f ~next ~k callable (prepend self args)
    | CALL_FUNCTION nargs ->
        fun f ->
          charge ~target;
          let args = pop_args cx f nargs in
          let callee = Frame.pop f in
          call_value cx f ~next ~k callee args
    | BINARY op ->
        let fn = binary_fn op in
        fun f ->
          charge ~target;
          let b = Frame.pop f in
          let a = Frame.pop f in
          Frame.push f (fn cx a b);
          k f
    | UNARY_NEG ->
        fun f ->
          charge ~target;
          let a = Frame.pop f in
          Frame.push f (O.neg cx a);
          k f
    | UNARY_NOT ->
        fun f ->
          charge ~target;
          let a = Frame.pop f in
          Frame.push f (O.not_ cx a);
          k f
    | COMPARE op ->
        fun f ->
          charge ~target;
          let b = Frame.pop f in
          let a = Frame.pop f in
          Frame.push f (O.compare cx op a b);
          k f
    | JUMP t ->
        fun f ->
          charge ~target;
          continue_at f t
    | POP_JUMP_IF_FALSE t ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          if O.is_true cx v then k f else continue_at f t
    | POP_JUMP_IF_TRUE t ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          if O.is_true cx v then continue_at f t else k f
    | JUMP_IF_FALSE_OR_POP t ->
        fun f ->
          charge ~target;
          let v = Frame.peek f 0 in
          if O.is_true cx v then begin
            ignore (Frame.pop f);
            k f
          end
          else continue_at f t
    | JUMP_IF_TRUE_OR_POP t ->
        fun f ->
          charge ~target;
          let v = Frame.peek f 0 in
          if O.is_true cx v then continue_at f t
          else begin
            ignore (Frame.pop f);
            k f
          end
    | BUILD_LIST n ->
        fun f ->
          charge ~target;
          Frame.push f (O.make_list cx (pop_args cx f n));
          k f
    | BUILD_TUPLE n ->
        fun f ->
          charge ~target;
          Frame.push f (O.make_tuple cx (pop_args cx f n));
          k f
    | BUILD_DICT n ->
        fun f ->
          charge ~target;
          let pairs =
            Array.make n (O.const cx Value.nil, O.const cx Value.nil)
          in
          for i = n - 1 downto 0 do
            let v = Frame.pop f in
            let key = Frame.pop f in
            pairs.(i) <- (key, v)
          done;
          Frame.push f (O.make_dict cx pairs);
          k f
    | BUILD_SET n ->
        fun f ->
          charge ~target;
          Frame.push f (O.make_set cx (pop_args cx f n));
          k f
    | BINARY_SUBSCR ->
        fun f ->
          charge ~target;
          let key = Frame.pop f in
          let obj = Frame.pop f in
          Frame.push f (O.getitem cx obj key);
          k f
    | STORE_SUBSCR ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          let key = Frame.pop f in
          let obj = Frame.pop f in
          O.setitem cx obj key v;
          k f
    | DELETE_SUBSCR ->
        fun f ->
          charge ~target;
          let key = Frame.pop f in
          let obj = Frame.pop f in
          ignore (O.call_builtin cx Builtin.Del_item [| obj; key |]);
          k f
    | GET_SLICE ->
        fun f ->
          charge ~target;
          let hi = Frame.pop f in
          let lo = Frame.pop f in
          let obj = Frame.pop f in
          Frame.push f (O.call_builtin cx Builtin.Slice_get [| obj; lo; hi |]);
          k f
    | SET_SLICE ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          let hi = Frame.pop f in
          let lo = Frame.pop f in
          let obj = Frame.pop f in
          ignore (O.call_builtin cx Builtin.Slice_set [| obj; lo; hi; v |]);
          k f
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
          k f
    | DUP_TOP ->
        fun f ->
          charge ~target;
          Frame.push f (Frame.peek f 0);
          k f
    | UNPACK_SEQUENCE n ->
        fun f ->
          charge ~target;
          let seq = Frame.pop f in
          let items = O.unpack cx seq n in
          for i = n - 1 downto 0 do
            Frame.push f items.(i)
          done;
          k f
    | GET_INDEXABLE ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          Frame.push f (O.call_builtin cx Builtin.Indexable [| v |]);
          k f
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
            k f
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
            k f
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
          k f
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
          k f

  let no_charge ~target:_ = ()

  (* the reference handler: stage the bytecode at the current pc and
     run it at once, charging nothing and falling through with
     {!Mtj_rjit.Threaded.advance} (the driver's reference loop charges
     the dispatch prologue itself; the tracer records through this) *)
  let step_ref cx globals (f : frame) =
    let pc = f.Frame.pc in
    stage cx globals ~charge:no_charge ~k:Threaded.advance pc
      f.Frame.code.Bytecode.instrs.(pc) f
end

(* ------------------------------------------------------------------ *)
(* The threaded-dispatch tier (the pylite half of {!Mtj_rjit.Threaded}):
   [Threaded.thread] stages every pc through [Step(Direct_ops).stage],
   with the dispatch prologue as the charge and the step staged at
   pc + 1 as the continuation, so each step is the reference handler
   itself and a straight-line run is one chain of tail calls. *)

module D_ref = Step (Direct_ops)

let threaded_code (cx : Direct_ops.cx) (globals : Globals.t)
    (d : Threaded.dispatch) (code : Bytecode.code) :
    (Direct_ops.t, Bytecode.code) Threaded.step array =
  let instrs = code.Bytecode.instrs in
  let charge = Threaded.charger d in
  (* a stale code table must fail at translation, not mid-run: resolve
     every code_ref a step could bind right now *)
  Array.iter
    (function
      | MAKE_FUNCTION { code_ref; _ } -> ignore (Code_table.lookup code_ref)
      | _ -> ())
    instrs;
  Threaded.thread ~headers:code.Bytecode.headers (Array.length instrs)
    (fun ~k pc -> D_ref.stage cx globals ~charge ~k pc instrs.(pc))
