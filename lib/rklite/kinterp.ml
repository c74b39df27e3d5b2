(** The rklite bytecode interpreter, functorized over the OPS seam
    (the Pycket analogue: same meta-tracing framework, different hosted
    language).  As in {!Interp}, [Step (O)] defines every bytecode once,
    staged ([stage], falling through to its continuation [k]), and the
    threaded tier ([threaded_code]), the reference loop and the
    meta-tracer ([step_ref]) all run that one definition. *)

open Mtj_rt
open Mtj_rjit
open Kbytecode

(* 2-argument comparison chains: [cmp_chain] on two operands is one
   compare and one truth test, then a (free) Bool constant; a K_PRIM
   resolves its compare when it is staged *)
let cmp2_op : prim -> Ops_intf.cmp option = function
  | P_lt -> Some Ops_intf.Lt
  | P_le -> Some Ops_intf.Le
  | P_gt -> Some Ops_intf.Gt
  | P_ge -> Some Ops_intf.Ge
  | P_numeq -> Some Ops_intf.Eq
  | _ -> None

module Step (O : Ops_intf.OPS) = struct
  type frame = (O.t, Kbytecode.code) Frame.t
  type step = frame -> (O.t, Kbytecode.code) Frame.outcome

  let err = Semantics.err

  let make_frame cx code parent : frame =
    Frame.create ~code ~code_ref:code.Kbytecode.id
      ~nlocals:code.Kbytecode.nlocals ~stack_size:code.Kbytecode.stacksize
      ~default:(O.const cx Value.nil) ~parent

  (* pop [n] operands into a fresh positional-order array (top of stack
     is the last argument) — no per-call list building on the call path *)
  let pop_args cx (f : frame) n : O.t array =
    if n = 0 then [||]
    else begin
      let args = Array.make n (O.const cx Value.nil) in
      for i = n - 1 downto 0 do
        args.(i) <- Frame.pop f
      done;
      args
    end

  let pair_class cx globals = O.load_global cx globals "%pair"

  let cons cx globals car cdr =
    let p = O.alloc_instance cx (pair_class cx globals) in
    O.setattr cx p "car" car;
    O.setattr cx p "cdr" cdr;
    p

  let number_prim cx op (args : O.t list) identity =
    match args with
    | [] -> O.const cx identity
    | x :: rest -> List.fold_left (fun acc a -> op cx acc a) x rest

  let cmp_chain cx op (args : O.t list) =
    (* (< a b c ...) *)
    let rec go = function
      | a :: (b :: _ as rest) ->
          if O.is_true cx (O.compare cx op a b) then go rest else false
      | _ -> true
    in
    O.const cx (Value.of_bool (go args))

  let prim cx globals (f : frame) (p : prim) (args : O.t list) : O.t =
    ignore f;
    match (p, args) with
    | P_add, _ -> number_prim cx O.add args (Value.of_int 0)
    | P_sub, [ x ] -> O.neg cx x
    | P_sub, x :: rest when rest <> [] ->
        List.fold_left (fun acc a -> O.sub cx acc a) x rest
    | P_mul, _ -> number_prim cx O.mul args (Value.of_int 1)
    | P_div, [ a; b ] -> O.truediv cx a b
    | P_quotient, [ a; b ] -> O.floordiv cx a b
    | P_remainder, [ a; b ] | P_modulo, [ a; b ] -> O.modulo cx a b
    | P_lt, _ -> cmp_chain cx Ops_intf.Lt args
    | P_le, _ -> cmp_chain cx Ops_intf.Le args
    | P_gt, _ -> cmp_chain cx Ops_intf.Gt args
    | P_ge, _ -> cmp_chain cx Ops_intf.Ge args
    | P_numeq, _ -> cmp_chain cx Ops_intf.Eq args
    | P_eq, [ a; b ] -> O.compare cx Ops_intf.Is a b
    | P_equal, [ a; b ] -> O.compare cx Ops_intf.Eq a b
    | P_not, [ a ] -> O.not_ cx a
    | P_zerop, [ a ] -> O.compare cx Ops_intf.Eq a (O.const cx (Value.of_int 0))
    | P_nullp, [ a ] -> O.compare cx Ops_intf.Is a (O.const cx Value.nil)
    | P_pairp, [ a ] ->
        let cv = O.concrete a in
        O.const cx
          (Value.of_bool
             (Value.is_obj cv
             &&
             (* the only instances in rklite are pairs *)
             match (Value.to_obj_unchecked cv).Value.payload with
             | Value.Instance _ -> true
             | _ -> false))
    | P_car, [ a ] -> O.getattr cx a "car"
    | P_cdr, [ a ] -> O.getattr cx a "cdr"
    | P_cons, [ a; d ] -> cons cx globals a d
    | P_set_car, [ p; v ] ->
        O.setattr cx p "car" v;
        O.const cx Value.nil
    | P_set_cdr, [ p; v ] ->
        O.setattr cx p "cdr" v;
        O.const cx Value.nil
    | P_vector_ref, [ v; i ] -> O.getitem cx v i
    | P_vector_set, [ v; i; x ] ->
        O.setitem cx v i x;
        O.const cx Value.nil
    | P_vector_length, [ v ] -> O.len_ cx v
    | P_vector, _ -> O.make_list cx (Array.of_list args)
    | P_make_vector, [ n ] ->
        O.call_builtin cx Builtin.Make_vector [| n; O.const cx (Value.of_int 0) |]
    | P_make_vector, [ n; init ] ->
        O.call_builtin cx Builtin.Make_vector [| n; init |]
    | P_display, [ v ] -> O.call_builtin cx Builtin.Display [| v |]
    | P_newline, [] ->
        O.call_builtin cx Builtin.Display [| O.const cx (Value.of_str "\n") |]
    | P_sqrt, [ v ] -> O.call_builtin cx Builtin.Sqrt [| v |]
    | P_sin, [ v ] -> O.call_builtin cx Builtin.Sin [| v |]
    | P_cos, [ v ] -> O.call_builtin cx Builtin.Cos [| v |]
    | P_expt, [ a; b ] -> O.pow cx a b
    | P_abs, [ v ] -> O.call_builtin cx Builtin.Abs [| v |]
    | P_min, [ a; b ] -> O.call_builtin cx Builtin.Min2 [| a; b |]
    | P_max, [ a; b ] -> O.call_builtin cx Builtin.Max2 [| a; b |]
    | P_floor, [ v ] -> O.call_builtin cx Builtin.Floor_f [| v |]
    | P_num_to_str, [ v ] -> O.call_builtin cx Builtin.To_str [| v |]
    | P_str_append, _ ->
        number_prim cx O.add args (Value.of_str "")
    | P_str_length, [ v ] -> O.len_ cx v
    | P_to_float, [ v ] -> O.call_builtin cx Builtin.To_float [| v |]
    | P_list, _ ->
        List.fold_right (fun a acc -> cons cx globals a acc) args
          (O.const cx Value.nil)
    | P_annotate, [ v ] -> O.call_builtin cx Builtin.Annotate [| v |]
    | p, _ ->
        err "%s: wrong number of arguments (%d)" (prim_name p)
          (List.length args)

  (* 2-argument prims whose [prim] case reduces to exactly one
     arithmetic operation: resolved when a K_PRIM is staged *)
  let arith2_fn : prim -> (O.cx -> O.t -> O.t -> O.t) option = function
    | P_add -> Some O.add
    | P_sub -> Some O.sub
    | P_mul -> Some O.mul
    | P_div -> Some O.truediv
    | P_quotient -> Some O.floordiv
    | P_remainder | P_modulo -> Some O.modulo
    | _ -> None

  let[@inline] continue_at (f : frame) pc =
    f.Frame.pc <- pc;
    Frame.Continue

  (* The one definition of every bytecode, staged, under the rules of
     [Interp.Step.stage]: [stage cx globals ~charge ~k pc instr] decodes
     [instr] and returns the step that runs it, [charge ~target] first
     and [k] when it falls through to [pc + 1]; no handler computes its
     successor from [f.Frame.pc]; staging charges nothing, allocates
     nothing simulated and records no IR. *)
  let stage cx (globals : Globals.t) ~(charge : target:int -> unit)
      ~(k : step) pc (instr : Kbytecode.instr) : step =
    let target = Kbytecode.tag instr in
    let next = pc + 1 in
    match instr with
    | K_CONST v ->
        let c = O.const cx v in
        fun f ->
          charge ~target;
          Frame.push f c;
          k f
    | K_LOCAL slot ->
        fun f ->
          charge ~target;
          Frame.push f f.Frame.locals.(slot);
          k f
    | K_SET_LOCAL slot ->
        fun f ->
          charge ~target;
          f.Frame.locals.(slot) <- Frame.pop f;
          k f
    | K_GLOBAL name ->
        fun f ->
          charge ~target;
          Frame.push f (O.load_global cx globals name);
          k f
    | K_SET_GLOBAL name ->
        fun f ->
          charge ~target;
          O.store_global cx globals name (Frame.pop f);
          k f
    | K_CELL_GET slot ->
        fun f ->
          charge ~target;
          Frame.push f (O.cell_get cx f.Frame.locals.(slot));
          k f
    | K_CELL_SET slot ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          O.cell_set cx f.Frame.locals.(slot) v;
          k f
    | K_MAKE_CELL slot ->
        fun f ->
          charge ~target;
          f.Frame.locals.(slot) <- O.make_cell cx f.Frame.locals.(slot);
          k f
    | K_CLOSURE { code_ref; arity; cname; capture_slots } ->
        fun f ->
          charge ~target;
          let cells = Array.map (fun s -> f.Frame.locals.(s)) capture_slots in
          Frame.push f (O.make_closure cx ~code_ref ~arity ~fname:cname cells);
          k f
    | K_CALL nargs ->
        fun f ->
          charge ~target;
          let args = pop_args cx f nargs in
          let callee = Frame.pop f in
          let fn = O.guard_func cx callee in
          if fn.Value.code_ref < 0 then begin
            let b = Builtin.of_tag (-fn.Value.code_ref - 1) in
            let r = O.call_builtin cx b args in
            Frame.push f r;
            k f
          end
          else begin
            if fn.Value.arity <> nargs then
              err "%s: expects %d arguments, got %d" fn.Value.func_name
                fn.Value.arity nargs;
            let code = Kcode_table.lookup fn.Value.code_ref in
            f.Frame.pc <- next;
            let nf = make_frame cx code (Some f) in
            Array.blit args 0 nf.Frame.locals 0 nargs;
            (* copy the captured cells into the capture slots *)
            for i = 0 to code.Kbytecode.ncaptured - 1 do
              nf.Frame.locals.(code.Kbytecode.nargs + i) <-
                O.func_captured cx callee i
            done;
            Frame.Call nf
          end
    | K_TAILCALL nargs ->
        fun f ->
          charge ~target;
          let args = pop_args cx f nargs in
          let callee = Frame.pop f in
          let fn = O.guard_func cx callee in
          if fn.Value.code_ref < 0 then begin
            let b = Builtin.of_tag (-fn.Value.code_ref - 1) in
            let r = O.call_builtin cx b args in
            Frame.Return r
          end
          else begin
            if fn.Value.arity <> nargs then
              err "%s: expects %d arguments, got %d" fn.Value.func_name
                fn.Value.arity nargs;
            let code = Kcode_table.lookup fn.Value.code_ref in
            (* proper tail call: the new frame replaces this one *)
            let nf = make_frame cx code f.Frame.parent in
            nf.Frame.discard_return <- f.Frame.discard_return;
            Array.blit args 0 nf.Frame.locals 0 nargs;
            for i = 0 to code.Kbytecode.ncaptured - 1 do
              nf.Frame.locals.(code.Kbytecode.nargs + i) <-
                O.func_captured cx callee i
            done;
            Frame.Call nf
          end
    | K_TAILJUMP nargs ->
        (* refresh the parameters and restart the function body *)
        fun f ->
          charge ~target;
          for i = nargs - 1 downto 0 do
            f.Frame.locals.(i) <- Frame.pop f
          done;
          continue_at f 0
    | K_JUMP t ->
        fun f ->
          charge ~target;
          continue_at f t
    | K_JUMP_IF_FALSE t ->
        fun f ->
          charge ~target;
          let v = Frame.pop f in
          if O.is_true cx v then k f else continue_at f t
    | K_JFALSE_OR_POP t ->
        fun f ->
          charge ~target;
          let v = Frame.peek f 0 in
          if O.is_true cx v then begin
            ignore (Frame.pop f);
            k f
          end
          else continue_at f t
    | K_JTRUE_OR_POP t ->
        fun f ->
          charge ~target;
          let v = Frame.peek f 0 in
          if O.is_true cx v then continue_at f t
          else begin
            ignore (Frame.pop f);
            k f
          end
    | K_RETURN ->
        fun f ->
          charge ~target;
          Frame.Return (Frame.pop f)
    | K_POP ->
        fun f ->
          charge ~target;
          ignore (Frame.pop f);
          k f
    | K_PRIM (p, nargs) -> (
        match (nargs, arith2_fn p, cmp2_op p) with
        | 2, Some fn, _ ->
            fun f ->
              charge ~target;
              let y = Frame.pop f in
              let x = Frame.pop f in
              Frame.push f (fn cx x y);
              k f
        | 2, None, Some op ->
            fun f ->
              charge ~target;
              let y = Frame.pop f in
              let x = Frame.pop f in
              let r = O.compare cx op x y in
              Frame.push f (O.const cx (Value.of_bool (O.is_true cx r)));
              k f
        | _ ->
            fun f ->
              charge ~target;
              let rec pops n acc =
                if n = 0 then acc else pops (n - 1) (Frame.pop f :: acc)
              in
              let args = pops nargs [] in
              let r = prim cx globals f p args in
              Frame.push f r;
              k f)

  let no_charge ~target:_ = ()

  (* the reference handler: stage the bytecode at the current pc and
     run it at once, charging nothing (see [Interp.Step.step_ref]) *)
  let step_ref cx globals (f : frame) =
    let pc = f.Frame.pc in
    stage cx globals ~charge:no_charge ~k:Threaded.advance pc
      f.Frame.code.Kbytecode.instrs.(pc) f
end

(* ------------------------------------------------------------------ *)
(* The threaded-dispatch tier (the rklite half of {!Mtj_rjit.Threaded}),
   threaded as in [Interp.threaded_code]. *)

module D_ref = Step (Direct_ops)

let threaded_code (cx : Direct_ops.cx) (globals : Globals.t)
    (d : Threaded.dispatch) (code : Kbytecode.code) :
    (Direct_ops.t, Kbytecode.code) Threaded.step array =
  let instrs = code.Kbytecode.instrs in
  let charge = Threaded.charger d in
  (* a stale code table must fail at translation, not mid-run *)
  Array.iter
    (function
      | K_CLOSURE { code_ref; _ } -> ignore (Kcode_table.lookup code_ref)
      | _ -> ())
    instrs;
  Threaded.thread ~headers:code.Kbytecode.headers (Array.length instrs)
    (fun ~k pc -> D_ref.stage cx globals ~charge ~k pc instrs.(pc))
