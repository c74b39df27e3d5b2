(** Trace intermediate representation.

    A meta-trace is a straight-line sequence of operations recorded while
    the {e interpreter} executed one iteration of a hot application-level
    loop (Sec. II).  Operand values are SSA registers or constants; type
    and control assumptions are guards carrying resume data for
    deoptimization; operations the meta-interpreter cannot inline
    (data-dependent loops: dict probes, bignum arithmetic, string
    building) are residual calls to AOT-compiled functions.

    Opcode names and the category split (memop / guard / call / ctrl /
    int / new / float / str / ptr / unicode) follow the paper's
    Figures 7–9. *)

(* ---------- categories (Figure 7) ---------- *)

type cat =
  | Memop
  | Guardop
  | Callop
  | Ctrl
  | Intop
  | Newop
  | Floatop
  | Strop
  | Ptrop
  | Unicodeop
  | Debugop

let cat_name = function
  | Memop -> "memop"
  | Guardop -> "guard"
  | Callop -> "call"
  | Ctrl -> "ctrl"
  | Intop -> "int"
  | Newop -> "new"
  | Floatop -> "float"
  | Strop -> "str"
  | Ptrop -> "ptr"
  | Unicodeop -> "unicode"
  | Debugop -> "debug"

let all_cats =
  [ Memop; Guardop; Callop; Ctrl; Intop; Newop; Floatop; Strop; Ptrop;
    Unicodeop ]

(* ---------- operands ---------- *)

type operand =
  | Const of Mtj_rt.Value.t
  | Reg of int

(* ---------- guard kinds ---------- *)

(* the runtime type shape a guard_class checks *)
type tyshape =
  | Ty_int
  | Ty_float
  | Ty_str
  | Ty_bool
  | Ty_nil
  | Ty_bigint
  | Ty_list
  | Ty_dict
  | Ty_set
  | Ty_tuple
  | Ty_instance_of of int  (* class object uid *)
  | Ty_func_code of int    (* function identity by code_ref *)
  | Ty_range
  | Ty_iter
  | Ty_cell
  | Ty_builder
  | Ty_class of int        (* a specific class object, by uid *)
  | Ty_method

type gkind =
  | G_true                      (* arg truthy *)
  | G_false                     (* arg falsy *)
  | G_value of Mtj_rt.Value.t   (* arg structurally equals the constant *)
  | G_class of tyshape          (* arg has the type shape *)
  | G_nonnull
  | G_no_ovf_add
  | G_no_ovf_sub
  | G_no_ovf_mul
  | G_index_lt                  (* 0 <= args0 < args1 (bound check) *)
  | G_global_version of int ref * int
      (* the promoted-globals version cell still holds the value *)

(* ---------- resume data ---------- *)

(* where a slot's value comes from at deoptimization time *)
type source =
  | S_reg of int
  | S_const of Mtj_rt.Value.t
  | S_virtual of int  (* index into the trace's virtual descriptors *)

(* One interpreter frame of a resume snapshot.  Immutable once built:
   no code writes into [snap_locals] or [snap_stack] after construction.
   Snapshots rely on that to share a frame, or an unchanged array of it,
   for as long as the frame does not change: the recorder reuses the
   previous bytecode's frame, the optimizer returns frames it need not
   rewrite as they are, loop peeling remaps each distinct frame once,
   and [copy_ops] shares them outright (DESIGN.md §3n). *)
type frame_snap = {
  snap_code : int;          (* code_ref of the interpreter frame *)
  snap_pc : int;            (* pc of the bytecode being (re)executed *)
  snap_locals : source array;
  snap_stack : source array;
  snap_discard : bool;      (* the frame's return value is discarded *)
}

(* materialization descriptor for an allocation removed by escape
   analysis: on deopt the object is rebuilt from these sources *)
type vdesc =
  | V_instance of { v_cls : Mtj_rt.Value.obj; v_fields : source array }
  | V_tuple of source array
  | V_list of source array
  | V_cell of source

type resume = {
  frames : frame_snap list;   (* outermost first *)
  r_virtuals : vdesc array;   (* S_virtual indices resolve here *)
}

(* ---------- residual (AOT) calls ---------- *)

type rescall = {
  aot : Mtj_rt.Aot.fn;
  run : Mtj_rt.Ctx.t -> Mtj_rt.Value.t array -> Mtj_rt.Value.t;
      (** must be free of heap side effects when it raises *)
  effectful : bool;  (** writes the heap (barrier for load forwarding) *)
}

(* ---------- opcodes ---------- *)

type opcode =
  (* memops *)
  | Getfield_gc of int          (* field index *)
  | Setfield_gc of int
  | Getarrayitem_gc             (* tuple element, args: tuple, index *)
  | Getlistitem                 (* list element (typed strategy load) *)
  | Setlistitem
  | Arraylen                    (* list/tuple length *)
  | Strgetitem
  | Strlen
  | Getcell                     (* closure cell load *)
  | Setcell
  (* guards *)
  | Guard of guard
  (* calls *)
  | Call_r of rescall           (* returns a value *)
  | Call_n of rescall           (* no (interesting) result *)
  | Call_assembler of int       (* jump into compiled loop [trace_id] *)
  (* ctrl *)
  | Label
  | Jump                        (* back-edge: args refill entry registers *)
  | Finish                      (* leave JIT code, returning args.(0) to the
                                   caller of the traced region *)
  (* int *)
  | Int_add | Int_sub | Int_mul
  | Int_and | Int_or | Int_xor
  | Int_lshift | Int_rshift
  | Int_lt | Int_le | Int_eq | Int_ne | Int_gt | Int_ge
  | Int_neg | Int_is_true | Int_is_zero
  | Int_floordiv | Int_mod
  (* new *)
  | New_with_vtable of Mtj_rt.Value.obj   (* class object *)
  | New_array of int                      (* tuple/list of n elements *)
  | New_list of int
  | New_cell
  (* float *)
  | Float_add | Float_sub | Float_mul | Float_truediv
  | Float_neg | Float_abs
  | Float_lt | Float_le | Float_eq | Float_ne | Float_gt | Float_ge
  | Cast_int_to_float | Cast_float_to_int
  (* str *)
  | Str_concat | Str_eq
  (* ptr *)
  | Ptr_eq | Ptr_ne | Same_as
  (* unicode *)
  | Unicode_len | Unicode_getitem
  (* debug *)
  | Debug_merge_point of { dmp_code : int; dmp_pc : int; dmp_resume : resume }

and guard = {
  guard_id : int;
  gkind : gkind;
  resume : resume;
  mutable fail_count : int;
  mutable bridge : trace option;
  mutable bridgeable : bool;
}

(* ---------- operations and traces ---------- *)

and op = {
  opcode : opcode;
  args : operand array;
  result : int;  (* destination register, or -1 *)
}

and trace = {
  trace_id : int;
  kind : trace_kind;
  ops : op array;
  op_costs : Mtj_core.Cost.t array;  (* pre-lowered machine cost per op *)
  nregs : int;           (* register-file size *)
  entry_slots : int;     (* registers filled from frame slots on entry *)
  loop_base : int;       (* register base the back-edge jump refills *)
  loop_start : int;      (* op index the back-edge jumps to (after the
                            peeled preamble, when peeling is on) *)
  mutable exec_count : int;
  op_exec : int array;   (* per-op dynamic execution counts *)
  tier : int;            (* 1 = quick unoptimized compile, 2 = full *)
  mutable promote_at : int;
      (* exec_count at which the executor exits to the portal for a
         tier-up decision; Tierpolicy.never for traces that are never
         promoted (Optimizing/Baseline, or a site past max_demotions).
         Only ever mutated finite -> finite (promotion deferral), so a
         translate-time [promote_at <> never] check stays sound. *)
  mutable deopts : int;  (* guard-fail side exits taken from this trace;
                            with exec_count, the guard-fail profile the
                            tier-up stability gate reads *)
  mutable bridges : int; (* bridges attached to this trace's guards;
                            the tier-down trigger reads it *)
  mutable code_version : int;
      (* bumped whenever a guard of this trace gains a bridge; cached
         threaded translations carry the version they were built at and
         are re-translated on mismatch, so guard fail paths re-specialize
         to jump straight into the attached bridge *)
  mutable translations : int;  (* times this trace was threaded *)
  mutable cache_hits : int;    (* entries served from the code cache *)
}

and trace_kind =
  | Loop of { loop_code : int; loop_pc : int }
  | Bridge of { from_guard : int; loop_code : int; loop_pc : int }
      (* a bridge ultimately jumps back into the loop it side-exited *)

(* invalidate any cached threaded code for [t] (a bridge was attached to
   one of its guards; the next entry re-translates, so the guard's fail
   path re-specializes to jump straight into the bridge) *)
let invalidate_code (t : trace) = t.code_version <- t.code_version + 1

(* ---------- opcode metadata ---------- *)

let opcode_name = function
  | Getfield_gc _ -> "getfield_gc"
  | Setfield_gc _ -> "setfield_gc"
  | Getarrayitem_gc -> "getarrayitem_gc"
  | Getlistitem -> "getlistitem_gc"
  | Setlistitem -> "setlistitem_gc"
  | Arraylen -> "arraylen_gc"
  | Strgetitem -> "strgetitem"
  | Strlen -> "strlen"
  | Getcell -> "getfield_gc_cell"
  | Setcell -> "setfield_gc_cell"
  | Guard g -> (
      match g.gkind with
      | G_true -> "guard_true"
      | G_false -> "guard_false"
      | G_value _ -> "guard_value"
      | G_class _ -> "guard_class"
      | G_nonnull -> "guard_nonnull"
      | G_no_ovf_add | G_no_ovf_sub | G_no_ovf_mul -> "guard_no_overflow"
      | G_index_lt -> "guard_index"
      | G_global_version _ -> "guard_not_invalidated")
  | Call_r c -> "call_r:" ^ Mtj_rt.Aot.name c.aot
  | Call_n c -> "call_n:" ^ Mtj_rt.Aot.name c.aot
  | Call_assembler _ -> "call_assembler"
  | Label -> "label"
  | Jump -> "jump"
  | Finish -> "finish"
  | Int_add -> "int_add"
  | Int_sub -> "int_sub"
  | Int_mul -> "int_mul"
  | Int_and -> "int_and"
  | Int_or -> "int_or"
  | Int_xor -> "int_xor"
  | Int_lshift -> "int_lshift"
  | Int_rshift -> "int_rshift"
  | Int_lt -> "int_lt"
  | Int_le -> "int_le"
  | Int_eq -> "int_eq"
  | Int_ne -> "int_ne"
  | Int_gt -> "int_gt"
  | Int_ge -> "int_ge"
  | Int_neg -> "int_neg"
  | Int_is_true -> "int_is_true"
  | Int_is_zero -> "int_is_zero"
  | Int_floordiv -> "int_floordiv"
  | Int_mod -> "int_mod"
  | New_with_vtable _ -> "new_with_vtable"
  | New_array _ -> "new_array"
  | New_list _ -> "new"
  | New_cell -> "new_cell"
  | Float_add -> "float_add"
  | Float_sub -> "float_sub"
  | Float_mul -> "float_mul"
  | Float_truediv -> "float_truediv"
  | Float_neg -> "float_neg"
  | Float_abs -> "float_abs"
  | Float_lt -> "float_lt"
  | Float_le -> "float_le"
  | Float_eq -> "float_eq"
  | Float_ne -> "float_ne"
  | Float_gt -> "float_gt"
  | Float_ge -> "float_ge"
  | Cast_int_to_float -> "cast_int_to_float"
  | Cast_float_to_int -> "cast_float_to_int"
  | Str_concat -> "strconcat"
  | Str_eq -> "str_eq"
  | Ptr_eq -> "ptr_eq"
  | Ptr_ne -> "ptr_ne"
  | Same_as -> "same_as"
  | Unicode_len -> "unicodelen"
  | Unicode_getitem -> "unicodegetitem"
  | Debug_merge_point _ -> "debug_merge_point"

(* generic node-type name for the histograms (Figure 8): call nodes
   collapse onto their class, not the callee *)
let node_type = function
  | Call_r _ -> "call_r"
  | Call_n _ -> "call_n"
  | op -> opcode_name op

let category = function
  | Getfield_gc _ | Setfield_gc _ | Getarrayitem_gc | Getlistitem
  | Setlistitem | Arraylen | Strgetitem | Strlen | Getcell | Setcell ->
      Memop
  | Guard _ -> Guardop
  | Call_r _ | Call_n _ | Call_assembler _ -> Callop
  | Label | Jump | Finish -> Ctrl
  | Int_add | Int_sub | Int_mul | Int_and | Int_or | Int_xor | Int_lshift
  | Int_rshift | Int_lt | Int_le | Int_eq | Int_ne | Int_gt | Int_ge
  | Int_neg | Int_is_true | Int_is_zero | Int_floordiv | Int_mod ->
      Intop
  | New_with_vtable _ | New_array _ | New_list _ | New_cell -> Newop
  | Float_add | Float_sub | Float_mul | Float_truediv | Float_neg
  | Float_abs | Float_lt | Float_le | Float_eq | Float_ne | Float_gt
  | Float_ge | Cast_int_to_float | Cast_float_to_int ->
      Floatop
  | Str_concat | Str_eq -> Strop
  | Ptr_eq | Ptr_ne | Same_as -> Ptrop
  | Unicode_len | Unicode_getitem -> Unicodeop
  | Debug_merge_point _ -> Debugop

(* the type shape an opcode's result is guaranteed to have, when the
   opcode's semantics close over one shape (used by the recorder to skip
   redundant guard_class nodes) *)
let result_shape = function
  | Int_add | Int_sub | Int_mul | Int_and | Int_or | Int_xor | Int_lshift
  | Int_rshift | Int_neg | Int_floordiv | Int_mod | Arraylen | Strlen
  | Unicode_len | Cast_float_to_int ->
      Some Ty_int
  | Int_lt | Int_le | Int_eq | Int_ne | Int_gt | Int_ge | Int_is_true
  | Int_is_zero | Float_lt | Float_le | Float_eq | Float_ne | Float_gt
  | Float_ge | Ptr_eq | Ptr_ne | Str_eq ->
      Some Ty_bool
  | Float_add | Float_sub | Float_mul | Float_truediv | Float_neg
  | Float_abs | Cast_int_to_float ->
      Some Ty_float
  | Str_concat | Strgetitem | Unicode_getitem -> Some Ty_str
  | New_with_vtable cls -> Some (Ty_instance_of cls.Mtj_rt.Value.uid)
  | New_array _ -> Some Ty_tuple
  | New_list _ -> Some Ty_list
  | New_cell -> Some Ty_cell
  | _ -> None

(* x86 instructions required to implement each IR node type (Figure 9's
   y-axis): (alu, fpu, load, store, other).  Calls are the call
   {e overhead} only; the callee's work is charged by the callee. *)
let x86_template = function
  | Getfield_gc _ | Getcell -> (0, 0, 1, 0, 0)
  | Setfield_gc _ | Setcell -> (0, 0, 0, 1, 1)
  | Getarrayitem_gc | Getlistitem -> (1, 0, 2, 0, 0)
  | Setlistitem -> (1, 0, 1, 1, 0)
  | Arraylen | Strlen | Unicode_len -> (0, 0, 1, 0, 0)
  | Strgetitem | Unicode_getitem -> (1, 0, 1, 0, 0)
  | Guard _ -> (1, 0, 0, 0, 0)  (* plus the branch, emitted separately *)
  | Call_r _ | Call_n _ -> (3, 0, 3, 4, 6)
  | Call_assembler _ -> (6, 0, 8, 8, 9)
  | Label -> (0, 0, 0, 0, 1)
  | Jump -> (1, 0, 0, 0, 1)  (* plus the back-edge branch *)
  | Finish -> (2, 0, 2, 2, 3)
  | Int_add | Int_sub | Int_and | Int_or | Int_xor | Int_lshift
  | Int_rshift | Int_neg | Int_is_true | Int_is_zero ->
      (1, 0, 0, 0, 0)
  | Int_lt | Int_le | Int_eq | Int_ne | Int_gt | Int_ge -> (1, 0, 0, 0, 1)
  | Int_mul -> (3, 0, 0, 0, 0)
  | Int_floordiv | Int_mod -> (8, 0, 0, 0, 1)
  | New_with_vtable _ | New_list _ -> (2, 0, 1, 3, 2)
  | New_array _ -> (2, 0, 1, 2, 2)
  | New_cell -> (1, 0, 0, 2, 1)
  | Float_add | Float_sub -> (0, 1, 0, 0, 0)
  | Float_mul -> (0, 2, 0, 0, 0)
  | Float_truediv -> (0, 6, 0, 0, 0)
  | Float_neg | Float_abs -> (0, 1, 0, 0, 0)
  | Float_lt | Float_le | Float_eq | Float_ne | Float_gt | Float_ge ->
      (0, 1, 0, 0, 1)
  | Cast_int_to_float | Cast_float_to_int -> (0, 1, 0, 0, 0)
  | Str_concat -> (2, 0, 2, 2, 2)
  | Str_eq -> (2, 0, 2, 0, 1)
  | Ptr_eq | Ptr_ne | Same_as -> (1, 0, 0, 0, 0)
  | Debug_merge_point _ -> (0, 0, 0, 0, 0)

let x86_count opc =
  let a, f, l, s, o = x86_template opc in
  let base = a + f + l + s + o in
  match opc with
  | Guard _ | Jump | Finish -> base + 1  (* the branch instruction *)
  | Call_r _ | Call_n _ | Call_assembler _ -> base + 1  (* the call *)
  | _ -> base

(* pretty-printing for the jitlog *)
let pp_operand fmt = function
  | Const v -> Format.fprintf fmt "Const(%s)" (Mtj_rt.Value.repr v)
  | Reg r -> Format.fprintf fmt "r%d" r

let pp_op fmt (op : op) =
  if op.result >= 0 then Format.fprintf fmt "r%d = " op.result;
  Format.fprintf fmt "%s(" (opcode_name op.opcode);
  Array.iteri
    (fun i a ->
      if i > 0 then Format.fprintf fmt ", ";
      pp_operand fmt a)
    op.args;
  Format.fprintf fmt ")"

(* copy recorded ops so a recompile (tier-2, or a test harness) starts
   from pristine guards: fresh guard records with no attached bridge and
   a zero fail count, and private arg arrays. The old trace keeps its
   own guards, so bridges already attached to it keep working while it
   remains reachable. Resume data is immutable (see [frame_snap]), so
   the copy shares it, and with it the sharing between snapshots. *)
let copy_ops (ops : op array) : op array =
  Array.map
    (fun (op : op) ->
      let opcode =
        match op.opcode with
        | Guard g -> Guard { g with fail_count = 0; bridge = None }
        | other -> other
      in
      { op with opcode; args = Array.copy op.args })
    ops
