(** Pure evaluation of side-effect-free IR opcodes over concrete values.

    {!stage} is the one definition of every pure opcode: the trace
    executor builds its op steps from it, {!eval} applies it to argument
    values for the optimizer's constant folder and the reference
    executor, and {!foldable} is whether it is defined.
    Staging raises [Not_pure] for opcodes that touch the heap, call out,
    or control the trace; the staged closures raise language errors
    ({!Ops_intf.Lang_error}, [Division_by_zero]) exactly where the
    interpreter would. *)

open Mtj_rt

exception Not_pure
exception Overflow

let as_int = Semantics.as_int

let[@inline] as_float v =
  if Value.is_float v then Value.to_float_unchecked v
  else Semantics.err "float op on %s" (Value.type_name v)

let[@inline] as_str v =
  if Value.is_str v then Value.to_str_unchecked v
  else Semantics.err "str op on %s" (Value.type_name v)

(* the interpreter's overflow tests, so a guard fails exactly where
   [Rarith] promotes to a bigint *)
let checked_add x y = if Rarith.add_overflows x y then raise Overflow else x + y
let checked_sub x y = if Rarith.sub_overflows x y then raise Overflow else x - y
let checked_mul x y = if Rarith.mul_overflows x y then raise Overflow else x * y

(* --- the pure opcodes, staged ---

   [stage] is the one definition of every pure opcode.  Staging decodes
   the opcode and binds its operand readers; the returned closure reads
   the operands out of an environment ['e] (the executor's register
   file, or [eval]'s argument array) and computes.  Two-operand ops
   convert the second operand first (the string index ops convert the
   string first), so a type error on either operand surfaces the same
   everywhere. *)

let int1 gs f =
  let a = gs.(0) in
  fun e -> f (as_int (a e))

let int2 gs f =
  let a = gs.(0) and b = gs.(1) in
  fun e ->
    let y = as_int (b e) in
    f (as_int (a e)) y

let float1 gs f =
  let a = gs.(0) in
  fun e -> f (as_float (a e))

let float2 gs f =
  let a = gs.(0) and b = gs.(1) in
  fun e ->
    let y = as_float (b e) in
    f (as_float (a e)) y

let str_getitem gs =
  let a = gs.(0) and b = gs.(1) in
  fun e ->
    let s = as_str (a e) in
    let idx = as_int (b e) in
    if idx < 0 || idx >= String.length s then
      Semantics.err "string index out of range"
    else Value.of_str (String.make 1 s.[idx])

let stage (opcode : Ir.opcode) (gs : ('e -> Value.t) array) : 'e -> Value.t =
  match opcode with
  | Ir.Int_lt -> int2 gs (fun x y -> Value.of_bool (x < y))
  | Ir.Int_le -> int2 gs (fun x y -> Value.of_bool (x <= y))
  | Ir.Int_eq -> int2 gs (fun x y -> Value.of_bool (x = y))
  | Ir.Int_ne -> int2 gs (fun x y -> Value.of_bool (x <> y))
  | Ir.Int_gt -> int2 gs (fun x y -> Value.of_bool (x > y))
  | Ir.Int_ge -> int2 gs (fun x y -> Value.of_bool (x >= y))
  | Ir.Int_is_true -> int1 gs (fun x -> Value.of_bool (x <> 0))
  | Ir.Int_is_zero ->
      let a = gs.(0) in
      fun e -> Value.of_bool (not (Value.truthy (a e)))
  | Ir.Float_lt -> float2 gs (fun x y -> Value.of_bool (x < y))
  | Ir.Float_le -> float2 gs (fun x y -> Value.of_bool (x <= y))
  | Ir.Float_eq -> float2 gs (fun x y -> Value.of_bool (x = y))
  | Ir.Float_ne -> float2 gs (fun x y -> Value.of_bool (x <> y))
  | Ir.Float_gt -> float2 gs (fun x y -> Value.of_bool (x > y))
  | Ir.Float_ge -> float2 gs (fun x y -> Value.of_bool (x >= y))
  | Ir.Ptr_eq ->
      let a = gs.(0) and b = gs.(1) in
      fun e -> Value.of_bool (Semantics.identical (a e) (b e))
  | Ir.Ptr_ne ->
      let a = gs.(0) and b = gs.(1) in
      fun e -> Value.of_bool (not (Semantics.identical (a e) (b e)))
  | Ir.Int_add -> int2 gs (fun x y -> Value.of_int (x + y))
  | Ir.Int_sub -> int2 gs (fun x y -> Value.of_int (x - y))
  | Ir.Int_mul -> int2 gs (fun x y -> Value.of_int (x * y))
  | Ir.Int_and -> int2 gs (fun x y -> Value.of_int (x land y))
  | Ir.Int_or -> int2 gs (fun x y -> Value.of_int (x lor y))
  | Ir.Int_xor -> int2 gs (fun x y -> Value.of_int (x lxor y))
  | Ir.Int_lshift -> int2 gs (fun x n -> Value.of_int (x lsl n))
  | Ir.Int_rshift ->
      (* clamp: [asr] past the word size is unspecified (hardware
         wraps the count); traces only emit this for non-negative
         operands *)
      int2 gs (fun x n -> Value.of_int (x asr if n > 62 then 62 else n))
  | Ir.Int_floordiv ->
      int2 gs (fun x y -> Value.of_int (Rarith.floordiv_int x y))
  | Ir.Int_mod -> int2 gs (fun x y -> Value.of_int (Rarith.mod_int x y))
  | Ir.Int_neg ->
      int1 gs (fun x ->
          if x = min_int then Semantics.err "integer negation overflow"
          else Value.of_int (-x))
  | Ir.Float_add -> float2 gs (fun x y -> Value.of_float (x +. y))
  | Ir.Float_sub -> float2 gs (fun x y -> Value.of_float (x -. y))
  | Ir.Float_mul -> float2 gs (fun x y -> Value.of_float (x *. y))
  | Ir.Float_truediv ->
      (* the divisor is converted and checked before the dividend *)
      let a = gs.(0) and b = gs.(1) in
      fun e ->
        let y = as_float (b e) in
        if y = 0.0 then raise Division_by_zero
        else Value.of_float (as_float (a e) /. y)
  | Ir.Float_neg -> float1 gs (fun x -> Value.of_float (-.x))
  | Ir.Float_abs -> float1 gs (fun x -> Value.of_float (Float.abs x))
  | Ir.Cast_int_to_float -> int1 gs (fun x -> Value.of_float (float_of_int x))
  | Ir.Cast_float_to_int ->
      float1 gs (fun x -> Value.of_int (int_of_float (Float.trunc x)))
  | Ir.Str_concat ->
      let a = gs.(0) and b = gs.(1) in
      fun e ->
        let y = as_str (b e) in
        Value.of_str (as_str (a e) ^ y)
  | Ir.Str_eq ->
      let a = gs.(0) and b = gs.(1) in
      fun e ->
        let y = as_str (b e) in
        Value.of_bool (String.equal (as_str (a e)) y)
  | Ir.Strlen | Ir.Unicode_len ->
      let a = gs.(0) in
      fun e -> Value.of_int (String.length (as_str (a e)))
  | Ir.Strgetitem | Ir.Unicode_getitem -> str_getitem gs
  | Ir.Same_as -> gs.(0)
  | _ -> raise Not_pure

(* the int ops an overflow guard checks, staged with the check: the
   exact result, or [Overflow] where the wrapping op in [stage] would
   wrap *)
let stage_checked (opcode : Ir.opcode) (gs : ('e -> Value.t) array) :
    'e -> Value.t =
  let a = gs.(0) and b = gs.(1) in
  match opcode with
  | Ir.Int_add ->
      fun e ->
        let y = as_int (b e) in
        Value.of_int (checked_add (as_int (a e)) y)
  | Ir.Int_sub ->
      fun e ->
        let y = as_int (b e) in
        Value.of_int (checked_sub (as_int (a e)) y)
  | Ir.Int_mul ->
      fun e ->
        let y = as_int (b e) in
        Value.of_int (checked_mul (as_int (a e)) y)
  | _ -> invalid_arg "Eval_op.stage_checked"

(* [eval]'s operand readers: the environment is the argument array *)
let nth = [| (fun (args : Value.t array) -> args.(0)); (fun args -> args.(1)) |]

let eval opcode args = stage opcode nth args

let foldable opcode =
  match (stage opcode nth : Value.t array -> Value.t) with
  | _ -> true
  | exception Not_pure -> false

(* result-producing ops with no observable effect: removable when the
   result is unused (allocations included — that is trivial escape
   analysis; pure residual calls included) *)
let removable (op : Ir.op) =
  op.Ir.result >= 0
  &&
  match op.Ir.opcode with
  | Ir.Guard _ | Ir.Setfield_gc _ | Ir.Setlistitem | Ir.Setcell | Ir.Jump
  | Ir.Finish | Ir.Label | Ir.Call_assembler _ | Ir.Debug_merge_point _
  | Ir.Call_n _ ->
      false
  | Ir.Call_r c -> not c.Ir.effectful
  | _ -> true
