(** Pure evaluation of IR opcodes on concrete values: one staged
    definition per opcode, shared by the optimizer's constant folder and
    both trace-executor loops. *)

exception Not_pure
(** Raised by {!stage} and {!eval} for opcodes that touch the heap, have
    effects or control the trace. *)

exception Overflow
(** Raised by the checked arithmetic helpers on native-int overflow —
    the condition the [guard_no_overflow] family checks. *)

val as_int : Mtj_rt.Value.t -> int
val as_float : Mtj_rt.Value.t -> float
val as_str : Mtj_rt.Value.t -> string

val checked_add : int -> int -> int
val checked_sub : int -> int -> int
val checked_mul : int -> int -> int

val stage : Ir.opcode -> ('e -> Mtj_rt.Value.t) array -> 'e -> Mtj_rt.Value.t
(** [stage opcode readers] is the one definition of a pure opcode:
    staging decodes it and binds the operand readers once, the returned
    closure reads its operands out of an environment ['e] and computes.
    Two-operand ops convert the second operand first (the string index
    ops convert the string first).  Raises {!Not_pure} at staging for heap/effect/control
    opcodes; the closure raises [Division_by_zero] and
    {!Mtj_rjit.Ops_intf.Lang_error} with the messages the interpreter
    produces (so folding never changes observable errors). *)

val stage_checked :
  Ir.opcode -> ('e -> Mtj_rt.Value.t) array -> 'e -> Mtj_rt.Value.t
(** [Int_add], [Int_sub] or [Int_mul] staged with the check the matching
    [guard_no_ovf_*] makes: the closure converts the operands as
    {!stage} does and returns the exact result, or raises {!Overflow}
    where {!stage}'s wrapping op would wrap.  [Invalid_argument] at
    staging for any other opcode. *)

val eval : Ir.opcode -> Mtj_rt.Value.t array -> Mtj_rt.Value.t
(** {!stage} applied to argument values. *)

val foldable : Ir.opcode -> bool
(** Whether {!stage} defines this opcode: the constant folder may
    evaluate it at compile time when all arguments are constants. *)

val removable : Ir.op -> bool
(** Whether dead-code elimination may drop this operation when its
    result is unused. *)
