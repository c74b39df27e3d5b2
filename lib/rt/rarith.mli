(** Numeric tower shared by the hosted languages.

    Native ints overflow transparently into {!Rbigint} values (Python
    semantics); bignum operations run as AOT-compiled calls registered in
    Table III's names ([rbigint.add], [.mul], [.divmod], [.lshift]), with
    machine work charged proportionally to the digits processed — this is
    what makes [pidigits] JIT-call-bound, as in the paper.

    Operations raise {!Type_error} on non-numeric operands (the language
    layers translate this into their own exceptions) and [Division_by_zero]
    where Python would raise ZeroDivisionError. *)

exception Type_error of string

val is_number : Value.t -> bool

val add : Ctx.t -> Value.t -> Value.t -> Value.t
val sub : Ctx.t -> Value.t -> Value.t -> Value.t
val mul : Ctx.t -> Value.t -> Value.t -> Value.t
val floordiv : Ctx.t -> Value.t -> Value.t -> Value.t
val truediv : Ctx.t -> Value.t -> Value.t -> Value.t
val modulo : Ctx.t -> Value.t -> Value.t -> Value.t
val divmod : Ctx.t -> Value.t -> Value.t -> Value.t * Value.t
val neg : Ctx.t -> Value.t -> Value.t
val pow : Ctx.t -> Value.t -> Value.t -> Value.t
val lshift : Ctx.t -> Value.t -> int -> Value.t
val rshift : Ctx.t -> Value.t -> int -> Value.t
val compare_num : Ctx.t -> Value.t -> Value.t -> int
val to_float : Value.t -> float
(** Raises {!Type_error} on non-numbers. *)

val normalize_big : Ctx.t -> Rbigint.t -> Value.t
(** Box as [Int] when it fits, else allocate a bigint object. *)

val add_overflows : int -> int -> bool
val sub_overflows : int -> int -> bool
val mul_overflows : int -> int -> bool
(** Whether native [x + y], [x - y] or [x * y] wraps: the test every
    int op makes before promoting to {!Rbigint}, and the condition the
    JIT's overflow guards check. *)

val floordiv_int : int -> int -> int
(** Python floor division on native ints; raises [Division_by_zero]. *)

val mod_int : int -> int -> int
(** Python modulo on native ints; raises [Division_by_zero]. *)
