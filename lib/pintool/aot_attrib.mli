(** Attribution of execution time to AOT-compiled runtime functions
    called from JIT-compiled meta-traces (framework-level
    characterization, Sec. V-C / Table III).

    Listens to the [Aot_calls] kind ([Aot_enter]/[Aot_exit] annotations)
    only.  Following the paper, time spent in functions called {e from}
    an AOT function is counted against the outermost entry point, and
    only calls made from JIT-compiled code (the [Jit_call] phase) are
    attributed — AOT functions also run under the plain interpreter,
    where they are just part of interpretation. *)

type t

val attach : Mtj_machine.Engine.t -> t

val insns_of : t -> int -> int
(** Instructions attributed to AOT function [id] (entry-point inclusive). *)

val calls_of : t -> int -> int
(** Number of outermost calls into AOT function [id] from JIT code. *)

val top : t -> n:int -> (int * int) list
(** The [n] most expensive functions as [(fn_id, insns)], descending;
    equal counts in ascending id order.  Only functions that completed
    at least one outermost call from JIT code are ranked. *)

val total_attributed : t -> int
