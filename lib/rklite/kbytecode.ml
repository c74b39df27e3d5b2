(** rklite bytecode (the Pycket-analogue VM's instruction set).

    Scheme loops arrive as self tail calls; the compiler turns them into
    [K_TAILJUMP], a backward jump to pc 0 that refreshes the parameters —
    which is exactly a hot-loop merge point for the JIT driver, matching
    how Pycket finds loops in recursive Racket code. *)

open Mtj_rt

type prim =
  | P_add | P_sub | P_mul | P_div
  | P_quotient | P_remainder | P_modulo
  | P_lt | P_le | P_gt | P_ge | P_numeq
  | P_eq | P_equal
  | P_not | P_zerop | P_nullp | P_pairp
  | P_car | P_cdr | P_cons | P_set_car | P_set_cdr
  | P_vector_ref | P_vector_set | P_vector_length | P_vector | P_make_vector
  | P_display | P_newline
  | P_sqrt | P_sin | P_cos | P_expt | P_abs | P_min | P_max | P_floor
  | P_num_to_str | P_str_append | P_str_length | P_to_float
  | P_list
  | P_annotate

let prim_name = function
  | P_add -> "+" | P_sub -> "-" | P_mul -> "*" | P_div -> "/"
  | P_quotient -> "quotient" | P_remainder -> "remainder" | P_modulo -> "modulo"
  | P_lt -> "<" | P_le -> "<=" | P_gt -> ">" | P_ge -> ">=" | P_numeq -> "="
  | P_eq -> "eq?" | P_equal -> "equal?"
  | P_not -> "not" | P_zerop -> "zero?" | P_nullp -> "null?" | P_pairp -> "pair?"
  | P_car -> "car" | P_cdr -> "cdr" | P_cons -> "cons"
  | P_set_car -> "set-car!" | P_set_cdr -> "set-cdr!"
  | P_vector_ref -> "vector-ref" | P_vector_set -> "vector-set!"
  | P_vector_length -> "vector-length" | P_vector -> "vector"
  | P_make_vector -> "make-vector"
  | P_display -> "display" | P_newline -> "newline"
  | P_sqrt -> "sqrt" | P_sin -> "sin" | P_cos -> "cos" | P_expt -> "expt"
  | P_abs -> "abs" | P_min -> "min" | P_max -> "max" | P_floor -> "floor"
  | P_num_to_str -> "number->string" | P_str_append -> "string-append"
  | P_str_length -> "string-length" | P_to_float -> "exact->inexact"
  | P_list -> "list"
  | P_annotate -> "annotate"

type instr =
  | K_CONST of Value.t
  | K_LOCAL of int
  | K_SET_LOCAL of int
  | K_GLOBAL of string
  | K_SET_GLOBAL of string
  | K_CELL_GET of int   (* the local slot holds a cell; push its content *)
  | K_CELL_SET of int
  | K_MAKE_CELL of int  (* box locals[i] into a fresh cell, in place *)
  | K_CLOSURE of {
      code_ref : int;
      arity : int;
      cname : string;
      capture_slots : int array;  (* local slots (cells) to capture *)
    }
  | K_CALL of int
  | K_TAILCALL of int   (* proper tail call: replace the current frame *)
  | K_TAILJUMP of int   (* self tail call: refresh params, goto 0 *)
  | K_JUMP of int
  | K_JUMP_IF_FALSE of int      (* pops the condition *)
  | K_JFALSE_OR_POP of int
  | K_JTRUE_OR_POP of int
  | K_RETURN
  | K_POP
  | K_PRIM of prim * int

type code = {
  id : int;
  name : string;
  nargs : int;
  ncaptured : int;
  nlocals : int;
  stacksize : int;
  instrs : instr array;
  headers : bool array;
}

let tag = function
  | K_CONST _ -> 0
  | K_LOCAL _ -> 1
  | K_SET_LOCAL _ -> 2
  | K_GLOBAL _ -> 3
  | K_SET_GLOBAL _ -> 4
  | K_CELL_GET _ -> 5
  | K_CELL_SET _ -> 6
  | K_MAKE_CELL _ -> 7
  | K_CLOSURE _ -> 8
  | K_CALL _ -> 9
  | K_TAILCALL _ -> 18
  | K_TAILJUMP _ -> 10
  | K_JUMP _ -> 11
  | K_JUMP_IF_FALSE _ -> 12
  | K_JFALSE_OR_POP _ -> 13
  | K_JTRUE_OR_POP _ -> 14
  | K_RETURN -> 15
  | K_POP -> 16
  | K_PRIM (p, _) -> 17 + Hashtbl.hash (prim_name p) mod 64

let stack_effect ?(taken = false) = function
  | K_CONST _ | K_LOCAL _ | K_GLOBAL _ | K_CELL_GET _ | K_CLOSURE _ -> 1
  | K_SET_LOCAL _ | K_SET_GLOBAL _ | K_CELL_SET _ | K_POP
  | K_JUMP_IF_FALSE _ ->
      -1
  | K_MAKE_CELL _ | K_JUMP _ -> 0
  | K_JFALSE_OR_POP _ | K_JTRUE_OR_POP _ -> if taken then 0 else -1
  | K_CALL n -> -n
  | K_TAILCALL n -> -n
  | K_TAILJUMP n -> -n
  | K_RETURN -> -1
  | K_PRIM (_, n) -> 1 - n

(* the pc a taken jump goes to, or -1 for an instruction that never
   jumps *)
let jump_target = function
  | K_JUMP t | K_JUMP_IF_FALSE t | K_JFALSE_OR_POP t | K_JTRUE_OR_POP t -> t
  | K_TAILJUMP _ -> 0
  | _ -> -1

let falls_through = function
  | K_JUMP _ | K_TAILJUMP _ | K_TAILCALL _ | K_RETURN -> false
  | _ -> true
