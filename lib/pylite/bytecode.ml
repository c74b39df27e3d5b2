(** pylite bytecode: a CPython-flavoured stack machine.

    For-loops are lowered at compile time to counter-based forms
    ([FOR_RANGE] over integer ranges, [FOR_ITER] over indexable
    sequences) so that hot loops allocate no iterator objects — the same
    shape PyPy's traces reach after virtualizing iterators. *)

open Mtj_rt

type instr =
  | LOAD_CONST of Value.t
  | LOAD_FAST of int
  | STORE_FAST of int
  | LOAD_GLOBAL of string
  | STORE_GLOBAL of string
  | LOAD_ATTR of string
  | STORE_ATTR of string        (* stack: [obj; value] *)
  | LOAD_METHOD of string       (* [obj] -> [callable; self_or_nil] *)
  | CALL_METHOD of int
  | CALL_FUNCTION of int
  | BINARY of Ast.binop
  | UNARY_NEG
  | UNARY_NOT
  | COMPARE of Mtj_rjit.Ops_intf.cmp
  | JUMP of int
  | POP_JUMP_IF_FALSE of int
  | POP_JUMP_IF_TRUE of int
  | JUMP_IF_FALSE_OR_POP of int
  | JUMP_IF_TRUE_OR_POP of int
  | BUILD_LIST of int
  | BUILD_TUPLE of int
  | BUILD_DICT of int           (* n key/value pairs *)
  | BUILD_SET of int
  | BINARY_SUBSCR
  | STORE_SUBSCR                (* [obj; key; value] *)
  | DELETE_SUBSCR               (* [obj; key] *)
  | GET_SLICE                   (* [obj; lo; hi] *)
  | SET_SLICE                   (* [obj; lo; hi; value] *)
  | RETURN_VALUE
  | RETURN_NONE
  | POP_TOP
  | DUP_TOP
  | UNPACK_SEQUENCE of int
  | GET_INDEXABLE
  | FOR_RANGE of { var : int; cur : int; stop : int; step : int; exit : int }
  | FOR_ITER of { var : int; seq : int; idx : int; exit : int }
  | MAKE_FUNCTION of { code_ref : int; fname : string; arity : int }
  | MAKE_CLASS of { cls_name : string; parent : string option; methods : string list }
  | NOP

type code = {
  id : int;
  name : string;
  nargs : int;
  nlocals : int;
  stacksize : int;
  instrs : instr array;
  headers : bool array;  (* per-pc: is this a hot-loop merge point? *)
  varnames : string array;
}

(* numeric tag for the dispatch-branch target model *)
let tag = function
  | LOAD_CONST _ -> 0
  | LOAD_FAST _ -> 1
  | STORE_FAST _ -> 2
  | LOAD_GLOBAL _ -> 3
  | STORE_GLOBAL _ -> 4
  | LOAD_ATTR _ -> 5
  | STORE_ATTR _ -> 6
  | LOAD_METHOD _ -> 7
  | CALL_METHOD _ -> 8
  | CALL_FUNCTION _ -> 9
  | BINARY _ -> 10
  | UNARY_NEG -> 11
  | UNARY_NOT -> 12
  | COMPARE _ -> 13
  | JUMP _ -> 14
  | POP_JUMP_IF_FALSE _ -> 15
  | POP_JUMP_IF_TRUE _ -> 16
  | JUMP_IF_FALSE_OR_POP _ -> 17
  | JUMP_IF_TRUE_OR_POP _ -> 18
  | BUILD_LIST _ -> 19
  | BUILD_TUPLE _ -> 20
  | BUILD_DICT _ -> 21
  | BUILD_SET _ -> 22
  | BINARY_SUBSCR -> 23
  | STORE_SUBSCR -> 24
  | DELETE_SUBSCR -> 25
  | GET_SLICE -> 26
  | SET_SLICE -> 27
  | RETURN_VALUE -> 28
  | RETURN_NONE -> 29
  | POP_TOP -> 30
  | DUP_TOP -> 31
  | UNPACK_SEQUENCE _ -> 32
  | GET_INDEXABLE -> 33
  | FOR_RANGE _ -> 34
  | FOR_ITER _ -> 35
  | MAKE_FUNCTION _ -> 36
  | MAKE_CLASS _ -> 37
  | NOP -> 38

let name_of_instr i =
  match i with
  | LOAD_CONST _ -> "LOAD_CONST"
  | LOAD_FAST _ -> "LOAD_FAST"
  | STORE_FAST _ -> "STORE_FAST"
  | LOAD_GLOBAL _ -> "LOAD_GLOBAL"
  | STORE_GLOBAL _ -> "STORE_GLOBAL"
  | LOAD_ATTR _ -> "LOAD_ATTR"
  | STORE_ATTR _ -> "STORE_ATTR"
  | LOAD_METHOD _ -> "LOAD_METHOD"
  | CALL_METHOD _ -> "CALL_METHOD"
  | CALL_FUNCTION _ -> "CALL_FUNCTION"
  | BINARY _ -> "BINARY"
  | UNARY_NEG -> "UNARY_NEG"
  | UNARY_NOT -> "UNARY_NOT"
  | COMPARE _ -> "COMPARE"
  | JUMP _ -> "JUMP"
  | POP_JUMP_IF_FALSE _ -> "POP_JUMP_IF_FALSE"
  | POP_JUMP_IF_TRUE _ -> "POP_JUMP_IF_TRUE"
  | JUMP_IF_FALSE_OR_POP _ -> "JUMP_IF_FALSE_OR_POP"
  | JUMP_IF_TRUE_OR_POP _ -> "JUMP_IF_TRUE_OR_POP"
  | BUILD_LIST _ -> "BUILD_LIST"
  | BUILD_TUPLE _ -> "BUILD_TUPLE"
  | BUILD_DICT _ -> "BUILD_DICT"
  | BUILD_SET _ -> "BUILD_SET"
  | BINARY_SUBSCR -> "BINARY_SUBSCR"
  | STORE_SUBSCR -> "STORE_SUBSCR"
  | DELETE_SUBSCR -> "DELETE_SUBSCR"
  | GET_SLICE -> "GET_SLICE"
  | SET_SLICE -> "SET_SLICE"
  | RETURN_VALUE -> "RETURN_VALUE"
  | RETURN_NONE -> "RETURN_NONE"
  | POP_TOP -> "POP_TOP"
  | DUP_TOP -> "DUP_TOP"
  | UNPACK_SEQUENCE _ -> "UNPACK_SEQUENCE"
  | GET_INDEXABLE -> "GET_INDEXABLE"
  | FOR_RANGE _ -> "FOR_RANGE"
  | FOR_ITER _ -> "FOR_ITER"
  | MAKE_FUNCTION _ -> "MAKE_FUNCTION"
  | MAKE_CLASS _ -> "MAKE_CLASS"
  | NOP -> "NOP"

(* net stack effect; [branch] distinguishes the jump-taken path for the
   OR_POP conditionals *)
let stack_effect ?(taken = false) = function
  | LOAD_CONST _ | LOAD_FAST _ | LOAD_GLOBAL _ | DUP_TOP -> 1
  | STORE_FAST _ | STORE_GLOBAL _ | POP_TOP -> -1
  | LOAD_ATTR _ -> 0
  | STORE_ATTR _ -> -2
  | LOAD_METHOD _ -> 1
  | CALL_METHOD n -> -(n + 1)  (* pops callable+self+args, pushes result *)
  | CALL_FUNCTION n -> -n      (* pops callee+args, pushes result *)
  | BINARY _ | COMPARE _ -> -1
  | UNARY_NEG | UNARY_NOT -> 0
  | JUMP _ -> 0
  | POP_JUMP_IF_FALSE _ | POP_JUMP_IF_TRUE _ -> -1
  | JUMP_IF_FALSE_OR_POP _ | JUMP_IF_TRUE_OR_POP _ ->
      if taken then 0 else -1
  | BUILD_LIST n | BUILD_TUPLE n | BUILD_SET n -> 1 - n
  | BUILD_DICT n -> 1 - (2 * n)
  | BINARY_SUBSCR -> -1
  | STORE_SUBSCR -> -3
  | DELETE_SUBSCR -> -2
  | GET_SLICE -> -2
  | SET_SLICE -> -4
  | RETURN_VALUE -> -1
  | RETURN_NONE -> 0
  | UNPACK_SEQUENCE n -> n - 1
  | GET_INDEXABLE -> 0
  | FOR_RANGE _ | FOR_ITER _ -> 0
  | MAKE_FUNCTION _ -> 1
  | MAKE_CLASS { methods; _ } -> 1 - List.length methods
  | NOP -> 0

(* the pc a taken jump goes to, or -1 for an instruction that never
   jumps *)
let jump_target = function
  | JUMP t | POP_JUMP_IF_FALSE t | POP_JUMP_IF_TRUE t
  | JUMP_IF_FALSE_OR_POP t | JUMP_IF_TRUE_OR_POP t ->
      t
  | FOR_RANGE { exit; _ } | FOR_ITER { exit; _ } -> exit
  | _ -> -1

let falls_through = function
  | JUMP _ | RETURN_VALUE | RETURN_NONE -> false
  | _ -> true

let pp_instr fmt i =
  match i with
  | LOAD_CONST v -> Format.fprintf fmt "LOAD_CONST %s" (Value.repr v)
  | LOAD_FAST n -> Format.fprintf fmt "LOAD_FAST %d" n
  | STORE_FAST n -> Format.fprintf fmt "STORE_FAST %d" n
  | LOAD_GLOBAL s -> Format.fprintf fmt "LOAD_GLOBAL %s" s
  | STORE_GLOBAL s -> Format.fprintf fmt "STORE_GLOBAL %s" s
  | LOAD_ATTR s -> Format.fprintf fmt "LOAD_ATTR %s" s
  | STORE_ATTR s -> Format.fprintf fmt "STORE_ATTR %s" s
  | LOAD_METHOD s -> Format.fprintf fmt "LOAD_METHOD %s" s
  | CALL_METHOD n -> Format.fprintf fmt "CALL_METHOD %d" n
  | CALL_FUNCTION n -> Format.fprintf fmt "CALL_FUNCTION %d" n
  | JUMP t -> Format.fprintf fmt "JUMP %d" t
  | POP_JUMP_IF_FALSE t -> Format.fprintf fmt "POP_JUMP_IF_FALSE %d" t
  | POP_JUMP_IF_TRUE t -> Format.fprintf fmt "POP_JUMP_IF_TRUE %d" t
  | FOR_RANGE { var; exit; _ } ->
      Format.fprintf fmt "FOR_RANGE var=%d exit=%d" var exit
  | FOR_ITER { var; exit; _ } ->
      Format.fprintf fmt "FOR_ITER var=%d exit=%d" var exit
  | other -> Format.pp_print_string fmt (name_of_instr other)
