(** Interpreter frames, generic over the value representation.

    The same frame structure is used by the direct interpreter (['v] =
    {!Mtj_rt.Value.t}) and by the tracing meta-interpreter (['v] = tracked
    values carrying their IR operand).  A frame holds the code object, the
    program counter, the locals and the evaluation stack; frames link to
    their caller. *)

type ('v, 'code) t = {
  code : 'code;
  code_ref : int;
  mutable pc : int;
  locals : 'v array;
  stack : 'v array;
  mutable sp : int;
  mutable parent : ('v, 'code) t option;
  mutable discard_return : bool;
      (** constructor ([__init__]) frames: the caller already holds the
          instance; the return value is dropped *)
}

let create ~code ~code_ref ~nlocals ~stack_size ~default ~parent =
  {
    code;
    code_ref;
    pc = 0;
    locals = Array.make (max 1 nlocals) default;
    stack = Array.make (max 1 stack_size) default;
    sp = 0;
    parent;
    discard_return = false;
  }

let push t v =
  t.stack.(t.sp) <- v;
  t.sp <- t.sp + 1

let pop t =
  t.sp <- t.sp - 1;
  t.stack.(t.sp)

let peek t n = t.stack.(t.sp - 1 - n)

let set_top t v = t.stack.(t.sp - 1) <- v

let depth t =
  let rec go n = function None -> n | Some p -> go (n + 1) p.parent in
  go 0 t.parent

(** What one bytecode step did to control flow. *)
type ('v, 'code) outcome =
  | Continue                     (** stay in this frame *)
  | Call of ('v, 'code) t        (** push and enter the given frame *)
  | Return of 'v                 (** pop this frame with the result *)
