(** Interpreter frames, generic over the value representation.

    The same frame structure is used by the direct interpreter (['v] =
    {!Mtj_rt.Value.t}) and by the tracing meta-interpreter (['v] =
    tracked values carrying their IR operand).  A frame holds the code
    object, the program counter, the locals and the evaluation stack;
    frames link to their caller.

    Code throughout the interpreters relies on
    [Array.length t.locals = max 1 nlocals] (e.g. to recover the local
    count and to blit call arguments). *)

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

val create :
  code:'code ->
  code_ref:int ->
  nlocals:int ->
  stack_size:int ->
  default:'v ->
  parent:('v, 'code) t option ->
  ('v, 'code) t
(** Fresh frame with newly allocated locals/stack arrays filled with
    [default]. *)

val push : ('v, 'code) t -> 'v -> unit
val pop : ('v, 'code) t -> 'v
val peek : ('v, 'code) t -> int -> 'v
val set_top : ('v, 'code) t -> 'v -> unit

val depth : ('v, 'code) t -> int
(** Number of ancestor frames. *)

(** What one bytecode step did to control flow. *)
type ('v, 'code) outcome =
  | Continue                     (** stay in this frame *)
  | Call of ('v, 'code) t        (** push and enter the given frame *)
  | Return of 'v                 (** pop this frame with the result *)
