(** The operand-stack size a code object needs, computed once per code
    object by both languages' compilers ([Mtj_pylite.Compiler],
    [Mtj_rklite.Kcompiler]). *)

val deepest :
  'i array ->
  effect:('i -> int) ->
  taken_effect:('i -> int) ->
  target:('i -> int) ->
  falls_through:('i -> bool) ->
  int
(** [deepest instrs ~effect ~taken_effect ~target ~falls_through] is the
    deepest stack any instruction reachable from pc 0 can see, before
    its effect, after it, or one slot above its entry depth.  The entry
    stack is empty, [effect i] is [i]'s net effect when it falls
    through, [taken_effect i] when its jump is taken, [target i] is the
    pc it can jump to ([-1] for none), and a successor's depth is never
    below 0.  A worklist revisits a pc only when a deeper stack reaches
    it, so the answer does not depend on the visiting order, and it
    allocates nothing per instruction. *)
