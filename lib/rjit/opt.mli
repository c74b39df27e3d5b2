(** Trace optimizer.

    Runs the passes the RPython optimizer applies to a recorded meta-trace
    (Sec. II; their combined effect is what Figures 6–8 measure):

    - constant folding of pure operations;
    - guard strengthening: a guard implied by an earlier guard on the
      same SSA register (or by a known allocation / integer bounds) is
      removed — sound because a trace is straight-line code;
    - heap load forwarding, invalidated across effectful residual calls
      and aliasing stores;
    - escape analysis: allocations that never escape the trace are
      removed ("virtuals"); guard resume data is rewritten to carry
      materialization descriptors so deoptimization can rebuild them;
    - dead-code elimination of unused pure results;
    - loop peeling ([`Loop] traces only): the trace is duplicated into a
      preamble and a loop body, and facts established by the preamble
      (type shapes, integer bounds) carried over the back-edge let the
      body shed loop-invariant guards.

    Each pass is toggled by a {!Mtj_core.Config} flag, which is what the
    ablation benchmark (`bench/main.exe ablation`) and the differential
    test matrix sweep. *)

val optimize :
  Mtj_core.Config.t ->
  ?kind:[ `Loop | `Bridge ] ->
  Ir.op array ->
  entry_slots:int ->
  Ir.op array * int * int
(** [optimize cfg ~kind ops ~entry_slots] returns
    [(ops', loop_base, loop_start)]: the optimized operations plus, when
    the trace was peeled, the register base the back-edge jump refills
    and the operation index it targets (both [0] otherwise).
    [entry_slots] is the number of registers filled from interpreter
    frame locals on trace entry. Setting [MTJ_VERIFY_TRACES] in the
    environment runs {!verify_defs} on the result and reports the
    dangling uses on stderr. *)

type dangling = {
  d_op : int;  (** index of the op holding the use *)
  d_reg : int;  (** the register no earlier op defines *)
  d_in_resume : bool;  (** in a resume snapshot, not an op argument *)
}

val verify_defs :
  Ir.op array -> entry_slots:int -> loop_base:int -> dangling list
(** The uses of registers that neither an entry slot ([0 ..
    entry_slots-1] and [loop_base ..  loop_base+entry_slots-1]) nor an
    earlier op defines, in op order: op arguments, resume frame sources
    and virtual descriptors. Empty for a well-formed trace. *)
