(** The threaded-dispatch interpreter tier.

    The trace executor ({!Executor}) translates each trace {e once} into
    pre-bound step closures, each tail-calling its successor, instead of
    decoding and matching every op (Izawa & Masuhara, "Threaded Code
    Generation with a Meta-Tracing JIT Compiler", 2021).  This module is
    the seam that extends the same pattern down to the interpreters
    themselves: the hosted language stages each [Bytecode]/[Kbytecode]
    code object into a [step] array over {!Direct_ops}, and
    {!Driver.Make} runs it in place of the reference
    [Step(Direct_ops).step_ref] loop.  As in Izawa et al., the threaded
    code is derived from the interpreter definition the meta-tracer
    runs: each language's [Step] functor stages every bytecode once, and
    a step is that staged handler with {!charger}'s dispatch prologue as
    its charge.

    The contract is strict: a threaded step must emit {e exactly} the
    charge sequence of one reference dispatch-loop iteration — the
    dispatch tick ({!Mtj_machine.Engine.tick}), the dispatch cost
    bundle, the indirect dispatch branch, then the handler's own
    operations, in that order — so simulated counters stay
    byte-identical between the two loops.  Steps meet it by
    construction, and so do their chains: {!thread}
    stages every pc with the step at pc + 1 as its continuation, so a
    straight-line run is one chain of tail calls emitting the reference
    sequence bytecode after bytecode with no dispatch between them.  A
    chain ends before a loop header, where the driver consults the JIT
    portal, and at a jump, call or return.  Only host-side work differs:
    operand decode, constant-pool loads and jump-target resolution
    happen once per translation, and a chain writes the pc only where it
    ends. *)

open Mtj_core
module Engine = Mtj_machine.Engine

type ('v, 'code) step = ('v, 'code) Frame.t -> ('v, 'code) Frame.outcome
(** one pre-bound bytecode: runs the full dispatch-iteration charge
    sequence and the handler, then continues into its successor's step
    or commits [Frame.pc] and returns *)

(* The continuation the reference loop and the tracer stage every
   bytecode with: they run one bytecode per step, so the successor is
   the frame's own pc + 1. *)
let advance (f : ('v, 'code) Frame.t) : ('v, 'code) Frame.outcome =
  f.Frame.pc <- f.Frame.pc + 1;
  Frame.Continue

(* the end of a chain: commit [pc] and return to the driver loop *)
let commit pc : ('v, 'code) step =
 fun f ->
  f.Frame.pc <- pc;
  Frame.Continue

(* [thread ~headers n stage] stages pcs [n - 1] down to [0], passing
   each the step already staged at pc + 1 as its continuation [~k], or
   [commit (pc + 1)] where pc + 1 is past the end or a loop header: a
   chain never runs into a merge point, so the driver still consults the
   JIT portal at every header.  Chains are tail calls, so a long one
   costs no stack.  The array starts filled with the static [advance],
   never young, since OCaml 5 forces a minor collection to fill an array
   past 256 slots with a young value (DESIGN.md §4); every slot is
   overwritten. *)
let thread ~(headers : bool array) n
    (stage : k:('v, 'code) step -> int -> ('v, 'code) step) :
    ('v, 'code) step array =
  let steps = Array.make n advance in
  for pc = n - 1 downto 0 do
    let next = pc + 1 in
    let k =
      if next < n && not headers.(next) then steps.(next) else commit next
    in
    steps.(pc) <- stage ~k pc
  done;
  steps

type dispatch = {
  d_eng : Engine.t;
  d_cost : Cost.t;  (* Profile.dispatch, the per-bytecode dispatch bundle *)
  d_site : int;   (* indirect-dispatch predictor site of this code object *)
  d_indirect : bool;  (* Profile.dispatch_indirect, resolved once *)
}
(** per-code dispatch-charging context, bound into every step closure at
    translate time so the hot path re-checks nothing per bytecode *)

(* The reference loop's per-iteration prologue in Driver.Make.run_frame,
   byte for byte (tick, dispatch bundle, then the predictor's indirect
   branch), specialized at translate time: the dispatch record is torn
   apart once per code translation, so each emitted step pays a single
   closure call with no field loads and no [d_indirect] test.  The tick
   and the bundle inline, so between tick marks the prologue's only call
   is the indirect branch.  Translators pass this to their staged
   handlers as the [charge]. *)
let charger d =
  let eng = d.d_eng and cost = d.d_cost in
  if d.d_indirect then
    let site = d.d_site in
    fun ~target ->
      Engine.tick eng;
      Engine.emit eng cost;
      Engine.branch_indirect eng ~site ~target
  else
    fun ~target:_ ->
      Engine.tick eng;
      Engine.emit eng cost

(** What a hosted language provides to drive the threaded tier, on top
    of the base meta-tracing seam.  The translation cache lives in the
    language's code table (keyed by code id, cleared with it) so a
    fresh VM never sees stale step arrays. *)
module type LANG = sig
  include Ops_intf.LANG

  val headers : code -> bool array
  (** the loop-header bitmap, exposed directly so the threaded loop can
      test merge points without an indirect call per bytecode *)

  val threaded_code :
    Direct_ops.cx ->
    Globals.t ->
    dispatch ->
    code ->
    (Direct_ops.t, code) step array
  (** translate [code] once into its pre-bound step array; raises
      [Invalid_argument] if an instruction names a [code_ref] that the
      code table cannot resolve (stale tables fail at translation, not
      mid-run) *)

  val lookup_threaded : code -> (Direct_ops.t, code) step array option
  val store_threaded : code -> (Direct_ops.t, code) step array -> unit
end
