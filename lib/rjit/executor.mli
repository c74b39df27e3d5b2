(** Trace executor: runs compiled trace code against the machine model.

    Executes the trace's operations on concrete values while charging
    each node's pre-lowered cost, evaluating guards, following attached
    bridges on guard failure, and switching into other compiled traces
    at [call_assembler] back-edges. On a guard failure with no bridge it
    deoptimizes: the blackhole interpreter (Phase [Blackhole], Table IV's
    worst-IPC phase) rebuilds interpreter frames from the guard's resume
    data, materializing any virtualized allocations.

    {!run} executes continuation-threaded code: the op array is
    translated once ({!precompile}) into pre-bound step closures, each
    holding its successor's step, cached in the context's code cache
    keyed by trace id, and invalidated when a bridge attachment bumps
    the trace's [code_version].  {!run_ref} is the reference
    interpreting loop with identical semantics and identical
    simulated-machine charging (the differential tests hold the two to
    byte-identical counters); both enter a trace and a bridge, and leave
    JIT code, through the same definitions.

    {b The state of trace code is its register file.}  Nothing else
    changes while a trace runs: each op's cost, operands, continuation,
    fail path and boundary resume are fixed when the trace is
    translated.  The ownership rule:
    - a register file belongs to the trace running on it, which alone
      reads and writes it, and it is the GC root set while that trace
      runs;
    - leaving that trace ends its use: a bridge entry or
      [call_assembler] switch gives the target a register file of its
      own, and a back-edge refills the same file;
    - deopt, finish and the tier-up exit only read from it or copy out
      of it, so no exit hands out the file or an array it lives on.

    {b The bytecode boundary.}  An ordinary op that raises a language
    error, or a [call_assembler] to a trace that is not registered,
    fails partway through its bytecode.  It deoptimizes to the resume of
    the last merge point before it in its segment: for the op at [i],
    ops 0 to [i - 1] in the preamble and [loop_start] to [i - 1] in the
    loop.  Where the segment has none, the language error propagates
    out of the executor.  The rule is
    static: it carries nothing across a back-edge or into the trace a
    bridge entry or switch continues in.

    {b The discard flag.}  A frame whose [df_discard] is set returns a
    value its caller drops (a pylite constructor's [__init__]).  Resume
    data carries the flag each frame had when the trace was recorded,
    and an inlined frame keeps it.  The outermost frame of a traced
    region returns to the frame below the region instead, so its flag
    is that of the frame that entered the region, which the driver
    gives it on every way out.  One loop can be entered from a
    constructor call and from a direct call of the same function, so
    the flag a trace recorded for its outermost frame decides nothing;
    the tier-up exit carries no flag at all. *)

type deopt_frame = {
  df_code : int;             (** interpreter code_ref *)
  df_pc : int;               (** bytecode pc to re-execute from *)
  df_locals : Mtj_rt.Value.t array;
  df_stack : Mtj_rt.Value.t array;
  df_discard : bool;
      (** the frame's return value is discarded; see the discard rule *)
}

(** How JIT code was left.  Each exit annotates [Trace_exit] of the
    trace it left, after its own work. *)
type exit_state =
  | Finished of Mtj_rt.Value.t
      (** a trace ended with [finish]: the traced region returned this
          value to its caller *)
  | Deopt of {
      frames : deopt_frame list;  (** outermost first *)
      guard : Ir.guard option;
          (** the failed guard; [None] at the bytecode boundary *)
      trace : Ir.trace;
          (** the trace left, which holds [guard] (execution may have
              switched traces since entry); the driver invalidates its
              cached threaded code when attaching a bridge to the guard *)
      request_bridge : bool;
          (** [guard] is bridgeable, has no bridge and failed often
              enough to deserve one *)
    }
  | Tier_up of Mtj_rt.Value.t array
      (** a tier-1 loop reached its promotion point at its back-edge:
          the locals at the loop header, where the region was entered,
          for the driver's tier-up decision *)

val materialize_frames :
  Mtj_rt.Ctx.t -> Ir.resume -> Mtj_rt.Value.t array -> deopt_frame list
(** Rebuild interpreter frames from resume data and the current register
    file, allocating any virtual objects described by the resume's
    descriptors (shared descriptors materialize once, cycles are fine).
    Frames are materialized outermost first, each frame's stack before
    its locals; the order shows in the simulated heap. A guard's jump
    into an attached bridge writes the same values, in the same order,
    straight into the bridge's register file, and a recording that
    aborts restores its current bytecode's resume through this, over
    the recorder's registers. *)

val guard_test : Ir.guard -> ('e -> Mtj_rt.Value.t) array -> 'e -> bool
(** A guard's condition, staged: [guard_test g readers] binds the
    operand readers once and returns the test over the environment they
    read.  Both executor loops evaluate guards through it. *)

val blackhole :
  Mtj_rt.Ctx.t ->
  Ir.resume ->
  Mtj_rt.Value.t array ->
  guard_id:int ->
  deopt_frame list
(** {!materialize_frames} wrapped in the blackhole phase with the
    deoptimization cost model (resume-chain walking, poor prediction). *)

val precompile : Mtj_rt.Ctx.t -> Jitlog.t -> Ir.trace -> unit
(** Translate [trace] into continuation-threaded code and install it in
    the context's code cache (the backend calls this at compile time, so
    the first entry is already a cache hit).  Host-side work only:
    charges nothing to the simulated machine. *)

val run :
  Mtj_rt.Ctx.t ->
  Jitlog.t ->
  trace:Ir.trace ->
  entry:Mtj_rt.Value.t array ->
  exit_state
(** Execute a compiled trace from its entry, with [entry] filling the
    first [trace.entry_slots] registers of a fresh register file. Returns
    how JIT code was left.  The live register file is a GC root for the
    duration.  Runs
    the continuation-threaded form out of the context's code cache,
    re-translating when the trace's [code_version] moved: it calls the
    trace's first step, and the chain of tail calls that follows —
    each step into its successor, a back-edge into the loop head, a
    bridge entry or trace switch into the target's first step — returns
    only at an exit, in constant host stack. *)

val run_ref :
  Mtj_rt.Ctx.t ->
  Jitlog.t ->
  trace:Ir.trace ->
  entry:Mtj_rt.Value.t array ->
  exit_state
(** Reference executor: interprets the trace IR directly, re-matching
    each op and staging its definition on every iteration, with its
    own instruction pointer and dispatch loop.  It runs the same op,
    guard, entry and exit definitions as {!run} and charges the
    simulated machine identically; kept as the differential tests'
    oracle for what {!run} adds on top: pre-bound fail paths, boundary
    resumes bound at translation (it tracks the last merge point of
    the segment as it runs), the code cache and continuation-passing
    control flow. *)
