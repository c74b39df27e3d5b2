(** Trace executor: runs compiled trace code against the machine model.

    Executes the trace's operations on concrete values while charging
    each node's pre-lowered cost, evaluating guards, following attached
    bridges on guard failure, and switching into other compiled traces
    at [call_assembler] back-edges. On a guard failure with no bridge it
    deoptimizes: the blackhole interpreter (Phase [Blackhole], Table IV's
    worst-IPC phase) rebuilds interpreter frames from the guard's resume
    data, materializing any virtualized allocations.

    {!run} executes closure-threaded code: the op array is translated
    once ({!precompile}) into pre-bound step closures, cached in the
    context's code cache keyed by trace id, and invalidated when a
    bridge attachment bumps the trace's [code_version].  {!run_ref} is
    the reference interpreting loop with identical semantics and
    identical simulated-machine charging (the differential tests hold
    the two to byte-identical counters). *)

type deopt_frame = {
  df_code : int;             (** interpreter code_ref *)
  df_pc : int;               (** bytecode pc to re-execute from *)
  df_locals : Mtj_rt.Value.t array;
  df_stack : Mtj_rt.Value.t array;
  df_discard : bool;         (** the frame's return value is discarded *)
}

type exit_state = {
  frames : deopt_frame list;  (** outermost first; empty on [finished] *)
  failed_guard : Ir.guard option;
  failed_in : Ir.trace option;
      (** the trace the failing guard belongs to (execution may have
          switched traces since entry); the driver invalidates its
          cached threaded code when attaching a bridge to the guard *)
  request_bridge : bool;
      (** the failed guard is hot enough to deserve a bridge *)
  finished : Mtj_rt.Value.t option;
      (** a trace ended with [finish]: the traced region returned this
          value to its caller *)
}

val materialize_frames :
  Mtj_rt.Ctx.t -> Ir.resume -> Mtj_rt.Value.t array -> deopt_frame list
(** Rebuild interpreter frames from resume data and the current register
    file, allocating any virtual objects described by the resume's
    descriptors (shared descriptors materialize once, cycles are fine).
    Frames are materialized outermost first, each frame's stack before
    its locals; the order shows in the simulated heap. A guard's jump
    into an attached bridge writes the same values, in the same order,
    straight into the bridge's register file. *)

val guard_holds : Ir.guard -> Mtj_rt.Value.t array -> bool
(** Evaluate a guard's condition against its argument values. *)

val blackhole :
  Mtj_rt.Ctx.t ->
  Ir.resume ->
  Mtj_rt.Value.t array ->
  guard_id:int ->
  deopt_frame list
(** {!materialize_frames} wrapped in the blackhole phase with the
    deoptimization cost model (resume-chain walking, poor prediction). *)

val precompile : Mtj_rt.Ctx.t -> Jitlog.t -> Ir.trace -> unit
(** Translate [trace] into closure-threaded code and install it in the
    context's code cache (the backend calls this at compile time, so the
    first entry is already a cache hit).  Host-side work only: charges
    nothing to the simulated machine. *)

val run :
  Mtj_rt.Ctx.t ->
  Jitlog.t ->
  trace:Ir.trace ->
  entry:Mtj_rt.Value.t array ->
  exit_state
(** Execute a compiled trace from its entry, with [entry] filling the
    first [trace.entry_slots] registers. Returns how JIT code was left:
    a finished region, or frames to continue from in the interpreter
    (with [request_bridge] set when the failing guard crossed the bridge
    threshold). The register file is a GC root for the duration.  Runs
    the closure-threaded form out of the context's code cache,
    re-translating when the trace's [code_version] moved. *)

val run_ref :
  Mtj_rt.Ctx.t ->
  Jitlog.t ->
  trace:Ir.trace ->
  entry:Mtj_rt.Value.t array ->
  exit_state
(** Reference executor: interprets the trace IR directly (re-matching
    opcodes and re-decoding operands each iteration).  Semantically
    identical to {!run}, including every charge to the simulated
    machine; kept as the oracle for the differential tests. *)
