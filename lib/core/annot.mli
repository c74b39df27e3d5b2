(** Cross-layer annotations.

    The paper's central methodological contribution (Sec. IV): events of
    interest are annotated at a {e higher} layer (application, interpreter,
    JIT framework, JIT backend) and intercepted at a {e lower} layer.  On
    real hardware the annotation is a tagged [nop] x86 instruction observed
    by a Pin tool; here it is a zero-cost pseudo-instruction carried in the
    simulated instruction stream and delivered to the listeners registered
    on the machine engine (see {!Mtj_machine.Engine}). *)

type t =
  | Phase_push of Phase.t
      (** Enter a framework phase (framework layer).  Phases nest, e.g. a
          GC can interrupt JIT code, an AOT call is made from JIT code. *)
  | Phase_pop of Phase.t
      (** Leave the phase pushed by the matching {!Phase_push}. *)
  | Dispatch_tick
      (** One unit of application-level work completed: one iteration of
          the interpreter dispatch loop, or (in JIT-compiled code) one
          bytecode-level merge point crossed.  Inserted at the interpreter
          layer; this is the work measure that makes warmup curves and
          break-even points observable (Sec. IV, Fig. 5). *)
  | Aot_enter of int  (** Entering AOT-compiled runtime function [id]. *)
  | Aot_exit of int   (** Leaving AOT-compiled runtime function [id]. *)
  | Trace_enter of int  (** Execution enters compiled trace [id]. *)
  | Trace_exit of int   (** Execution leaves compiled trace [id]. *)
  | Trace_compile of int
      (** The backend finished assembling trace [id] (loop or bridge);
          emitted under the [Tracing] phase, at the end of the compile. *)
  | Trace_abort of int
      (** A recording session aborted; the payload is the [code_ref] of
          the loop header the session started from. *)
  | Guard_fail of int   (** Guard [id] failed; deoptimization follows. *)
  | App_marker of int
      (** Application-level annotation emitted through the language-level
          API (e.g. [annotate(n)] in pylite). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
