(** Cross-layer annotations.

    The paper's central methodological contribution (Sec. IV): events of
    interest are annotated at a {e higher} layer (application, interpreter,
    JIT framework, JIT backend) and intercepted at a {e lower} layer.  On
    real hardware the annotation is a tagged [nop] x86 instruction observed
    by a Pin tool; here it is a zero-cost pseudo-instruction carried in the
    simulated instruction stream and delivered to the listeners registered
    for its {!kind} on the machine engine (see {!Mtj_machine.Engine}).

    Like the paper's [nop]s, annotations should not perturb the VM they
    measure, so the frequent ones allocate nothing: each phase's
    push/pop value is built once by the engine, each AOT function's
    enter/exit value once at registration ({!Mtj_rt.Aot}), and each
    compiled trace's enter/exit value once by the backend
    ([Mtj_rjit.Ir.trace]).  The paper's most frequent annotation, the
    dispatch tick, is not a value here: the engine counts it
    ({!Mtj_machine.Engine.tick}) and wakes its mark listeners only at
    the instruction marks they ask for. *)

type t =
  | Phase_push of Phase.t
      (** Enter a framework phase (framework layer).  Phases nest, e.g. a
          GC can interrupt JIT code, an AOT call is made from JIT code. *)
  | Phase_pop of Phase.t
      (** Leave the phase pushed by the matching {!Phase_push}. *)
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

(** The groups of annotations a listener reads together.  A listener
    names the kinds it reads when it attaches
    ({!Mtj_machine.Engine.add_listener}), and the engine delivers each
    annotation only to the listeners of its kind. *)
type kind =
  | Phases     (** {!Phase_push} and {!Phase_pop} *)
  | Aot_calls  (** {!Aot_enter} and {!Aot_exit} *)
  | Traces
      (** {!Trace_enter}, {!Trace_exit}, {!Trace_compile},
          {!Trace_abort} and {!Guard_fail} *)
  | Markers    (** {!App_marker} *)

val kind : t -> kind

val kinds : kind list
(** Every kind. *)

val kind_index : kind -> int
(** Stable dense index of a kind, for per-kind arrays. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
