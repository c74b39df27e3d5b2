(** The rklite virtual machine: a Scheme-subset interpreter with proper
    tail calls, written against the {!Mtj_rjit.Ops_intf.OPS} seam and
    driven by the same generic meta-tracing JIT as pylite — the
    Pycket-on-Racket half of Table II and Figure 4.

    Self tail calls compile to an in-frame jump whose target is a loop
    header the JIT can trace; cons pairs are two-field instances of the
    pre-installed [%pair] class, so they participate in escape analysis
    like any other allocation. With {!Mtj_core.Profile.racket_custom}
    and the JIT disabled the VM stands in for the Racket reference
    implementation.

    Only the language's accessors and the [%pair] class are rklite's
    own: everything below is {!Mtj_rjit.Lang_vm.Make}, the same
    functor {!Mtj_pylite.Vm} applies, so its documentation holds here
    word for word. *)

type t

val create :
  ?config:Mtj_core.Config.t -> ?profile:Mtj_core.Profile.t -> unit -> t

val compile : string -> Kbytecode.code
(** Compile a program (sequence of toplevel forms). Raises
    {!Reader.Syntax_error} or {!Kcompiler.Compile_error}. *)

val run_code : t -> Kbytecode.code -> Mtj_rjit.Driver.outcome
val run_source : t -> string -> Mtj_rjit.Driver.outcome

type bundle
(** A compiled program as a context-free artifact
    ({!Mtj_pylite.Vm.bundle}). *)

val compile_bundle : string -> bundle
val import_bundle : t -> bundle -> unit
val run_bundle : t -> bundle -> Mtj_rjit.Driver.outcome
val bundle_size : bundle -> int

val export_profile : t -> Mtj_rjit.Traceprofile.t
(** {!Mtj_pylite.Vm.export_profile}. *)

val seed_profile : t -> Mtj_rjit.Traceprofile.t -> unit
(** {!Mtj_pylite.Vm.seed_profile}: call after {!import_bundle}, before
    the VM runs. *)

val run :
  ?config:Mtj_core.Config.t ->
  ?profile:Mtj_core.Profile.t ->
  string ->
  Mtj_rjit.Driver.outcome * t

val output : t -> string
val rtc : t -> Mtj_rt.Ctx.t
val engine : t -> Mtj_machine.Engine.t
val jitlog : t -> Mtj_rjit.Jitlog.t
val globals : t -> Mtj_rjit.Globals.t
