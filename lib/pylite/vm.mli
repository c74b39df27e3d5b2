(** The pylite virtual machine: a CPython-style bytecode interpreter for
    a Python subset, written once against the {!Mtj_rjit.Ops_intf.OPS}
    seam and driven by the generic meta-tracing JIT
    ({!Mtj_rjit.Driver.Make}).

    The same VM models both sides of Table I: with
    {!Mtj_core.Profile.cpython} and the JIT disabled it stands in for
    CPython; with {!Mtj_core.Profile.rpython_interp} it is the
    RPython-translated interpreter, with or without the meta-tracing
    JIT ({!Mtj_core.Config.jit_enabled}).

    Only the language's accessors and predefined globals are pylite's
    own: everything below is {!Mtj_rjit.Lang_vm.Make}, which
    {!Mtj_rklite.Kvm} applies too.

    {[
      let vm = Vm.create ~config:Mtj_core.Config.default () in
      match Vm.run_source vm "print(1 + 2)" with
      | Mtj_rjit.Driver.Completed _ -> print_string (Vm.output vm)
      | _ -> prerr_endline "failed"
    ]} *)

type t

val create :
  ?config:Mtj_core.Config.t -> ?profile:Mtj_core.Profile.t -> unit -> t
(** Fresh VM: its own machine engine, GC, globals (with builtins and the
    [math] module bound) and JIT driver. [profile] sets the interpreter's
    cost model (default {!Mtj_core.Profile.rpython_interp}). *)

val compile : string -> Bytecode.code
(** Compile source to bytecode. Raises {!Parser.Syntax_error} or
    {!Compiler.Compile_error} on invalid programs. VM-independent: code
    objects live in this domain's {!Code_table}, keyed by [code_ref]. *)

val run_code : t -> Bytecode.code -> Mtj_rjit.Driver.outcome
val run_source : t -> string -> Mtj_rjit.Driver.outcome

type bundle
(** Everything one source string compiles to — the entry code object,
    every registered code object and the id watermark.  Immutable
    bytecode with scalar constants only, so a bundle is context-free:
    it may be published to {!Mtj_rjit.Sharedcache} and imported by a VM
    on any domain, and a warm (imported) run's simulated counters are
    byte-identical to a cold (compiled) run's. *)

val compile_bundle : string -> bundle
(** Compile source and snapshot the resulting code-table state.  Call
    on a freshly created VM's domain (the table must hold exactly this
    program). *)

val import_bundle : t -> bundle -> unit
(** Re-register a bundle's code objects into this domain's table,
    replacing its contents.  Must run right after {!create} (which
    reset the table), before the VM executes anything. *)

val run_bundle : t -> bundle -> Mtj_rjit.Driver.outcome
(** Run a bundle's entry code ({!import_bundle} first on warm VMs). *)

val bundle_size : bundle -> int
(** Number of code objects in the bundle (what a warm request records
    as shared-cache code hits). *)

val export_profile : t -> Mtj_rjit.Traceprofile.t
(** Snapshot this VM's learned trace profile — compiled loop sites
    (with their converged tier) and threaded-translated code refs —
    as a context-free artifact for {!Mtj_rjit.Sharedcache}.  Call after
    an unseeded run so the profile is deterministic per program and
    config. *)

val seed_profile : t -> Mtj_rjit.Traceprofile.t -> unit
(** Seed a fresh VM from a publisher's profile: hot loop sites start
    one header visit short of the tracing threshold (carrying the
    publisher's promotion decision as a hint) and profiled code objects
    are translated to threaded step arrays up front.  Must run after
    {!import_bundle}, before the VM executes anything.  Changes only
    when the simulated machine traces, never program output. *)

val run :
  ?config:Mtj_core.Config.t ->
  ?profile:Mtj_core.Profile.t ->
  string ->
  Mtj_rjit.Driver.outcome * t
(** Convenience: fresh VM, compile and run, return the outcome and the
    VM for inspection. *)

val output : t -> string
(** Everything the program printed (kept off stdout for the harness). *)

val rtc : t -> Mtj_rt.Ctx.t
val engine : t -> Mtj_machine.Engine.t
val jitlog : t -> Mtj_rjit.Jitlog.t
val globals : t -> Mtj_rjit.Globals.t
