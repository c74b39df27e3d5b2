(** The execution target.

    Every VM in this reproduction — reference interpreters, the
    RPython-style interpreter, JIT-compiled trace code, the GC, the
    blackhole deoptimizer, native baselines — performs its semantic work
    in OCaml and charges the corresponding machine work here: instruction
    bundles, individual branch events (fed to the predictor), heap
    accesses (fed to the cache model) and zero-cost cross-layer
    annotations (delivered to listeners, playing the role of the paper's
    PinTool intercepting tagged [nop]s).

    Cycle model: a bundle of [n] instructions issued under phase [p]
    costs [n / width(p)] cycles; a mispredicted branch adds a fixed
    pipeline-flush penalty; a cache miss adds a fixed stall.  Widths for
    interpreter-style phases come from the running VM's {!Mtj_core.Profile};
    widths for JIT/GC/blackhole phases are properties of that code style. *)

exception Budget_exhausted
(** Raised when the configured instruction budget is reached; the harness
    catches it to end a run (the paper runs each benchmark for a fixed
    10 B instructions). *)

type t

type listener = insns:int -> Mtj_core.Annot.t -> unit
(** Called for every annotation of the kinds it attached for, with the
    current total instruction count. *)

type mark_listener = insns:int -> ticks:int -> int
(** Called at the first tick at which the instruction count is at or
    past the listener's mark, with that count and the tick count (this
    tick included); returns the listener's next mark.  A mark listener
    that returns 0 hears every tick. *)

val create : ?config:Mtj_core.Config.t -> unit -> t
(** A fresh engine: no instructions, cycles, ticks or counts, the
    interpreter phase, no listeners, and predictor and d-cache tables in
    their initial state.  The tables are those of the last engine
    {!release}d on this domain, reset, when there is one; otherwise new
    ones. *)

val release : t -> unit
(** Hand [t]'s predictor and d-cache tables to the next {!create} on
    this domain, which resets them.  This must be [t]'s last use:
    afterwards its tables belong to another engine, so reading or
    charging [t] would read or change that engine's state.  A second
    release of [t] does nothing.  An engine that is never released is
    collected as any value is; its tables are just not reused. *)

val set_interp_width : t -> float -> unit
(** Install the effective issue width used while in the [Interpreter],
    [Tracing] and [Native] phases (from the VM's profile). *)

(* --- charging work --- *)

val emit : t -> Mtj_core.Cost.t -> unit
(** Charge a bundle of non-branch instructions to the current phase. *)

val branch : t -> site:int -> taken:bool -> unit
(** A conditional branch at code site [site]. *)

val branch_indirect : t -> site:int -> target:int -> unit
(** An indirect branch (dispatch, call_assembler, virtual call). *)

val mem_access : t -> addr:int -> write:bool -> unit
(** A heap access: charges one load or store instruction and consults the
    data-cache model. *)

(* --- phases --- *)

val push_phase : t -> Mtj_core.Phase.t -> unit
val pop_phase : t -> unit
val current_phase : t -> Mtj_core.Phase.t
val in_phase : t -> Mtj_core.Phase.t -> (unit -> 'a) -> 'a
(** [in_phase t p f] runs [f] with [p] pushed, popping even on exception. *)

(* --- annotations / instrumentation --- *)

val annot : t -> Mtj_core.Annot.t -> unit
(** Emit a cross-layer annotation (zero machine cost): deliver it to the
    listeners attached for its {!Mtj_core.Annot.kind}. *)

val tick : t -> unit
(** One dispatch tick: one unit of application-level work completed,
    i.e. one iteration of the interpreter dispatch loop, or (in
    JIT-compiled code) one bytecode-level merge point crossed.  It is
    the paper's work measure, inserted at the interpreter layer, that
    makes warmup curves and break-even points observable (Sec. IV,
    Fig. 5).  A tick is a count, not an annotation: it adds one to
    {!ticks} and, once the instruction count has reached the lowest
    mark any {!mark_listener} asked for, calls each one whose mark it
    has reached.  Between marks a tick is one increment and one
    compare; {!add_mark_listener} is the only way to hear one. *)

val add_listener : ?kinds:Mtj_core.Annot.kind list -> t -> listener -> unit
(** Attach [l] for the annotation [kinds] it reads (default: every
    kind).  [l] then receives exactly the annotations of those kinds, in
    emission order; among the listeners of one kind it is delivered
    before those attached earlier.

    Contract: attachment is RARE (harness/tool setup), delivery is the
    HOT path (every annotation).  The engine keeps one newest-first
    array per kind, rebuilt on attach, so an annotation with no listener
    costs one array-length test and delivery is a tight scan with no
    per-annotation allocation.  Listeners must not attach further
    listeners from inside a delivery.  No kind holds the dispatch
    tick: see {!add_mark_listener}. *)

val add_mark_listener : t -> mark:int -> mark_listener -> unit
(** Call [l] at the first tick at or past instruction count [mark], and
    from then on at the first tick at or past each mark it returns.  A
    returned mark at or below the current count calls it again at the
    next tick, so a listener registered at mark 0 that always returns 0
    hears every tick.  Rare, like {!add_listener}, and under the same
    rule: not from inside a delivery. *)

(* --- observation --- *)

val total_insns : t -> int
val total_cycles : t -> float
val counters : t -> Counters.t

val ticks : t -> int
(** The ticks counted since {!create}, listened to or not. *)

val config : t -> Mtj_core.Config.t
val predictor : t -> Predictor.t
val dcache : t -> Dcache.t
