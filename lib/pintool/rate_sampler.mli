(** Bytecode-execution-rate sampler (interpreter-level characterization,
    Sec. V-D / Figure 5).

    Reads the engine's dispatch-tick count ({!Mtj_machine.Engine.ticks})
    — one tick per dispatch-loop iteration in the interpreter, one per
    bytecode-level merge point in JIT-compiled code — and records it at
    fixed instruction-count boundaries.  Comparing two VMs' curves at
    equal instruction counts gives the warmup break-even points,
    precisely and without perturbing the measured VM (the paper's key
    argument for the methodology). *)

type t

val attach : ?window:int -> Mtj_machine.Engine.t -> t
(** Ask the engine for its window marks
    ({!Mtj_machine.Engine.add_mark_listener}), so the ticks between
    marks cost the sampler nothing.  [window] is the sampling interval
    in instructions (default {!Mtj_core.Config.sample_window}); the first
    sample falls on the first multiple of [window] past the engine's
    instruction count at attach time. *)

val finalize : t -> unit
(** Record the final partial window. *)

val ticks : t -> int
(** Dispatch ticks since attach ("work" completed): the engine's tick
    count, less its value at attach. *)

val samples : t -> (int * int) array
(** [(insns, cumulative_ticks)] at each window boundary, ascending: the
    boundary, and the ticks since attach at the first tick at or past
    it ({!finalize} adds the closing pair). *)

val interpolate : (int * int) array -> int -> int
(** [interpolate samples insns]: cumulative ticks at the given
    instruction count over [samples] as {!samples} returns them (linear
    interpolation between samples, and from the origin before the
    first; saturates at the end). *)

val ticks_at : t -> int -> int
(** [ticks_at t insns] is [interpolate (samples t) insns]. *)

val break_even : t -> against:t -> int option
(** [break_even fast ~against:slow] finds the first instruction count at
    which [fast]'s cumulative work catches up with [against]'s — the
    paper's break-even point (Fig. 5 dashed/dotted lines).  [None] if it
    never catches up within the recorded run. *)
