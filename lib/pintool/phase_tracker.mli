(** Phase timeline tracker (the custom PinTool of Sec. IV/V-B).

    Listens to the [Phases] kind ([Phase_push]/[Phase_pop] annotations)
    of the instruction stream, and only to it, and builds (a) total instructions per phase — Figures 2 and 4 —
    and (b) a bucketed timeline of phase occupancy over the run —
    Figure 3.  Totals here are measured {e from the annotation stream},
    independently of {!Mtj_machine.Counters}; tests cross-check the two. *)

type t

val attach : ?bucket_insns:int -> Mtj_machine.Engine.t -> t
(** Register on the engine.  [bucket_insns] is the timeline resolution
    (default 50_000 instructions per bucket).  Instructions the engine
    ran before the attach are booked to their phases as its
    {!Mtj_machine.Counters} hold them, so the totals equal the counters
    however late the tracker attaches; within that prefix the timeline
    takes the phases in {!Mtj_core.Phase.all} order. *)

val finalize : t -> unit
(** Account the tail segment between the last phase event and the current
    instruction count.  Call once, after the run completes. *)

val phase_insns : t -> Mtj_core.Phase.t -> int
(** Instructions observed under the phase (after {!finalize}). *)

val total_insns : t -> int

val fraction : t -> Mtj_core.Phase.t -> float
(** Share of total instructions spent in the phase. *)

val timeline : t -> (Mtj_core.Phase.t * float) array array
(** One entry per bucket; each entry gives per-phase occupancy fractions
    for that instruction window (entries for phases with zero occupancy
    are omitted). *)

val bucket_insns : t -> int
