(** Low-overhead structured event sink.

    Attaches to a machine engine as an ordinary annotation listener and
    records the cross-layer event stream — phase pushes/pops (framework,
    GC, blackhole), compiled-trace enters/exits, guard failures, trace
    compiles/aborts, application markers — into a flat buffer that
    doubles as it fills, timestamped with the simulated instruction and
    cycle counts at the moment each event fired.  Alongside the event
    stream it takes periodic counter samples (engine counter snapshots
    + dispatch-tick totals) from which the exporters derive IPC /
    miss-rate / work-rate counter tracks.  It counts no tick itself: it
    reads the engine's count ({!Mtj_machine.Engine.ticks}), and hears
    a tick only at its next sample mark, as a mark listener.

    Disabled by default: a run only pays for the sink when one is
    attached.  When attached, the per-event cost is a handful of array
    stores — no allocation on the hot path but the buffer's doublings
    (from 1,024 events) and the counter samples, taken every
    [counter_window] instructions. *)

type t

(** Event kinds, in the order they appear in the stream. *)
type kind =
  | Phase_begin of Mtj_core.Phase.t
  | Phase_end of Mtj_core.Phase.t  (** carries the phase that was popped *)
  | Trace_enter of int
  | Trace_exit of int
  | Guard_fail of int
  | Trace_compile of int
  | Trace_abort of int  (** payload: code ref of the aborted loop header *)
  | Marker of int       (** application-level [annotate(n)] *)

type event = { kind : kind; at_insns : int; at_cycles : float }

(** One periodic counter sample: cumulative totals at the sample point. *)
type sample = {
  s_insns : int;
  s_cycles : float;
  s_ticks : int;  (** dispatch ticks since attach *)
  s_counters : Mtj_machine.Counters.snapshot;  (** engine totals *)
}

val attach :
  ?capacity:int -> ?counter_window:int -> Mtj_machine.Engine.t -> t
(** Register on the engine, for every annotation kind, and as a mark
    listener at each sample mark.  [capacity] bounds the event buffer
    (default [1 lsl 18] events), which starts at 1,024 events, or
    [capacity] if smaller, and doubles up to it; once [capacity] events
    are stored, further events are counted in {!dropped} but not
    stored, so the recorded prefix stays well-formed.
    [counter_window] is the counter-sampling interval in instructions
    (default: the engine configuration's [sample_window]): the first
    annotation or tick at or past the next mark takes a sample, and the
    mark moves up by one window. *)

val finalize : t -> unit
(** Record the final timestamps and a closing counter sample.  Call once
    after the run completes; idempotent. *)

(* --- observation (used by the exporters) --- *)

val events : t -> event array
(** The recorded events, oldest first.  Allocates; call after the run. *)

val iter_events : t -> (event -> unit) -> unit
val samples : t -> sample list
(** Counter samples, oldest first.  The first sample is the baseline
    taken at attach time; {!finalize} appends a closing sample. *)

val num_events : t -> int
val dropped : t -> int

val ticks : t -> int
(** Dispatch ticks since attach: the engine's count, less its value at
    attach. *)

val start_phase : t -> Mtj_core.Phase.t
(** The engine's current phase when the sink attached (the root span). *)

val start_insns : t -> int
val start_cycles : t -> float
val end_insns : t -> int
val end_cycles : t -> float
val engine : t -> Mtj_machine.Engine.t
