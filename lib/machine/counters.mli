(** Per-phase performance counters (the PAPI/perf substitute).

    Tracks instructions, cycles, branches, branch misses, loads, stores
    and cache misses, attributed to the framework phase that was current
    when the work was charged.  Derived metrics (IPC, branch MPKI, branch
    rate, miss rate) feed Table I, Table IV and the per-phase
    microarchitecture analysis. *)

type t

type snapshot = {
  insns : int;
  cycles : float;
  branches : int;
  branch_misses : int;
  loads : int;
  stores : int;
  cache_misses : int;
}

val create : unit -> t

(* --- charging (used by Engine) ---

    Each call adds into the slots of phase index [i], which must be a
    valid [Phase.index] (the Engine passes its cached current-phase
    index; the slots are bounds-checked).  [add_bundle_idx] takes the
    bundle pre-decomposed so callers with preinterned costs skip the
    record walk.  The three are [[@inline]]: in a build without
    [-opaque] they inline into Engine's charge paths and [~cycles] never
    boxes; under [-opaque] each call boxes it (2 host words per
    charge). *)

val add_bundle_idx :
  t -> int -> n:int -> loads:int -> stores:int -> cycles:float -> unit

val add_branch_idx : t -> int -> mispredicted:bool -> cycles:float -> unit
val add_cache_miss_idx : t -> int -> cycles:float -> unit

(* --- queries --- *)

val phase : t -> Mtj_core.Phase.t -> snapshot
val total : t -> snapshot
val ipc : snapshot -> float
(** instructions per cycle; 0 when no cycles elapsed *)

val branch_mpki : snapshot -> float
(** branch misses per 1000 instructions *)

val branch_per_insn : snapshot -> float
val branch_miss_rate : snapshot -> float
(** fraction of branches mispredicted *)
