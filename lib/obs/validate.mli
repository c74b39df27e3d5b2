(** Structural validators for the exported JSON documents.

    Each validator takes a parsed {!Json.t} document, checks the schema
    tag and the format invariants, and either returns summary statistics
    or a description of the first violation.  They are pure consumers of
    the JSON — no access to the producing run — so the round-trip tests
    and the CI artifact check exercise exactly what an external tool
    (Perfetto, a results archive) would read. *)

type trace_stats = {
  events : int;  (** traceEvents entries, metadata included *)
  track_names : string list;
      (** the names [thread_name] metadata declares, in document order *)
  duration_tracks : int;  (** distinct [tid]s carrying B/E spans *)
  counter_tracks : int;  (** distinct counter-event names *)
  instants : int;
  auto_closed : int;  (** spans the exporter closed at end-of-run *)
  phase_self_cycles : (string * float) list;
      (** self time per phase name, from the [phase]/[gc] span stream,
          innermost-phase attribution (what {!Mtj_machine.Counters}
          charges); display order of {!Mtj_core.Phase.all} *)
}

val trace : Json.t -> (trace_stats, string) result
(** Check a ["mtj-trace/1"] document: schema tag, required event fields,
    per-[tid] B/E balance (every E matches an open B, nothing left open),
    spans only on [tid]s a [thread_name] metadata event declares,
    globally non-decreasing timestamps, and counter values that are
    finite and non-negative. *)

val metrics : Json.t -> (int, string) result
(** Check a ["mtj-metrics/12"] document; returns the number of run
    records.  Verifies each run's required fields, that rate fields lie
    in [0, 1], that the per-phase instruction counts sum to the run's
    ["total"] row, and the multi-tier JIT accounting: tier-1 + tier-2
    compiles partition the traces, promotions/demotions are bounded by
    the tier compile counts, the first-entry warmup latch lies within
    the run and is set exactly when some trace row counts an entry, and
    per-tier residency equals the per-trace row sums. *)

val timings : Json.t -> (int, string) result
(** Check a ["mtj-bench-timings/2"] document; returns the number of run
    rows.  Verifies the experiment and run records carry non-negative
    wall-clock seconds and host minor-heap allocation counts. *)
