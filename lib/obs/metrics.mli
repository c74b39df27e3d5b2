(** Metrics registry: versioned JSON export of the cross-layer counters.

    Gathers what the textual [--timings] report prints — per-phase
    machine counters with their derived rates, GC statistics, the JIT
    log's per-trace rows and machinery counters — into one
    machine-readable document, so experiment results can be archived and
    diffed without scraping terminal tables. *)

val schema : string
(** ["mtj-metrics/12"]; written to the document's ["schema"] field. *)

val snapshot_json : Mtj_machine.Counters.snapshot -> Json.t
(** Raw counters plus the derived rates ([ipc], [branch_mpki],
    [branch_miss_rate], [cache_miss_rate]). *)

val phases_json : Mtj_machine.Counters.t -> Json.t
(** Object mapping each phase name (plus ["total"]) to its
    {!snapshot_json}.  Phases that saw no instructions are omitted. *)

val gc_json : Mtj_rt.Gc_sim.stats -> Json.t

val trace_row_json : Mtj_rjit.Ir.trace -> Json.t
(** One row per compiled trace: id, kind (["loop"]/["bridge"]), tier,
    static op count, entry count and dynamic IR executions. *)

val jitlog_json : Mtj_rjit.Jitlog.t -> Json.t
(** Machinery counters (aborts, deopts, bridges, blacklists, retiers),
    multi-tier accounting (per-tier compiles, demotions, the
    first-entry warmup latch, per-tier residency), aggregate IR
    statistics and the per-trace rows. *)

val run_json :
  bench:string ->
  config:string ->
  status:string ->
  engine:Mtj_machine.Engine.t ->
  ?jitlog:Mtj_rjit.Jitlog.t ->
  ?gc:Mtj_rt.Gc_sim.stats ->
  unit ->
  Json.t
(** The full record for one benchmark run.  Its [ticks] is the
    engine's dispatch-tick count ({!Mtj_machine.Engine.ticks}).  Every
    field is simulated state: the record holds no host-side counter. *)

val document : ?serve:Json.t -> runs:Json.t list -> unit -> Json.t
(** Wrap run records into the versioned top-level document.  [serve],
    when given, becomes the optional top-level ["serve"] block (a
    serving session's latency/throughput/shared-cache summary, built by
    the harness; see OBS_SCHEMA.md). *)

val write : ?serve:Json.t -> file:string -> runs:Json.t list -> unit -> unit
