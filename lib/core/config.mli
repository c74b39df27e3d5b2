(** Global configuration of the meta-tracing framework and the simulation.

    The paper's PyPy uses a loop threshold of 1039 iterations and runs
    benchmarks for 10 billion instructions; we scale workloads down to a
    few million simulated instructions, so thresholds scale too
    (documented in DESIGN.md Sec. 4). *)

(** How the driver distributes compilation work across trace tiers
    (DESIGN.md Sec. 3j, after Izawa & Bolz-Tereick's multi-tier method):

    - [Optimizing]: the classic single-tier tracer — every trace runs
      the full optimizer pipeline at [jit_threshold];
    - [Baseline]: tier-1 only — cheap unoptimized compiles at the low
      [tier1_threshold], never promoted;
    - [Adaptive]: baseline compiles early, promotion to the optimizing
      tier once a trace is hot {e and} its guard-fail profile is stable,
      demotion back to tier 1 when bridges proliferate on an optimized
      loop. *)
type tier_policy = Optimizing | Baseline | Adaptive

type t = {
  (* --- JIT driver --- *)
  jit_threshold : int;
      (** loop-header executions before tracing starts (PyPy: 1039) *)
  bridge_threshold : int;
      (** guard failures before a bridge is traced (PyPy: 200, scaled) *)
  retrace_limit : int;
      (** trace aborts at a loop header before the header is blacklisted *)
  max_trace_ops : int;  (** abort tracing past this many IR operations *)
  max_inline_depth : int;
      (** abort tracing past this application-level call depth *)
  (* --- optimizer pass toggles (for ablation benches) --- *)
  opt_fold : bool;       (** constant folding / algebraic simplification *)
  opt_guard_elim : bool; (** remove guards implied by earlier guards *)
  opt_forward : bool;    (** heap load forwarding (getfield after set/get) *)
  opt_virtuals : bool;   (** escape analysis: remove non-escaping [new]s *)
  opt_peel : bool;
      (** loop peeling: duplicate the trace into preamble + loop so that
          loop-invariant guards (types, bounds) run only in the preamble *)
  (* --- GC --- *)
  nursery_words : int;       (** nursery capacity in heap words *)
  major_growth : float;      (** major GC when old gen grows by this factor *)
  (* --- simulation --- *)
  insn_budget : int;     (** stop a run after this many simulated insns *)
  sample_window : int;   (** warmup-curve sampling window, in insns *)
  jit_enabled : bool;
  threaded_interp : bool;
      (** dispatch interpreter bytecodes through translate-once arrays of
          pre-bound step closures (the threaded tier) instead of the
          reference decode-and-match loop.  Always on in production;
          [false] selects the reference loop as the oracle the
          differential suites compare against — simulated counters are
          byte-identical either way *)
  (* --- multi-tier compilation (extends the paper's Q4/Q5 warmup
     questions to a per-tier dimension) --- *)
  tier_policy : tier_policy;
  tier1_threshold : int;
      (** loop-header executions before a {e baseline} trace is recorded
          (Baseline/Adaptive policies; the effective threshold is
          [min jit_threshold tier1_threshold]) *)
  tier2_threshold : int;
      (** tier-1 trace executions before promotion is considered
          (Adaptive policy) *)
  tier_stable_every : int;
      (** promotion requires a stable guard-fail profile:
          [deopts * tier_stable_every <= exec_count] — at most one
          deoptimization per this many trace executions *)
  demote_bridges : int;
      (** bridges attached to an optimized loop trace before it is
          demoted back to tier 1 (Adaptive policy) *)
  max_demotions : int;
      (** demotions of one loop site before it is pinned at tier 1
          (prevents tier oscillation) *)
}

val default : t
(** Scaled defaults: threshold 131, bridge threshold 17, 256 Ki-word
    nursery, 20 M-instruction budget; [Optimizing] tier policy. *)

val no_jit : t
(** [default] with the meta-tracing JIT disabled (the "PyPy w/o JIT"
    configuration of Table I). *)

val with_budget : int -> t -> t
(** Override the instruction budget. *)

val two_tier : t
(** [default] with the [Adaptive] tier policy: traces are first compiled
    unoptimized (cheap, slow code) at [tier1_threshold], promoted
    through the full optimizer once hot and guard-stable, and demoted
    when bridges proliferate. *)

val baseline_tier : t
(** [default] with the [Baseline] tier policy: tier-1 compiles only,
    never promoted — the fastest warmup, the slowest peak. *)

val tier_policy_name : tier_policy -> string
(** ["optimizing"] / ["baseline"] / ["adaptive"]. *)

val tier_policy_of_string : string -> tier_policy option
(** Inverse of {!tier_policy_name}; [None] for any other string. *)

val all_tier_policies : tier_policy list

val paper_scale : string
(** Human-readable note mapping scaled parameters to the paper's. *)
