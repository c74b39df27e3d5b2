open Mtj_core

(* Tier policy: the pure decision logic of the multi-tier driver.

   All state the policy reads lives on the trace (exec_count, deopts,
   promote_at, bridges) or the loop site (demotions); this module only
   computes verdicts from it, so the whole state machine is
   property-testable without running a VM (test/test_jit_machinery.ml).

   The shape follows Izawa & Bolz-Tereick's lightweight multi-tier
   method: a cheap baseline tier compiled at a low threshold, promotion
   to the optimizing tier gated on hotness AND a stable guard-fail
   profile, and demotion (with an exponentially raised re-promotion
   threshold) when bridges proliferate on an optimized loop. *)

(* Sentinel promote_at for "this trace is never promoted": no
   exec_count reaches it, so the back-edge's tier-up test never fires. *)
let never = max_int

(* Loop-header hotness needed before tracing starts.  Baseline/Adaptive
   trace early at [tier1_threshold]; [min] keeps eager test configs
   (tiny jit_threshold) tracing at their configured point. *)
let trace_threshold cfg =
  match cfg.Config.tier_policy with
  | Config.Optimizing -> cfg.Config.jit_threshold
  | Config.Baseline | Config.Adaptive ->
      min cfg.Config.jit_threshold cfg.Config.tier1_threshold

(* Tier of a freshly recorded loop trace. *)
let compile_tier cfg =
  match cfg.Config.tier_policy with
  | Config.Optimizing -> 2
  | Config.Baseline | Config.Adaptive -> 1

(* promote_at for a freshly compiled loop trace: the exec_count at which
   the executor should exit to the portal for a tier-up decision. *)
let initial_promote_at cfg =
  match cfg.Config.tier_policy with
  | Config.Adaptive -> cfg.Config.tier2_threshold
  | Config.Optimizing | Config.Baseline -> never

(* Seeded hotness for a loop site imported from a publisher's trace
   profile: one short of the tracing threshold, so the loop traces on
   its first header visit instead of re-counting from zero.  Not the
   threshold itself — the importer still observes one real iteration
   before recording, keeping the recorded type state warm. *)
let seed_counter cfg = max 0 (trace_threshold cfg - 1)

(* promote_at for a freshly compiled loop whose site the profile marked
   as promoted by the publisher: under Adaptive, trust the publisher's
   tier decision and promote after a quarter of the usual threshold
   (still > 0 executions, so the stability gate keeps its say); the
   other policies never promote, profile or not. *)
let seeded_promote_at cfg =
  match cfg.Config.tier_policy with
  | Config.Adaptive -> max 1 (cfg.Config.tier2_threshold / 4)
  | Config.Optimizing | Config.Baseline -> initial_promote_at cfg

let hot ~promote_at ~execs = promote_at <> never && execs >= promote_at

(* Guard-fail profile stability: at most one deopt per
   [tier_stable_every] trace executions. *)
let stable cfg ~execs ~deopts = deopts * cfg.Config.tier_stable_every <= execs

type verdict =
  | Promote  (* recompile through the optimizer at tier 2 *)
  | Defer of int  (* hot but guard-unstable: re-ask at this exec_count *)
  | Stay

let tier_up cfg ~tier ~execs ~deopts ~promote_at =
  if tier >= 2 || not (hot ~promote_at ~execs) then Stay
  else if stable cfg ~execs ~deopts then Promote
  else Defer (execs + cfg.Config.tier2_threshold)

(* Demotion trigger: an optimized loop that keeps growing bridges is
   paying optimizer cost for a trace shape that no longer matches the
   workload — recompile it at the baseline tier and re-profile. *)
let should_demote cfg ~tier ~bridges =
  cfg.Config.tier_policy = Config.Adaptive
  && tier >= 2
  && bridges >= cfg.Config.demote_bridges

(* promote_at for the demoted replacement trace: exponentially raised
   with each demotion of the site, and [never] once the site exhausts
   [max_demotions] — a demoted trace is not re-promoted below the
   raised threshold, so tiers cannot oscillate. *)
let demoted_promote_at cfg ~demotions =
  if demotions > cfg.Config.max_demotions then never
  else cfg.Config.tier2_threshold * (1 lsl demotions)
