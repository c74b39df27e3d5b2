type tier_policy = Optimizing | Baseline | Adaptive

type t = {
  jit_threshold : int;
  bridge_threshold : int;
  retrace_limit : int;
  max_trace_ops : int;
  max_inline_depth : int;
  opt_fold : bool;
  opt_guard_elim : bool;
  opt_forward : bool;
  opt_virtuals : bool;
  opt_peel : bool;
  nursery_words : int;
  major_growth : float;
  insn_budget : int;
  sample_window : int;
  jit_enabled : bool;
  threaded_interp : bool;
  frame_pool : bool;
  tier_policy : tier_policy;
  tier1_threshold : int;
  tier2_threshold : int;
  tier_stable_every : int;
  demote_bridges : int;
  max_demotions : int;
}

let default =
  {
    jit_threshold = 131;
    bridge_threshold = 17;
    retrace_limit = 4;
    max_trace_ops = 4000;
    max_inline_depth = 12;
    opt_fold = true;
    opt_guard_elim = true;
    opt_forward = true;
    opt_virtuals = true;
    opt_peel = true;
    nursery_words = 12 * 1024;
    major_growth = 1.5;
    insn_budget = 20_000_000;
    sample_window = 100_000;
    jit_enabled = true;
    threaded_interp = true;
    frame_pool = true;
    tier_policy = Optimizing;
    tier1_threshold = 37;
    tier2_threshold = 40;
    tier_stable_every = 8;
    demote_bridges = 5;
    max_demotions = 2;
  }

let no_jit = { default with jit_enabled = false }
let two_tier = { default with tier_policy = Adaptive }
let baseline_tier = { default with tier_policy = Baseline }
let with_budget insn_budget t = { t with insn_budget }

let tier_policy_name = function
  | Optimizing -> "optimizing"
  | Baseline -> "baseline"
  | Adaptive -> "adaptive"

let all_tier_policies = [ Optimizing; Baseline; Adaptive ]

let tier_policy_of_string s =
  List.find_opt (fun p -> tier_policy_name p = s) all_tier_policies

let paper_scale =
  "Paper: loop threshold 1039, benchmarks run for 10e9 instructions. \
   Here: threshold 131, budget 2e7 instructions; the threshold/budget \
   ratio is kept within ~2x of the paper's so warmup occupies a \
   comparable fraction of each run."
