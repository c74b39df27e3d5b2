(** White-box tests of the JIT machinery: trace compilation, bridges,
    aborts, blacklisting, and the measurable effect of each optimizer
    pass on the compiled IR. *)

module V = Mtj_pylite.Vm
module C = Mtj_core.Config
module Ir = Mtj_rjit.Ir
module Jitlog = Mtj_rjit.Jitlog

let eager ?(tweak = fun c -> c) () =
  tweak
    {
      C.default with
      C.jit_threshold = 7;
      bridge_threshold = 4;
      insn_budget = 50_000_000;
    }

let run ?tweak src =
  let config = eager ?tweak () in
  let vm = V.create ~config () in
  (match V.run_source vm src with
  | Mtj_rjit.Driver.Completed _ -> ()
  | Mtj_rjit.Driver.Budget_exceeded -> Alcotest.fail "budget"
  | Mtj_rjit.Driver.Runtime_error e -> Alcotest.failf "error %s" e);
  V.jitlog vm

let count_ops pred jl =
  List.fold_left
    (fun acc (tr : Ir.trace) ->
      Array.fold_left
        (fun acc (op : Ir.op) -> if pred op then acc + 1 else acc)
        acc tr.Ir.ops)
    0 (Jitlog.traces jl)

let is_new (op : Ir.op) =
  match op.Ir.opcode with
  | Ir.New_with_vtable _ | Ir.New_array _ | Ir.New_list _ | Ir.New_cell -> true
  | _ -> false

let is_guard (op : Ir.op) =
  match op.Ir.opcode with Ir.Guard _ -> true | _ -> false

let hot_loop_src =
  "def f(n):\n    s = 0\n    for i in range(n):\n        s = s + i\n    return s\nprint(f(500))\n"

let test_loop_compiles () =
  let jl = run hot_loop_src in
  Alcotest.(check bool) "compiled" true (Jitlog.num_traces jl >= 1);
  let loop_traces =
    List.filter
      (fun (tr : Ir.trace) ->
        match tr.Ir.kind with Ir.Loop _ -> true | Ir.Bridge _ -> false)
      (Jitlog.traces jl)
  in
  Alcotest.(check bool) "has loop" true (List.length loop_traces >= 1);
  (* the loop executed many times *)
  Alcotest.(check bool) "hot" true
    (List.exists (fun (tr : Ir.trace) -> tr.Ir.exec_count > 200) loop_traces)

let test_trace_ends_with_jump () =
  let jl = run hot_loop_src in
  List.iter
    (fun (tr : Ir.trace) ->
      match tr.Ir.kind with
      | Ir.Loop _ ->
          let last = tr.Ir.ops.(Array.length tr.Ir.ops - 1) in
          Alcotest.(check bool) "ends with jump" true
            (match last.Ir.opcode with Ir.Jump -> true | _ -> false)
      | Ir.Bridge _ -> ())
    (Jitlog.traces jl)

let test_bridge_created_for_biased_branch () =
  (* a branch taken ~50/50 causes frequent guard failures -> a bridge *)
  let src =
    "def f(n):\n    s = 0\n    for i in range(n):\n        if i % 2 == 0:\n            s = s + 1\n        else:\n            s = s + 2\n    return s\nprint(f(800))\n"
  in
  let jl = run src in
  Alcotest.(check bool) "bridges attached" true (jl.Jitlog.bridges_attached >= 1);
  (* with the bridge installed, deopts stop growing: far fewer deopts
     than iterations *)
  Alcotest.(check bool) "deopts bounded" true (jl.Jitlog.deopts < 400)

let test_abort_and_blacklist_deep_recursion () =
  let src =
    "def fib(n):\n    if n < 2:\n        return n\n    return fib(n - 1) + fib(n - 2)\ndef main():\n    s = 0\n    for i in range(45):\n        s = s + fib(11)\n    return s\nprint(main())\n"
  in
  let jl = run src in
  Alcotest.(check bool) "aborted" true (jl.Jitlog.aborts >= 1);
  Alcotest.(check bool) "blacklisted" true (jl.Jitlog.blacklisted >= 1)

let test_virtuals_remove_allocations () =
  let src =
    "def f(n):\n    s = 0\n    for i in range(n):\n        s = s + (i, i + 1)[0] + (i, i + 1)[1]\n    return s\nprint(f(400))\n"
  in
  let with_v = run src in
  let without_v = run ~tweak:(fun c -> { c with C.opt_virtuals = false }) src in
  let news_with = count_ops is_new with_v in
  let news_without = count_ops is_new without_v in
  Alcotest.(check bool)
    (Printf.sprintf "fewer news (%d vs %d)" news_with news_without)
    true (news_with < news_without)

let test_guard_elim_reduces_guards () =
  (* two identical guarded list reads in one iteration: the second bound
     check is implied by the first; peeling off on both sides so the
     static trace sizes are comparable *)
  let src =
    "def f(n):\n    l = [1, 2, 3, 4]\n    s = 0\n    for i in range(n):\n        k = i % 4\n        s = s + l[k] + l[k]\n    return s\nprint(f(400))\n"
  in
  let with_opt =
    run ~tweak:(fun c -> { c with C.opt_peel = false }) src
  in
  let without_opt =
    run ~tweak:(fun c -> { c with C.opt_guard_elim = false; opt_peel = false }) src
  in
  let g_with = count_ops is_guard with_opt in
  let g_without = count_ops is_guard without_opt in
  Alcotest.(check bool)
    (Printf.sprintf "fewer guards (%d vs %d)" g_with g_without)
    true (g_with < g_without)

let test_peeling_structure () =
  let jl = run hot_loop_src in
  let tr =
    List.find
      (fun (tr : Ir.trace) ->
        match tr.Ir.kind with Ir.Loop _ -> true | _ -> false)
      (Jitlog.traces jl)
  in
  (* peeled: the back-edge targets the loop part, not op 0 *)
  Alcotest.(check bool) "loop_start past preamble" true (tr.Ir.loop_start > 0);
  Alcotest.(check bool) "loop_base shifted" true (tr.Ir.loop_base > 0);
  (* the loop part runs more often than the preamble part *)
  Alcotest.(check bool) "loop part hotter" true
    (tr.Ir.op_exec.(tr.Ir.loop_start) > tr.Ir.op_exec.(0))

let test_peeling_hoists_guards () =
  let peeled = run hot_loop_src in
  let unpeeled = run ~tweak:(fun c -> { c with C.opt_peel = false }) hot_loop_src in
  (* dynamic guard executions are lower with peeling, because the loop
     part re-checks less *)
  let dyn_guards jl =
    List.fold_left
      (fun acc (tr : Ir.trace) ->
        let s = ref acc in
        Array.iteri
          (fun i (op : Ir.op) ->
            if is_guard op then s := !s + tr.Ir.op_exec.(i))
          tr.Ir.ops;
        !s)
      0 (Jitlog.traces jl)
  in
  Alcotest.(check bool)
    (Printf.sprintf "fewer dynamic guards (%d vs %d)" (dyn_guards peeled)
       (dyn_guards unpeeled))
    true
    (dyn_guards peeled < dyn_guards unpeeled)

let test_jitlog_stats_consistency () =
  let jl = run hot_loop_src in
  let compiled = Jitlog.total_ir_compiled jl in
  let dynamic = Jitlog.total_dynamic_ir jl in
  Alcotest.(check bool) "compiled > 0" true (compiled > 0);
  Alcotest.(check bool) "dynamic >= compiled" true (dynamic >= compiled);
  let hot = Jitlog.hot_ir_fraction jl ~coverage:0.95 in
  Alcotest.(check bool) "hot fraction in (0,100]" true (hot > 0.0 && hot <= 100.0);
  let cats = Jitlog.dynamic_by_category jl in
  let total_cat = List.fold_left (fun a (_, n) -> a + n) 0 cats in
  Alcotest.(check int) "categories partition dynamic count" dynamic total_cat

let test_x86_per_type_positive () =
  let jl = run hot_loop_src in
  List.iter
    (fun (ty, mean) ->
      if mean <= 0.0 then Alcotest.failf "non-positive x86 mean for %s" ty)
    (Jitlog.x86_per_node_type jl)

let test_global_invalidation () =
  (* storing a global inside the loop invalidates promoted loads but must
     stay correct *)
  let src =
    "g = 0\ndef f(n):\n    global g\n    s = 0\n    for i in range(n):\n        g = g + 1\n        s = s + g\n    return s\nprint(f(300))\n"
  in
  let config = eager () in
  let outcome, vm = V.run ~config src in
  (match outcome with
  | Mtj_rjit.Driver.Completed _ -> ()
  | _ -> Alcotest.fail "did not complete");
  Alcotest.(check string) "sum of 1..300" "45150\n" (V.output vm)

let test_budget_mid_jit () =
  let config = { (eager ()) with C.insn_budget = 60_000 } in
  let vm = V.create ~config () in
  match V.run_source vm "def f():\n    s = 0\n    i = 0\n    while True:\n        i = i + 1\n        s = s + i\nf()\n" with
  | Mtj_rjit.Driver.Budget_exceeded -> ()
  | _ -> Alcotest.fail "expected budget exhaustion"

(* regression for the virtual-substitution chain bug: every compiled
   trace must only reference registers that are defined (entry slots,
   loop-carried slots, or results of retained ops) *)
let check_no_dangling_regs what (jl : Jitlog.t) =
  List.iter
    (fun (tr : Ir.trace) ->
      match
        Mtj_rjit.Opt.verify_defs tr.Ir.ops ~entry_slots:tr.Ir.entry_slots
          ~loop_base:tr.Ir.loop_base
      with
      | [] -> ()
      | d :: _ ->
          Alcotest.failf "%s trace %d: op %d %s undefined r%d" what
            tr.Ir.trace_id d.Mtj_rjit.Opt.d_op
            (if d.Mtj_rjit.Opt.d_in_resume then "resume references"
             else "references")
            d.Mtj_rjit.Opt.d_reg)
    (Jitlog.traces jl)

let test_traces_well_formed () =
  (* rklite binarytrees historically triggered dangling registers via
     chained virtual reads; check it and a dict/string workload, then
     the two programs with the most deeply inlined traces (hence the
     largest resume snapshots) under every tier policy *)
  let module R = Mtj_benchmarks.Registry in
  let run_py ?(budget_ok = false) config name =
    let py = R.find_exn ~lang:R.Py name in
    let vm = V.create ~config () in
    (match V.run_source vm py.R.source with
    | Mtj_rjit.Driver.Completed _ -> ()
    | Mtj_rjit.Driver.Budget_exceeded when budget_ok -> ()
    | _ -> Alcotest.failf "%s failed" name);
    check_no_dangling_regs name (V.jitlog vm)
  in
  let rk = R.find_exn ~lang:R.Rk "binarytrees" in
  let config = C.with_budget 250_000_000 C.default in
  let vm = Mtj_rklite.Kvm.create ~config () in
  (match Mtj_rklite.Kvm.run_source vm rk.R.source with
  | Mtj_rjit.Driver.Completed _ -> ()
  | _ -> Alcotest.fail "rk binarytrees failed");
  check_no_dangling_regs "rk binarytrees" (Mtj_rklite.Kvm.jitlog vm);
  run_py config "django";
  List.iter
    (fun policy ->
      let config =
        C.with_budget 15_000_000 { C.default with C.tier_policy = policy }
      in
      run_py ~budget_ok:true config "ai";
      run_py ~budget_ok:true config "hexiom2")
    C.all_tier_policies

(* The recorder builds each bytecode's resume snapshot against the
   previous one's: while an inlined callee runs, its caller's frame does
   not change, so consecutive snapshots carry the physically same caller
   frame.  The baseline tier compiles the recorded ops verbatim. *)
let inlined_call_trace () =
  let src =
    "def add(a, b):\n    c = a + b\n    return c\n\
     def f(n):\n    s = 0\n    for i in range(n):\n        s = add(s, i)\n    return s\n\
     print(f(300))\n"
  in
  let config = { (eager ()) with C.tier_policy = C.Baseline } in
  let vm = V.create ~config () in
  (match V.run_source vm src with
  | Mtj_rjit.Driver.Completed _ -> ()
  | _ -> Alcotest.fail "did not complete");
  match Jitlog.traces (V.jitlog vm) with
  | tr :: _ -> tr
  | [] -> Alcotest.fail "no trace"

(* (caller frame, callee frame) of every two-frame debug_merge_point *)
let inlined_snapshots (ops : Ir.op array) =
  Array.to_list ops
  |> List.filter_map (fun (op : Ir.op) ->
         match op.Ir.opcode with
         | Ir.Debug_merge_point { dmp_resume = { Ir.frames = [ caller; callee ]; _ }; _ }
           ->
             Some (caller, callee)
         | _ -> None)

let test_recorder_shares_caller_frames () =
  let tr = inlined_call_trace () in
  match inlined_snapshots tr.Ir.ops with
  | (caller, callee) :: (_ :: _ as rest) ->
      List.iter
        (fun (caller', callee') ->
          Alcotest.(check bool) "caller frame is shared" true (caller' == caller);
          Alcotest.(check bool) "callee frame moved on" true
            (callee'.Ir.snap_pc <> callee.Ir.snap_pc))
        rest
  | _ -> Alcotest.fail "expected several snapshots inside the callee"

let test_copy_ops_keeps_sharing () =
  let tr = inlined_call_trace () in
  let guards ops =
    Array.to_list ops
    |> List.filter_map (fun (op : Ir.op) ->
           match op.Ir.opcode with Ir.Guard g -> Some g | _ -> None)
  in
  List.iter
    (fun (g : Ir.guard) ->
      g.Ir.fail_count <- 3;
      g.Ir.bridge <- Some tr)
    (guards tr.Ir.ops);
  let copy = Ir.copy_ops tr.Ir.ops in
  List.iter2
    (fun (g : Ir.guard) (g' : Ir.guard) ->
      Alcotest.(check bool) "fresh guard record" true (g != g');
      Alcotest.(check int) "fail count reset" 0 g'.Ir.fail_count;
      Alcotest.(check bool) "no bridge" true (g'.Ir.bridge = None);
      Alcotest.(check int) "original keeps its count" 3 g.Ir.fail_count)
    (guards tr.Ir.ops) (guards copy);
  match inlined_snapshots copy with
  | (caller, _) :: (_ :: _ as rest) ->
      List.iter
        (fun (caller', _) ->
          Alcotest.(check bool) "copy keeps the shared caller frame" true
            (caller' == caller))
        rest
  | _ -> Alcotest.fail "expected several snapshots inside the callee"

(* toplevel loops store their counters as module globals every iteration;
   PyPy's module-dict cells keep that from invalidating traces. Before
   the cell strategy this program compiled one bridge every
   bridge_threshold iterations, forever (624 traces). *)
let test_global_store_does_not_storm () =
  let config = eager () in
  let vm = V.create ~config () in
  (match V.run_source vm
    "out = []\n\
     acc = 0\n\
     for i in range(2500):\n\
    \    xs = [i, i + 1, i + 2]\n\
    \    out.append(xs)\n\
    \    acc = acc + xs[2]\n\
     print(acc)\n" with
  | Mtj_rjit.Driver.Completed _ -> ()
  | _ -> Alcotest.fail "run failed");
  Alcotest.(check string) "output" "3128750\n" (V.output vm);
  let jl = V.jitlog vm in
  Alcotest.(check bool) "no bridge storm" true (Jitlog.num_traces jl <= 4);
  Alcotest.(check bool) "few deopts" true (jl.Jitlog.deopts < 50);
  (* the loop trace took essentially every iteration *)
  Alcotest.(check bool) "loop stays compiled" true
    (List.exists (fun (tr : Ir.trace) -> tr.Ir.exec_count > 2400)
       (Jitlog.traces jl))

(* --- two-tier extension --- *)

let test_tiered_retier () =
  let config =
    {
      C.default with
      C.jit_threshold = 7;
      bridge_threshold = 4;
      insn_budget = 50_000_000;
      tier_policy = C.Adaptive;
      tier2_threshold = 10;
    }
  in
  let vm = V.create ~config () in
  (match V.run_source vm hot_loop_src with
  | Mtj_rjit.Driver.Completed _ -> ()
  | _ -> Alcotest.fail "run failed");
  Alcotest.(check string) "same output" "124750\n" (V.output vm);
  let jl = V.jitlog vm in
  Alcotest.(check bool) "a retier happened" true (jl.Jitlog.retiers >= 1);
  let loops =
    List.filter
      (fun (tr : Ir.trace) ->
        match tr.Ir.kind with Ir.Loop _ -> true | _ -> false)
      (Jitlog.traces jl)
  in
  let tier1 = List.filter (fun (tr : Ir.trace) -> tr.Ir.tier = 1) loops in
  let tier2 = List.filter (fun (tr : Ir.trace) -> tr.Ir.tier = 2) loops in
  Alcotest.(check bool) "both tiers present" true
    (tier1 <> [] && tier2 <> []);
  (* the optimized recompile's steady-state loop body must be strictly
     smaller (the peeled preamble runs once and doesn't count) *)
  let min_body trs =
    List.fold_left
      (fun acc (tr : Ir.trace) ->
        min acc (Array.length tr.Ir.ops - tr.Ir.loop_start))
      max_int trs
  in
  Alcotest.(check bool) "tier-2 loop body smaller than tier-1" true
    (min_body tier2 < min_body tier1);
  (* after the retier the tier-2 trace takes all further iterations *)
  Alcotest.(check bool) "tier-2 is the hot one" true
    (List.exists (fun (tr : Ir.trace) -> tr.Ir.exec_count > 200) tier2)

let test_tiered_matches_interp () =
  (* a branchy program with bridges + retier; outputs must match interp *)
  let src =
    "acc = 0\n\
     for i in range(400):\n\
    \    if i % 3 == 0:\n\
    \        acc = acc + i\n\
    \    else:\n\
    \        acc = acc - 1\n\
     print(acc)\n"
  in
  let out config =
    let vm = V.create ~config () in
    (match V.run_source vm src with
    | Mtj_rjit.Driver.Completed _ -> ()
    | _ -> Alcotest.fail "run failed");
    V.output vm
  in
  let interp = out { C.no_jit with C.insn_budget = 50_000_000 } in
  let tiered =
    out
      {
        C.default with
        C.jit_threshold = 7;
        bridge_threshold = 3;
        insn_budget = 50_000_000;
        tier_policy = C.Adaptive;
        tier2_threshold = 8;
      }
  in
  Alcotest.(check string) "tiered = interp" interp tiered

(* --- tier policy state machine (pure, property-tested) --- *)

module Tierpolicy = Mtj_rjit.Tierpolicy

(* random but sane tier knobs *)
let gen_tier_cfg =
  QCheck.Gen.(
    let* jit_threshold = int_range 1 200 in
    let* tier1_threshold = int_range 1 200 in
    let* tier2_threshold = int_range 1 100 in
    let* tier_stable_every = int_range 0 16 in
    let* demote_bridges = int_range 1 8 in
    let* max_demotions = int_range 0 4 in
    let* policy = oneofl C.all_tier_policies in
    return
      {
        C.default with
        C.jit_threshold;
        tier1_threshold;
        tier2_threshold;
        tier_stable_every;
        demote_bridges;
        max_demotions;
        tier_policy = policy;
      })

let arb_tier_cfg = QCheck.make gen_tier_cfg

let prop_promotion_monotone =
  QCheck.Test.make ~count:500 ~name:"tier-up promotion is monotone in hotness"
    QCheck.(
      pair arb_tier_cfg (quad small_nat small_nat small_nat small_nat))
    (fun (cfg, (execs, extra, deopts, promote_at)) ->
      match
        Tierpolicy.tier_up cfg ~tier:1 ~execs ~deopts ~promote_at
      with
      | Tierpolicy.Promote -> (
          (* same deopt profile, more executions: still Promote *)
          match
            Tierpolicy.tier_up cfg ~tier:1 ~execs:(execs + extra) ~deopts
              ~promote_at
          with
          | Tierpolicy.Promote -> true
          | _ -> false)
      | Tierpolicy.Defer p ->
          (* deferral always makes progress: the new promotion point is
             in the future, so the portal is not consulted every
             back-edge *)
          p > execs
      | Tierpolicy.Stay -> true)

let prop_tier2_never_promotes =
  QCheck.Test.make ~count:200 ~name:"tier-2 traces never tier up again"
    QCheck.(pair arb_tier_cfg (triple small_nat small_nat small_nat))
    (fun (cfg, (execs, deopts, promote_at)) ->
      Tierpolicy.tier_up cfg ~tier:2 ~execs ~deopts ~promote_at
      = Tierpolicy.Stay)

let prop_demotion_backoff =
  QCheck.Test.make ~count:200
    ~name:"re-promotion threshold doubles per demotion, then pins"
    QCheck.(pair arb_tier_cfg (int_range 1 8))
    (fun (cfg, demotions) ->
      let at = Tierpolicy.demoted_promote_at cfg ~demotions in
      if demotions > cfg.C.max_demotions then at = Tierpolicy.never
      else
        at = cfg.C.tier2_threshold * (1 lsl demotions)
        && at >= Tierpolicy.demoted_promote_at cfg ~demotions:(demotions - 1))

let prop_single_tier_policies_never_promote =
  QCheck.Test.make ~count:200
    ~name:"Optimizing/Baseline traces carry the never sentinel"
    arb_tier_cfg
    (fun cfg ->
      match cfg.C.tier_policy with
      | C.Adaptive ->
          Tierpolicy.initial_promote_at cfg = cfg.C.tier2_threshold
      | C.Optimizing | C.Baseline ->
          Tierpolicy.initial_promote_at cfg = Tierpolicy.never
          && not
               (Tierpolicy.hot
                  ~promote_at:(Tierpolicy.initial_promote_at cfg)
                  ~execs:max_int))

let prop_demote_needs_adaptive_tier2 =
  QCheck.Test.make ~count:200 ~name:"demotion needs Adaptive + tier 2 + bridges"
    QCheck.(pair arb_tier_cfg (pair (int_range 0 3) small_nat))
    (fun (cfg, (tier, bridges)) ->
      let d = Tierpolicy.should_demote cfg ~tier ~bridges in
      d
      = (cfg.C.tier_policy = C.Adaptive && tier >= 2
        && bridges >= cfg.C.demote_bridges))

(* the end-to-end lifecycle: promote, grow bridges, demote, re-promote at
   a doubled threshold, pin once max_demotions is exhausted.  The
   superseded optimized traces must have their cached threaded code
   invalidated, so any stale code_ref re-translates instead of running
   the old closure array. *)
let test_demotion_invalidates_code () =
  let config =
    {
      C.default with
      C.jit_threshold = 7;
      bridge_threshold = 30;
      insn_budget = 100_000_000;
      tier_policy = C.Adaptive;
      tier2_threshold = 8;
      tier_stable_every = 0;
      demote_bridges = 2;
      max_demotions = 2;
    }
  in
  let src =
    "a = 0\n\
     b = 0\n\
     c = 0\n\
     for i in range(3000):\n\
    \    if i % 2 == 0:\n\
    \        a = a + 1\n\
    \    else:\n\
    \        a = a + 2\n\
    \    if i % 3 == 0:\n\
    \        b = b + 1\n\
    \    else:\n\
    \        b = b + 2\n\
    \    if i % 5 == 0:\n\
    \        c = c + 1\n\
    \    else:\n\
    \        c = c + 2\n\
     print(a + b + c)\n"
  in
  let vm = V.create ~config () in
  (match V.run_source vm src with
  | Mtj_rjit.Driver.Completed _ -> ()
  | _ -> Alcotest.fail "run failed");
  Alcotest.(check string) "output" "14900\n" (V.output vm);
  let jl = V.jitlog vm in
  Alcotest.(check bool) "promoted" true (jl.Jitlog.retiers >= 1);
  Alcotest.(check bool) "demoted" true (jl.Jitlog.demotions >= 1);
  Alcotest.(check bool) "oscillation damped" true
    (jl.Jitlog.demotions <= config.C.max_demotions + 1);
  (* every demoted tier-2 loop was invalidated: its threaded code cannot
     be entered stale, the next entry re-translates *)
  let tier2_loops =
    List.filter
      (fun (tr : Ir.trace) ->
        tr.Ir.tier = 2
        && match tr.Ir.kind with Ir.Loop _ -> true | _ -> false)
      (Jitlog.traces jl)
  in
  Alcotest.(check int)
    "one optimized loop compile per promotion" jl.Jitlog.retiers
    (List.length tier2_loops);
  List.iter
    (fun (tr : Ir.trace) ->
      Alcotest.(check bool)
        (Printf.sprintf "tier-2 loop %d invalidated after demotion"
           tr.Ir.trace_id)
        true
        (tr.Ir.code_version >= 1))
    tier2_loops;
  (* exponential backoff is visible in the run: each demoted replacement
     waits twice as long before re-promoting, so the tier-1 loop
     compiles' exec counts double until the site pins at tier 1 *)
  let tier1_loop_execs =
    List.filter_map
      (fun (tr : Ir.trace) ->
        match tr.Ir.kind with
        | Ir.Loop _ when tr.Ir.tier = 1 -> Some tr.Ir.exec_count
        | _ -> None)
      (Jitlog.traces jl)
  in
  match tier1_loop_execs with
  | first :: (_ :: _ as rest) ->
      let promoted, pinned =
        List.filteri (fun i _ -> i < List.length rest - 1) rest,
        List.nth rest (List.length rest - 1)
      in
      ignore first;
      List.iteri
        (fun i execs ->
          Alcotest.(check int)
            (Printf.sprintf "re-promotion %d waited 2^%d longer" (i + 1)
               (i + 1))
            (config.C.tier2_threshold * (1 lsl (i + 1)))
            execs)
        promoted;
      Alcotest.(check bool) "the pinned tier-1 loop takes the tail" true
        (pinned > 1000)
  | _ -> Alcotest.fail "expected several tier-1 loop compiles"

(* --- trace building on the host --- *)

(* OCaml 5 runs a minor collection before it fills an array of more
   than 256 elements, which starts in the major heap, with a young value
   (DESIGN.md §4).  [f] builds no such array when its minor collections
   are only those its own allocation fills the minor heap for; each step
   that forced one is added to [forced]. *)
let forces_no_minor forced what f =
  let heap = float (Gc.get ()).Gc.minor_heap_size in
  Gc.minor ();
  let collections = (Gc.quick_stat ()).Gc.minor_collections
  and words = Gc.minor_words () in
  let x = Sys.opaque_identity (f ()) in
  let collections = (Gc.quick_stat ()).Gc.minor_collections - collections
  and words = Gc.minor_words () -. words in
  if float collections > words /. heap then
    forced :=
      Printf.sprintf "%s: %d minor collections for %.0f minor words" what
        collections words
      :: !forced;
  x

(* a loop whose one iteration records several hundred ops: the trace
   inlines every call, while no code object is long *)
let long_trace_src =
  "def g(i, k):\n    return i * k - (i + k)\n\
   def f(n):\n    s = 0\n    for i in range(n):\n"
  ^ String.concat ""
      (List.init 24 (fun k -> Printf.sprintf "        s = s + g(i, %d)\n" k))
  ^ "    return s\nprint(f(40))\n"

let test_trace_building_forces_no_minor () =
  (* the baseline tier compiles the recording as it is *)
  let config = { (eager ()) with C.tier_policy = C.Baseline } in
  let vm = V.create ~config () in
  let bundle = V.compile_bundle long_trace_src in
  let forced = ref [] in
  let forces_no_minor what f = forces_no_minor forced what f in
  forces_no_minor "record and compile" (fun () ->
      match V.run_bundle vm bundle with
      | Mtj_rjit.Driver.Completed _ -> ()
      | _ -> Alcotest.fail "did not complete");
  let tr =
    match Jitlog.traces (V.jitlog vm) with
    | tr :: _ -> tr
    | [] -> Alcotest.fail "no trace"
  in
  Alcotest.(check bool) "the recording passes 256 ops" true
    (Array.length tr.Ir.ops > 256);
  let ops = forces_no_minor "copy_ops" (fun () -> Ir.copy_ops tr.Ir.ops) in
  let opt_ops, loop_base, loop_start =
    forces_no_minor "optimize" (fun () ->
        Mtj_rjit.Opt.optimize C.default ~kind:`Loop ops
          ~entry_slots:tr.Ir.entry_slots)
  in
  Alcotest.(check bool) "the optimized trace passes 256 ops" true
    (Array.length opt_ops > 256);
  let rtc = Mtj_rt.Ctx.create ~config:C.default () in
  let jitlog = Jitlog.create () in
  ignore
    (forces_no_minor "compile" (fun () ->
         Mtj_rjit.Backend.compile jitlog rtc ~kind:tr.Ir.kind
           ~entry_slots:tr.Ir.entry_slots ~loop_base ~loop_start opt_ops));
  (* the phase timeline of a run is built the same way *)
  let eng = Mtj_rt.Ctx.engine rtc in
  let tracker = Mtj_pintool.Phase_tracker.attach ~bucket_insns:10 eng in
  for _ = 1 to 300 do
    Mtj_machine.Engine.in_phase eng Mtj_core.Phase.Jit (fun () ->
        Mtj_machine.Engine.emit eng (Mtj_core.Cost.make ~alu:10 ()))
  done;
  Mtj_pintool.Phase_tracker.finalize tracker;
  let timeline =
    forces_no_minor "timeline" (fun () ->
        Mtj_pintool.Phase_tracker.timeline tracker)
  in
  Alcotest.(check bool) "the timeline passes 256 buckets" true
    (Array.length timeline > 256);
  Mtj_machine.Engine.release eng;
  Mtj_machine.Engine.release (V.engine vm);
  Alcotest.(check (list string)) "steps that forced a minor collection" []
    (List.rev !forced)

(* a function whose one code object passes 256 instructions *)
let long_code_src =
  "def f(n):\n    s = 0\n    for i in range(n):\n"
  ^ String.concat ""
      (List.init 30 (fun k -> Printf.sprintf "        s = s + i * %d - (i + 1)\n" k))
  ^ "    return s\nprint(f(3))\n"

(* threading a code object fills its step array: a young filler would
   force a minor collection past 256 instructions *)
let test_threading_forces_no_minor () =
  let config = { C.default with C.jit_enabled = false } in
  let vm = V.create ~config () in
  let bundle = V.compile_bundle long_code_src in
  let f =
    match
      List.find_opt
        (fun (c : Mtj_pylite.Bytecode.code) -> c.Mtj_pylite.Bytecode.name = "f")
        (fst (Mtj_pylite.Code_table.export_bundle ()))
    with
    | Some c -> c
    | None -> Alcotest.fail "no code object f"
  in
  Alcotest.(check bool) "f passes 256 instructions" true
    (Array.length f.Mtj_pylite.Bytecode.instrs > 256);
  let forced = ref [] in
  forces_no_minor forced "translate and run f" (fun () ->
      match V.run_bundle vm bundle with
      | Mtj_rjit.Driver.Completed _ -> ()
      | _ -> Alcotest.fail "did not complete");
  Alcotest.(check bool) "f was threaded" true
    (Option.is_some (Mtj_pylite.Code_table.lookup_threaded f));
  Alcotest.(check string) "output" "1125\n" (V.output vm);
  Mtj_machine.Engine.release (V.engine vm);
  Alcotest.(check (list string)) "steps that forced a minor collection" []
    (List.rev !forced)

let suite =
  [
    Alcotest.test_case "hot loop compiles" `Quick test_loop_compiles;
    Alcotest.test_case "loop trace ends with jump" `Quick test_trace_ends_with_jump;
    Alcotest.test_case "bridge for biased branch" `Quick
      test_bridge_created_for_biased_branch;
    Alcotest.test_case "abort + blacklist on deep recursion" `Quick
      test_abort_and_blacklist_deep_recursion;
    Alcotest.test_case "escape analysis removes news" `Quick
      test_virtuals_remove_allocations;
    Alcotest.test_case "guard elimination reduces guards" `Quick
      test_guard_elim_reduces_guards;
    Alcotest.test_case "peeling structure" `Quick test_peeling_structure;
    Alcotest.test_case "peeling hoists guards" `Quick test_peeling_hoists_guards;
    Alcotest.test_case "jitlog stats consistent" `Quick
      test_jitlog_stats_consistency;
    Alcotest.test_case "x86 per type positive" `Quick test_x86_per_type_positive;
    Alcotest.test_case "global store invalidation" `Quick test_global_invalidation;
    Alcotest.test_case "budget exhaustion mid-JIT" `Quick test_budget_mid_jit;
    Alcotest.test_case "compiled traces are well-formed" `Slow
      test_traces_well_formed;
    Alcotest.test_case "recorder shares unchanged caller frames" `Quick
      test_recorder_shares_caller_frames;
    Alcotest.test_case "copy_ops keeps frame sharing" `Quick
      test_copy_ops_keeps_sharing;
    Alcotest.test_case "building a trace forces no minor collection" `Quick
      test_trace_building_forces_no_minor;
    Alcotest.test_case "threading a long code object forces no minor collection"
      `Quick test_threading_forces_no_minor;
    Alcotest.test_case "global stores don't storm bridges" `Quick
      test_global_store_does_not_storm;
    Alcotest.test_case "two-tier: retier fires and shrinks" `Quick
      test_tiered_retier;
    Alcotest.test_case "two-tier: bridgy program matches interp" `Quick
      test_tiered_matches_interp;
    Alcotest.test_case "adaptive: demotion invalidates optimized code" `Quick
      test_demotion_invalidates_code;
    QCheck_alcotest.to_alcotest prop_promotion_monotone;
    QCheck_alcotest.to_alcotest prop_tier2_never_promotes;
    QCheck_alcotest.to_alcotest prop_demotion_backoff;
    QCheck_alcotest.to_alcotest prop_single_tier_policies_never_promote;
    QCheck_alcotest.to_alcotest prop_demote_needs_adaptive_tier2;
  ]
