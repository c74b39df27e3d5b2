(** Tests for the cross-layer instrumentation: the annotation stream's
    phase accounting must agree with the engine's own counters, the rate
    sampler must count exactly the dispatch ticks, and AOT attribution
    must name the right functions. *)

open Mtj_core
module Engine = Mtj_machine.Engine
module Counters = Mtj_machine.Counters

let test_phase_tracker_matches_counters () =
  let e = Engine.create () in
  let pt = Mtj_pintool.Phase_tracker.attach e in
  Engine.emit e (Cost.make ~alu:100 ());
  Engine.in_phase e Phase.Jit (fun () ->
      Engine.emit e (Cost.make ~alu:250 ());
      Engine.in_phase e Phase.Gc_minor (fun () ->
          Engine.emit e (Cost.make ~alu:70 ())));
  Engine.emit e (Cost.make ~alu:30 ());
  Mtj_pintool.Phase_tracker.finalize pt;
  let counters = Engine.counters e in
  List.iter
    (fun p ->
      Alcotest.(check int) (Phase.name p)
        (Counters.phase counters p).Counters.insns
        (Mtj_pintool.Phase_tracker.phase_insns pt p))
    Phase.all

let test_phase_tracker_late_attach () =
  (* attached at 300 insns in [Jit] (100 interpreted, 200 jitted): the
     prefix is booked as the counters hold it, not to the interpreter *)
  let e = Engine.create () in
  Engine.emit e (Cost.make ~alu:100 ());
  Engine.push_phase e Phase.Jit;
  Engine.emit e (Cost.make ~alu:200 ());
  let pt = Mtj_pintool.Phase_tracker.attach e in
  Engine.emit e (Cost.make ~alu:50 ());
  Engine.pop_phase e;
  Mtj_pintool.Phase_tracker.finalize pt;
  let insns p = Mtj_pintool.Phase_tracker.phase_insns pt p in
  Alcotest.(check (pair int int)) "interpreter, jit" (100, 250)
    (insns Phase.Interpreter, insns Phase.Jit);
  let counters = Engine.counters e in
  List.iter
    (fun p ->
      Alcotest.(check int) (Phase.name p)
        (Counters.phase counters p).Counters.insns (insns p))
    Phase.all

let test_phase_tracker_on_benchmark () =
  (* the independent annotation-stream accounting must agree with the
     hardware-counter accounting on a real JIT run *)
  let config = Config.with_budget 10_000_000 Config.default in
  let vm = Mtj_pylite.Vm.create ~config () in
  let e = Mtj_pylite.Vm.engine vm in
  let pt = Mtj_pintool.Phase_tracker.attach e in
  let src =
    "def f(n):\n    s = 0\n    for i in range(n):\n        s = s + i * i\n    return s\nprint(f(3000))\n"
  in
  ignore (Mtj_pylite.Vm.run_source vm src);
  Mtj_pintool.Phase_tracker.finalize pt;
  let counters = Engine.counters e in
  List.iter
    (fun p ->
      Alcotest.(check int) (Phase.name p)
        (Counters.phase counters p).Counters.insns
        (Mtj_pintool.Phase_tracker.phase_insns pt p))
    Phase.all;
  (* a JIT run must actually have spent most time in the Jit phase *)
  Alcotest.(check bool) "jit dominates" true
    (Mtj_pintool.Phase_tracker.fraction pt Phase.Jit > 0.5)

let test_timeline_shows_warmup () =
  let config = Config.with_budget 10_000_000 Config.default in
  let vm = Mtj_pylite.Vm.create ~config () in
  let pt =
    Mtj_pintool.Phase_tracker.attach ~bucket_insns:20_000
      (Mtj_pylite.Vm.engine vm)
  in
  ignore
    (Mtj_pylite.Vm.run_source vm
       "def f(n):\n    s = 0\n    for i in range(n):\n        s = s + i\n    return s\nprint(f(20000))\n");
  Mtj_pintool.Phase_tracker.finalize pt;
  let tl = Mtj_pintool.Phase_tracker.timeline pt in
  Alcotest.(check bool) "has buckets" true (Array.length tl > 3);
  let dominant bucket =
    Array.fold_left
      (fun (bp, bf) (p, f) -> if f > bf then (p, f) else (bp, bf))
      (Phase.Interpreter, 0.0) bucket
  in
  (* warmup: the first bucket is interpreter-dominated, a later one JIT *)
  Alcotest.(check bool) "starts interpreting" true
    (fst (dominant tl.(0)) = Phase.Interpreter);
  Alcotest.(check bool) "ends jitting" true
    (fst (dominant tl.(Array.length tl - 2)) = Phase.Jit)

let test_rate_sampler_counts_ticks () =
  let e = Engine.create () in
  let rs = Mtj_pintool.Rate_sampler.attach ~window:100 e in
  for _ = 1 to 57 do
    Engine.emit e (Cost.make ~alu:10 ());
    Engine.annot e Annot.Dispatch_tick
  done;
  Mtj_pintool.Rate_sampler.finalize rs;
  Alcotest.(check int) "ticks" 57 (Mtj_pintool.Rate_sampler.ticks rs);
  let samples = Mtj_pintool.Rate_sampler.samples rs in
  Alcotest.(check bool) "has samples" true (Array.length samples > 2);
  (* cumulative ticks are monotone *)
  let mono = ref true in
  Array.iteri
    (fun i (_, k) -> if i > 0 && k < snd samples.(i - 1) then mono := false)
    samples;
  Alcotest.(check bool) "monotone" true !mono

let test_rate_sampler_late_attach () =
  (* attached at 1,234 insns with window 100: the first mark is 1,300,
     not the thirteen marks the engine had passed before it attached *)
  let e = Engine.create () in
  Engine.emit e (Cost.make ~alu:1234 ());
  let rs = Mtj_pintool.Rate_sampler.attach ~window:100 e in
  for _ = 1 to 57 do
    Engine.emit e (Cost.make ~alu:10 ());
    Engine.annot e Annot.Dispatch_tick
  done;
  Mtj_pintool.Rate_sampler.finalize rs;
  Alcotest.(check (list (pair int int)))
    "samples from the first mark past the attach point"
    [ (1300, 7); (1400, 17); (1500, 27); (1600, 37); (1700, 47); (1800, 57);
      (1804, 57) ]
    (Array.to_list (Mtj_pintool.Rate_sampler.samples rs))

let test_rate_sampler_work_invariant () =
  (* total ticks equal the number of bytecodes executed: the same program
     on interpreter vs JIT completes the same number of dispatch ticks
     (the paper's "independent measure of work") *)
  let src =
    "def f(n):\n    s = 0\n    for i in range(n):\n        s = s + i\n    return s\nprint(f(4000))\n"
  in
  let ticks config =
    let vm = Mtj_pylite.Vm.create ~config () in
    let rs = Mtj_pintool.Rate_sampler.attach (Mtj_pylite.Vm.engine vm) in
    ignore (Mtj_pylite.Vm.run_source vm src);
    Mtj_pintool.Rate_sampler.finalize rs;
    Mtj_pintool.Rate_sampler.ticks rs
  in
  let t_interp = ticks (Config.with_budget 50_000_000 Config.no_jit) in
  let t_jit = ticks (Config.with_budget 50_000_000 Config.default) in
  (* deoptimized bytecodes are re-executed (and re-counted), so the two
     measures agree only up to the handful of deopts *)
  let delta = abs (t_jit - t_interp) in
  Alcotest.(check bool)
    (Printf.sprintf "work measure close (interp=%d jit=%d)" t_interp t_jit)
    true
    (float_of_int delta < 0.002 *. float_of_int t_interp)

let test_break_even () =
  let e1 = Engine.create () in
  let fast = Mtj_pintool.Rate_sampler.attach ~window:10 e1 in
  let e2 = Engine.create () in
  let slow = Mtj_pintool.Rate_sampler.attach ~window:10 e2 in
  (* fast starts slower (warmup) then races ahead *)
  for i = 1 to 100 do
    Engine.emit e1 (Cost.make ~alu:(if i < 20 then 20 else 2) ());
    Engine.annot e1 Annot.Dispatch_tick
  done;
  for _ = 1 to 100 do
    Engine.emit e2 (Cost.make ~alu:5 ());
    Engine.annot e2 Annot.Dispatch_tick
  done;
  Mtj_pintool.Rate_sampler.finalize fast;
  Mtj_pintool.Rate_sampler.finalize slow;
  match Mtj_pintool.Rate_sampler.break_even fast ~against:slow with
  | Some x -> Alcotest.(check bool) "break even later than start" true (x > 10)
  | None -> Alcotest.fail "expected a break-even point"

let test_aot_attribution_pidigits () =
  let b = Mtj_benchmarks.Registry.find_exn ~lang:Mtj_benchmarks.Registry.Py "pidigits" in
  let config = Config.with_budget 100_000_000 Config.default in
  let vm = Mtj_pylite.Vm.create ~config () in
  let e = Mtj_pylite.Vm.engine vm in
  let at = Mtj_pintool.Aot_attrib.attach e in
  ignore (Mtj_pylite.Vm.run_source vm b.Mtj_benchmarks.Registry.source);
  let top = Mtj_pintool.Aot_attrib.top at ~n:5 in
  let names =
    List.filter_map
      (fun (id, _) -> Option.map Mtj_rt.Aot.name (Mtj_rt.Aot.find id))
      top
  in
  Alcotest.(check bool)
    (Printf.sprintf "bigint functions dominate (%s)" (String.concat "," names))
    true
    (List.exists (fun n -> n = "rbigint.mul" || n = "rbigint.add") names)

let test_app_marker_reaches_listener () =
  let config = Config.with_budget 1_000_000 Config.no_jit in
  let vm = Mtj_pylite.Vm.create ~config () in
  let seen = ref [] in
  Engine.add_listener (Mtj_pylite.Vm.engine vm) (fun ~insns:_ a ->
      match a with Annot.App_marker n -> seen := n :: !seen | _ -> ());
  ignore (Mtj_pylite.Vm.run_source vm "annotate(7)\nannotate(13)\n");
  Alcotest.(check (list int)) "markers" [ 13; 7 ] !seen

let suite =
  [
    Alcotest.test_case "tracker matches counters (synthetic)" `Quick
      test_phase_tracker_matches_counters;
    Alcotest.test_case "tracker attached late" `Quick
      test_phase_tracker_late_attach;
    Alcotest.test_case "tracker matches counters (real run)" `Quick
      test_phase_tracker_on_benchmark;
    Alcotest.test_case "timeline shows warmup" `Quick test_timeline_shows_warmup;
    Alcotest.test_case "rate sampler counts ticks" `Quick
      test_rate_sampler_counts_ticks;
    Alcotest.test_case "rate sampler attached late" `Quick
      test_rate_sampler_late_attach;
    Alcotest.test_case "work measure is VM-independent" `Quick
      test_rate_sampler_work_invariant;
    Alcotest.test_case "break-even detection" `Quick test_break_even;
    Alcotest.test_case "aot attribution on pidigits" `Quick
      test_aot_attribution_pidigits;
    Alcotest.test_case "app-level markers" `Quick test_app_marker_reaches_listener;
  ]
