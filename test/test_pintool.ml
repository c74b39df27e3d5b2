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
    Engine.tick e
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
    Engine.tick e
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
    Engine.tick e1
  done;
  for _ = 1 to 100 do
    Engine.emit e2 (Cost.make ~alu:5 ());
    Engine.tick e2
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

(* --- mark-driven sampling against the every-tick algorithm --- *)

(* The reference: the sampling rule applied at every tick.  A mark
   listener at mark 0 that always returns 0 hears every tick; it counts
   each one and, once the instruction count has reached its next window
   mark, records (mark, ticks) for every mark it passed.  [Rate_sampler]
   asks the engine for its window marks instead; the two must record the
   same samples. *)
module Ref_sampler = struct
  type t = {
    window : int;
    mutable ticks : int;
    mutable next_mark : int;
    mutable rev_samples : (int * int) list;
    engine : Engine.t;
    mutable finalized : bool;
  }

  let attach ~window engine =
    let t =
      {
        window;
        ticks = 0;
        next_mark = ((Engine.total_insns engine / window) + 1) * window;
        rev_samples = [];
        engine;
        finalized = false;
      }
    in
    Engine.add_mark_listener engine ~mark:0 (fun ~insns ~ticks:_ ->
        t.ticks <- t.ticks + 1;
        while insns >= t.next_mark do
          t.rev_samples <- (t.next_mark, t.ticks) :: t.rev_samples;
          t.next_mark <- t.next_mark + t.window
        done;
        0);
    t

  let finalize t =
    if not t.finalized then begin
      t.rev_samples <-
        (Engine.total_insns t.engine, t.ticks) :: t.rev_samples;
      t.finalized <- true
    end

  let samples t = Array.of_list (List.rev t.rev_samples)
end

module Rs = Mtj_pintool.Rate_sampler

type tick_ev =
  | T_emit of int  (* a bundle of this many instructions *)
  | T_tick  (* [Engine.tick] *)

let tick_ev_str = function
  | T_emit n -> Printf.sprintf "emit %d" n
  | T_tick -> "tick"

let apply_tick_ev e = function
  | T_emit n -> Engine.emit e (Cost.make ~alu:n ())
  | T_tick -> Engine.tick e

(* a window, a stream of emits (0 to 3 windows' worth) and ticks, and
   the stream index at which the samplers attach *)
let gen_tick_stream rng =
  let window = 1 + Random.State.int rng 300 in
  let n = 1 + Random.State.int rng 200 in
  let evs =
    Array.init n (fun _ ->
        if Random.State.int rng 10 < 3 then
          T_emit (Random.State.int rng ((3 * window) + 1))
        else T_tick)
  in
  (window, evs, Random.State.int rng (n + 1))

(* run [evs] on a fresh engine, calling [attach] before event [at];
   returns what [read] reports after the last event *)
let drive_ticks evs ~at ~attach ~read =
  let e = Engine.create () in
  let s = ref None in
  Array.iteri
    (fun i ev ->
      if i = at then s := Some (attach e);
      apply_tick_ev e ev)
    evs;
  let s = match !s with Some s -> s | None -> attach e in
  read e s

let samples_str s =
  String.concat " "
    (Array.to_list (Array.map (fun (i, k) -> Printf.sprintf "%d:%d" i k) s))

(* samples and ticks before and after [finalize], and the engine's count *)
let rs_reading e s =
  let mid = (Rs.samples s, Rs.ticks s) in
  Rs.finalize s;
  ((mid, (Rs.samples s, Rs.ticks s)), Engine.ticks e)

let ref_reading (s : Ref_sampler.t) =
  let mid = (Ref_sampler.samples s, s.Ref_sampler.ticks) in
  Ref_sampler.finalize s;
  (mid, (Ref_sampler.samples s, s.Ref_sampler.ticks))

let reading_str ((s, k), (fs, fk)) =
  Printf.sprintf "before finalize: ticks %d [%s]\nafter: ticks %d [%s]" k
    (samples_str s) fk (samples_str fs)

let prop_marks_match_every_tick =
  QCheck.Test.make ~count:500 ~long_factor:30
    ~name:"mark-driven sampling records the every-tick samples"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed; 0x7A11 |] in
      let window, evs, at = gen_tick_stream rng in
      let got, engine_ticks =
        drive_ticks evs ~at ~attach:(fun e -> Rs.attach ~window e)
          ~read:rs_reading
      in
      let want =
        drive_ticks evs ~at
          ~attach:(fun e -> Ref_sampler.attach ~window e)
          ~read:(fun _ s -> ref_reading s)
      in
      let all_ticks =
        Array.fold_left
          (fun n ev -> match ev with T_emit _ -> n | T_tick -> n + 1)
          0 evs
      in
      if reading_str got <> reading_str want || engine_ticks <> all_ticks
      then
        QCheck.Test.fail_reportf
          "window %d, attach before event %d, engine ticks %d of %d\n\
           stream: %s\n--- reference:\n%s\n--- Rate_sampler:\n%s"
          window at engine_ticks all_ticks
          (String.concat "; " (Array.to_list (Array.map tick_ev_str evs)))
          (reading_str want) (reading_str got)
      else true)

let fixed_stream =
  let rng = Random.State.make [| 5; 0x7A11 |] in
  Array.init 400 (fun _ ->
      if Random.State.int rng 3 = 0 then T_emit (Random.State.int rng 700)
      else T_tick)

let check_samples name want got =
  Alcotest.(check (list (pair int int))) name (Array.to_list want)
    (Array.to_list got)

(* the reference's samples and ticks after [finalize], over
   [fixed_stream] with the sampler attached before event [at] *)
let reference ~window ~at =
  drive_ticks fixed_stream ~at
    ~attach:(fun e -> Ref_sampler.attach ~window e)
    ~read:(fun _ s -> snd (ref_reading s))

let test_two_samplers () =
  (* two windows on one engine: each records what a reference with
     that window alone records *)
  let e = Engine.create () in
  let a = Rs.attach ~window:97 e in
  Array.iteri (fun i ev -> if i < 50 then apply_tick_ev e ev) fixed_stream;
  let b = Rs.attach ~window:256 e in
  Array.iteri (fun i ev -> if i >= 50 then apply_tick_ev e ev) fixed_stream;
  Rs.finalize a;
  Rs.finalize b;
  let ra, ka = reference ~window:97 ~at:0
  and rb, kb = reference ~window:256 ~at:50 in
  Alcotest.(check bool) "both record samples" true
    (Array.length ra > 3 && Array.length rb > 3);
  check_samples "window 97" ra (Rs.samples a);
  check_samples "window 256, attached late" rb (Rs.samples b);
  Alcotest.(check int) "window 97 ticks" ka (Rs.ticks a);
  Alcotest.(check int) "window 256 ticks since its attach" kb (Rs.ticks b)

let test_sampler_beside_sink () =
  (* a sink asks for its own sample marks: beside them the sampler
     still records at its marks alone, and both count every tick *)
  let e = Engine.create () in
  let sink = Mtj_obs.Sink.attach ~counter_window:50 e in
  let s = Rs.attach ~window:120 e in
  Array.iter (apply_tick_ev e) fixed_stream;
  Rs.finalize s;
  Mtj_obs.Sink.finalize sink;
  let want, k = reference ~window:120 ~at:0 in
  check_samples "samples beside a sink" want (Rs.samples s);
  Alcotest.(check int) "sampler ticks" k (Rs.ticks s);
  Alcotest.(check int) "sink ticks" k (Mtj_obs.Sink.ticks sink)

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
    Alcotest.test_case "two samplers on one engine" `Quick test_two_samplers;
    Alcotest.test_case "sampler beside a sink" `Quick test_sampler_beside_sink;
    QCheck_alcotest.to_alcotest prop_marks_match_every_tick;
  ]
