(** Invariants of the cross-layer annotation stream itself.

    The pintool listeners (phase tracker, rate sampler, AOT attribution)
    all assume the stream is well-formed: phase pushes/pops balance like
    parentheses, AOT enters/exits pair up, and trace enter/exit events
    bracket JIT execution. Runs real programs under an eagerly-JITting
    VM — exercising tracing, deopts, bridges, GC and AOT calls — and
    checks the raw stream, not any listener's digest of it. *)

module V = Mtj_pylite.Vm
module C = Mtj_core.Config
module A = Mtj_core.Annot
module Phase = Mtj_core.Phase

type stats = {
  mutable max_phase_depth : int;
  mutable gc_inside_jit : bool;
  mutable aot_depth : int;
  mutable max_aot_depth : int;
  mutable ticks : int;
  mutable guard_fails : int;
  mutable compiles : int;
  mutable aborts : int;
  mutable violations : string list;
}

let collect src config =
  let vm = V.create ~config () in
  let st =
    {
      max_phase_depth = 0;
      gc_inside_jit = false;
      aot_depth = 0;
      max_aot_depth = 0;
      ticks = 0;
      guard_fails = 0;
      compiles = 0;
      aborts = 0;
      violations = [];
    }
  in
  let phase_stack = ref [] in
  let trace_stack = ref [] in
  let violate fmt =
    Printf.ksprintf (fun m -> st.violations <- m :: st.violations) fmt
  in
  Mtj_machine.Engine.add_listener (V.engine vm) (fun ~insns:_ a ->
      match a with
      | A.Phase_push p ->
          (match (p, !phase_stack) with
          | (Phase.Gc_minor | Phase.Gc_major), (Phase.Jit | Phase.Jit_call) :: _
            ->
              st.gc_inside_jit <- true
          | _ -> ());
          phase_stack := p :: !phase_stack;
          st.max_phase_depth <-
            max st.max_phase_depth (List.length !phase_stack)
      | A.Phase_pop p -> (
          match !phase_stack with
          | top :: rest when top = p -> phase_stack := rest
          | top :: _ ->
              violate "pop %s but top is %s" (Phase.name p) (Phase.name top)
          | [] -> violate "pop %s on empty phase stack" (Phase.name p))
      | A.Aot_enter _ ->
          st.aot_depth <- st.aot_depth + 1;
          st.max_aot_depth <- max st.max_aot_depth st.aot_depth
      | A.Aot_exit _ ->
          if st.aot_depth = 0 then violate "aot exit at depth 0"
          else st.aot_depth <- st.aot_depth - 1
      | A.Trace_enter id -> trace_stack := id :: !trace_stack
      | A.Trace_exit id -> (
          match !trace_stack with
          | top :: rest when top = id -> trace_stack := rest
          | top :: _ -> violate "trace exit %d but top is %d" id top
          | [] -> violate "trace exit %d with no trace entered" id)
      | A.Guard_fail _ ->
          st.guard_fails <- st.guard_fails + 1;
          if !trace_stack = [] then violate "guard fail outside any trace"
      | A.Trace_compile _ -> (
          st.compiles <- st.compiles + 1;
          match !phase_stack with
          | Phase.Tracing :: _ -> ()
          | _ -> violate "trace_compile outside the tracing phase")
      | A.Trace_abort _ -> (
          st.aborts <- st.aborts + 1;
          match !phase_stack with
          | Phase.Tracing :: _ -> ()
          | _ -> violate "trace_abort outside the tracing phase")
      | A.App_marker _ -> ());
  (match V.run_source vm src with
  | Mtj_rjit.Driver.Completed _ -> ()
  | Mtj_rjit.Driver.Budget_exceeded -> Alcotest.fail "budget"
  | Mtj_rjit.Driver.Runtime_error e -> Alcotest.failf "error: %s" e);
  st.ticks <- Mtj_machine.Engine.ticks (V.engine vm);
  if !phase_stack <> [] then
    violate "%d phases still open at exit" (List.length !phase_stack);
  if !trace_stack <> [] then
    violate "%d traces still open at exit" (List.length !trace_stack);
  if st.aot_depth <> 0 then violate "aot depth %d at exit" st.aot_depth;
  st

let eager =
  {
    C.default with
    C.jit_threshold = 7;
    bridge_threshold = 3;
    insn_budget = 80_000_000;
  }

let check st =
  Alcotest.(check (list string)) "no stream violations" [] st.violations

(* numeric loop: traces, overflow guards, AOT float calls *)
let test_numeric_stream () =
  let st =
    collect
      "s = 0.0\n\
       for i in range(3000):\n\
      \    s = s + i * 1.5\n\
       print(s)\n"
      eager
  in
  check st;
  Alcotest.(check bool) "ticks counted" true (st.ticks > 3000);
  Alcotest.(check bool) "phases nested" true (st.max_phase_depth >= 2);
  Alcotest.(check bool) "compiles announced" true (st.compiles >= 1)

(* allocation loop under a tiny nursery: GC interrupts JIT code *)
let test_gc_interrupts_stream () =
  let st =
    collect
      (* the rows escape into [out], so the trace must really allocate
         (a non-escaping list would be virtualized away) *)
      "out = []\n\
       acc = 0\n\
       for i in range(2500):\n\
      \    xs = [i, i + 1, i + 2]\n\
      \    out.append(xs)\n\
      \    acc = acc + xs[2]\n\
       print(acc)\n"
      { eager with C.nursery_words = 512 }
  in
  check st;
  Alcotest.(check bool) "gc interrupted jit code" true st.gc_inside_jit

(* branchy loop: bridges and guard failures *)
let test_bridgy_stream () =
  let st =
    collect
      "acc = 0\n\
       for i in range(4000):\n\
      \    if i % 7 == 0:\n\
      \        acc = acc + 2\n\
      \    elif i % 3 == 0:\n\
      \        acc = acc - 1\n\
      \    else:\n\
      \        acc = acc + i\n\
       print(acc)\n"
      eager
  in
  check st;
  Alcotest.(check bool) "guard failures observed" true (st.guard_fails > 0)

(* dict/string workload: AOT calls from traces, nesting *)
let test_aot_stream () =
  let st =
    collect
      "d = {}\n\
       for i in range(2000):\n\
      \    k = \"k\" + str(i % 50)\n\
      \    if k in d:\n\
      \        d[k] = d[k] + 1\n\
      \    else:\n\
      \        d[k] = 1\n\
       total = 0\n\
       for k in d:\n\
      \    total = total + d[k]\n\
       print(total)\n"
      eager
  in
  check st;
  Alcotest.(check bool) "AOT calls observed" true (st.max_aot_depth >= 1)

(* two-tier mode must keep the stream well-formed across retier exits *)
let test_tiered_stream () =
  let st =
    collect
      "s = 0\nfor i in range(3000):\n    s = s + i\nprint(s)\n"
      { eager with C.tier_policy = C.Adaptive; tier2_threshold = 10 }
  in
  check st

let suite =
  [
    Alcotest.test_case "numeric loop stream" `Quick test_numeric_stream;
    Alcotest.test_case "gc interrupts jit" `Quick test_gc_interrupts_stream;
    Alcotest.test_case "bridgy loop stream" `Quick test_bridgy_stream;
    Alcotest.test_case "aot calls from traces" `Quick test_aot_stream;
    Alcotest.test_case "two-tier stream" `Quick test_tiered_stream;
  ]
