(** Direct tests of the trace executor's building blocks: frame
    materialization from resume data (including virtual objects), guard
    evaluation, and blackhole accounting. *)

open Mtj_rjit
module V = Mtj_rt.Value
module Counters = Mtj_machine.Counters
module Engine = Mtj_machine.Engine
module Phase = Mtj_core.Phase

let rtc () = Mtj_rt.Ctx.create ()

let snap ?(pc = 3) locals stack =
  {
    Ir.snap_code = 7;
    snap_pc = pc;
    snap_locals = Array.of_list locals;
    snap_stack = Array.of_list stack;
    snap_discard = false;
  }

let test_materialize_plain () =
  let resume =
    {
      Ir.frames = [ snap [ Ir.S_reg 0; Ir.S_const (V.of_int 9) ] [ Ir.S_reg 1 ] ];
      r_virtuals = [||];
    }
  in
  let frames =
    Executor.materialize_frames (rtc ()) resume [| V.of_int 1; V.of_str "s" |]
  in
  match frames with
  | [ f ] ->
      Alcotest.(check int) "pc" 3 f.Executor.df_pc;
      Alcotest.(check bool) "local0" true (f.Executor.df_locals.(0) = V.of_int 1);
      Alcotest.(check bool) "local1" true (f.Executor.df_locals.(1) = V.of_int 9);
      Alcotest.(check bool) "stack" true (f.Executor.df_stack.(0) = V.of_str "s")
  | _ -> Alcotest.fail "expected one frame"

let test_materialize_tuple_virtual () =
  let resume =
    {
      Ir.frames = [ snap [ Ir.S_virtual 0 ] [] ];
      r_virtuals = [| Ir.V_tuple [| Ir.S_reg 0; Ir.S_const (V.of_int 2) |] |];
    }
  in
  let frames = Executor.materialize_frames (rtc ()) resume [| V.of_int 1 |] in
  let v = (List.hd frames).Executor.df_locals.(0) in
  match V.view v with
  | V.Obj { V.payload = V.Tuple [| x; y |]; _ }
    when V.py_eq x (V.of_int 1) && V.py_eq y (V.of_int 2) ->
      ()
  | _ -> Alcotest.fail ("not the expected tuple: " ^ V.repr v)

let test_materialize_nested_virtual () =
  (* virtual 0 is a tuple whose first element is virtual 1 (a cell) *)
  let resume =
    {
      Ir.frames = [ snap [ Ir.S_virtual 0 ] [] ];
      r_virtuals =
        [|
          Ir.V_tuple [| Ir.S_virtual 1; Ir.S_const (V.of_int 5) |];
          Ir.V_cell (Ir.S_reg 0);
        |];
    }
  in
  let frames = Executor.materialize_frames (rtc ()) resume [| V.of_int 42 |] in
  let v = (List.hd frames).Executor.df_locals.(0) in
  match V.view v with
  | V.Obj { V.payload = V.Tuple [| first; _ |]; _ } -> (
      match V.view first with
      | V.Obj { V.payload = V.Cell c; _ } ->
          Alcotest.(check bool) "cell contents" true (c.cell = V.of_int 42)
      | _ -> Alcotest.fail ("wrong shape: " ^ V.repr v))
  | _ -> Alcotest.fail ("wrong shape: " ^ V.repr v)

let test_materialize_shared_virtual () =
  (* the same virtual referenced from two slots materializes ONCE
     (physical identity preserved, as RPython's resume data guarantees) *)
  let resume =
    {
      Ir.frames = [ snap [ Ir.S_virtual 0; Ir.S_virtual 0 ] [] ];
      r_virtuals = [| Ir.V_tuple [| Ir.S_const (V.of_int 1) |] |];
    }
  in
  let frames = Executor.materialize_frames (rtc ()) resume [||] in
  let f = List.hd frames in
  Alcotest.(check bool) "same object" true
    (f.Executor.df_locals.(0) == f.Executor.df_locals.(1))

(* Materializing a virtual allocates in the simulated heap, so the
   order is observable: frames outermost first, each frame's stack
   before its locals.  Object uids are handed out in allocation order. *)
let test_materialize_order () =
  let tuple k = Ir.V_tuple [| Ir.S_const (V.of_int k) |] in
  let resume =
    {
      Ir.frames =
        [ snap [ Ir.S_virtual 0 ] [ Ir.S_virtual 1 ];
          snap [ Ir.S_virtual 2 ] [ Ir.S_virtual 3 ] ];
      r_virtuals = [| tuple 0; tuple 1; tuple 2; tuple 3 |];
    }
  in
  let uid v =
    match V.view v with V.Obj o -> o.V.uid | _ -> Alcotest.fail "not an object"
  in
  match Executor.materialize_frames (rtc ()) resume [||] with
  | [ f0; f1 ] ->
      let order =
        List.map uid
          [ f0.Executor.df_stack.(0); f0.Executor.df_locals.(0);
            f1.Executor.df_stack.(0); f1.Executor.df_locals.(0) ]
      in
      Alcotest.(check (list int)) "allocation order"
        (List.sort compare order) order
  | _ -> Alcotest.fail "expected two frames"

let test_materialize_cyclic_virtual () =
  (* a virtual instance whose field points back at itself must not loop *)
  let c = rtc () in
  let cls =
    Mtj_rt.Gc_sim.alloc (Mtj_rt.Ctx.gc c)
      (V.Class
         {
           V.cls_id = -99;
           cls_name = "node";
           layout = [| "next" |];
           attrs = [];
           parent = None;
         })
  in
  let resume =
    {
      Ir.frames = [ snap [ Ir.S_virtual 0 ] [] ];
      r_virtuals =
        [| Ir.V_instance { v_cls = cls; v_fields = [| Ir.S_virtual 0 |] } |];
    }
  in
  let frames = Executor.materialize_frames c resume [||] in
  match V.view (List.hd frames).Executor.df_locals.(0) with
  | V.Obj ({ V.payload = V.Instance i; _ } as o) -> (
      match V.view i.V.fields.(0) with
      | V.Obj o' -> Alcotest.(check bool) "self loop" true (o' == o)
      | _ -> Alcotest.fail "field not an object")
  | _ -> Alcotest.fail "expected instance"

let test_materialize_list_virtual () =
  let resume =
    {
      Ir.frames = [ snap [ Ir.S_virtual 0 ] [] ];
      r_virtuals =
        [| Ir.V_list [| Ir.S_const (V.of_int 1); Ir.S_const (V.of_int 2) |] |];
    }
  in
  let c = rtc () in
  let frames = Executor.materialize_frames c resume [||] in
  match (List.hd frames).Executor.df_locals.(0) with
  | v when (match V.view v with
            | V.Obj { V.payload = V.List _; _ } -> true
            | _ -> false) ->
      let l =
        match V.view v with
        | V.Obj { V.payload = V.List l; _ } -> l
        | _ -> assert false
      in
      Alcotest.(check int) "len 2" 2 (Mtj_rt.Rlist.length l);
      Alcotest.(check bool) "second elem" true
        (Mtj_rt.Rlist.get c (Mtj_rjit.Semantics.as_obj v) 1 = V.of_int 2)
  | _ -> Alcotest.fail "expected list"

(* --- guard evaluation --- *)

let mk_guard gkind =
  {
    Ir.guard_id = 1;
    gkind;
    resume = { Ir.frames = []; r_virtuals = [||] };
    fail_count = 0;
    bridge = None;
    bridgeable = true;
  }

let holds g vals =
  Executor.guard_test (mk_guard g) (Array.of_list (List.map (fun v () -> v) vals)) ()

let test_guard_kinds () =
  Alcotest.(check bool) "true holds" true (holds Ir.G_true [ V.of_bool true ]);
  Alcotest.(check bool) "true fails on 0" false (holds Ir.G_true [ V.of_int 0 ]);
  Alcotest.(check bool) "false holds" true (holds Ir.G_false [ V.nil ]);
  Alcotest.(check bool) "value" true
    (holds (Ir.G_value (V.of_int 3)) [ V.of_int 3 ]);
  Alcotest.(check bool) "value fail" false
    (holds (Ir.G_value (V.of_int 3)) [ V.of_int 4 ]);
  Alcotest.(check bool) "class int" true
    (holds (Ir.G_class Ir.Ty_int) [ V.of_int 3 ]);
  Alcotest.(check bool) "class mismatch" false
    (holds (Ir.G_class Ir.Ty_int) [ V.of_str "x" ]);
  Alcotest.(check bool) "nonnull" true (holds Ir.G_nonnull [ V.of_int 0 ]);
  Alcotest.(check bool) "nonnull fail" false (holds Ir.G_nonnull [ V.nil ])

let test_guard_overflow_kinds () =
  Alcotest.(check bool) "add ok" true
    (holds Ir.G_no_ovf_add [ V.of_int 1; V.of_int 2 ]);
  Alcotest.(check bool) "add ovf" false
    (holds Ir.G_no_ovf_add [ V.of_int max_int; V.of_int 1 ]);
  Alcotest.(check bool) "sub ovf" false
    (holds Ir.G_no_ovf_sub [ V.of_int min_int; V.of_int 1 ]);
  Alcotest.(check bool) "mul ovf" false
    (holds Ir.G_no_ovf_mul [ V.of_int max_int; V.of_int 2 ]);
  Alcotest.(check bool) "index in range" true
    (holds Ir.G_index_lt [ V.of_int 3; V.of_int 4 ]);
  Alcotest.(check bool) "index at bound" false
    (holds Ir.G_index_lt [ V.of_int 4; V.of_int 4 ]);
  Alcotest.(check bool) "index negative" false
    (holds Ir.G_index_lt [ V.of_int (-1); V.of_int 4 ])

let test_guard_global_version () =
  let cell = ref 5 in
  Alcotest.(check bool) "version match" true
    (holds (Ir.G_global_version (cell, 5)) []);
  incr cell;
  Alcotest.(check bool) "version stale" false
    (holds (Ir.G_global_version (cell, 5)) [])

(* --- blackhole accounting --- *)

let test_blackhole_charges_phase () =
  let c = rtc () in
  let resume =
    {
      Ir.frames = [ snap [ Ir.S_reg 0; Ir.S_reg 1 ] [ Ir.S_const V.nil ] ];
      r_virtuals = [||];
    }
  in
  let frames =
    Executor.blackhole c resume [| V.of_int 1; V.of_int 2 |] ~guard_id:17
  in
  Alcotest.(check int) "one frame" 1 (List.length frames);
  let bh =
    (Counters.phase (Engine.counters (Mtj_rt.Ctx.engine c)) Phase.Blackhole)
      .Counters.insns
  in
  Alcotest.(check bool) "blackhole insns charged" true (bh > 100);
  (* and nothing leaked into the interpreter phase *)
  let interp =
    (Counters.phase (Engine.counters (Mtj_rt.Ctx.engine c)) Phase.Interpreter)
      .Counters.insns
  in
  Alcotest.(check int) "interp untouched" 0 interp

(* --- render helpers --- *)

let test_stacked_bar () =
  let bar =
    Mtj_harness.Render.stacked_bar ~width:10
      [ (Phase.Interpreter, 0.5); (Phase.Jit, 0.5) ]
  in
  Alcotest.(check int) "width" 10 (String.length bar);
  Alcotest.(check string) "halves" "IIIIIJJJJJ" bar

let test_stacked_bar_rounding () =
  (* fractions that don't divide the width evenly still fill exactly *)
  let bar =
    Mtj_harness.Render.stacked_bar ~width:10
      [ (Phase.Interpreter, 1.0 /. 3.0); (Phase.Jit, 2.0 /. 3.0) ]
  in
  Alcotest.(check int) "width" 10 (String.length bar);
  Alcotest.(check bool) "no gap" true (not (String.contains bar ' '))

let test_sparkline () =
  let s = Mtj_harness.Render.sparkline [| 0.0; 0.5; 1.0 |] in
  Alcotest.(check int) "length" 3 (String.length s);
  Alcotest.(check bool) "monotone" true (s.[0] < s.[1] && s.[1] < s.[2]);
  Alcotest.(check bool) "max char" true (s.[2] = '@')

let test_mean_std () =
  let m, s = Mtj_harness.Render.mean_std [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 m;
  Alcotest.(check (float 1e-9)) "std" 2.0 s;
  let m0, s0 = Mtj_harness.Render.mean_std [] in
  Alcotest.(check (float 0.0)) "empty mean" 0.0 m0;
  Alcotest.(check (float 0.0)) "empty std" 0.0 s0

let suite =
  [
    Alcotest.test_case "materialize plain frame" `Quick test_materialize_plain;
    Alcotest.test_case "materialize tuple virtual" `Quick
      test_materialize_tuple_virtual;
    Alcotest.test_case "materialize nested virtual" `Quick
      test_materialize_nested_virtual;
    Alcotest.test_case "shared virtual materializes once" `Quick
      test_materialize_shared_virtual;
    Alcotest.test_case "materialization order" `Quick test_materialize_order;
    Alcotest.test_case "cyclic virtual terminates" `Quick
      test_materialize_cyclic_virtual;
    Alcotest.test_case "materialize list virtual" `Quick
      test_materialize_list_virtual;
    Alcotest.test_case "guard kinds" `Quick test_guard_kinds;
    Alcotest.test_case "overflow/index guards" `Quick test_guard_overflow_kinds;
    Alcotest.test_case "global version guard" `Quick test_guard_global_version;
    Alcotest.test_case "blackhole charges its phase" `Quick
      test_blackhole_charges_phase;
    Alcotest.test_case "stacked bar" `Quick test_stacked_bar;
    Alcotest.test_case "stacked bar rounding" `Quick test_stacked_bar_rounding;
    Alcotest.test_case "sparkline" `Quick test_sparkline;
    Alcotest.test_case "mean/std" `Quick test_mean_std;
  ]
