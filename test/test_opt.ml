(** Direct unit tests of the trace optimizer on hand-constructed IR, and
    of the pure-op evaluator. *)

open Mtj_rjit
module V = Mtj_rt.Value

let cfg = Mtj_core.Config.default
let nopeel = { cfg with Mtj_core.Config.opt_peel = false }

let vi i = Ir.Const (V.of_int i)

let mk ?(result = -1) opcode args = { Ir.opcode; args; result }

let empty_resume = { Ir.frames = []; r_virtuals = [||] }

let guard ?(gkind = Ir.G_true) args =
  {
    Ir.opcode =
      Ir.Guard
        {
          Ir.guard_id = 100_000 + Random.int 10_000;
          gkind;
          resume = empty_resume;
          fail_count = 0;
          bridge = None;
          bridgeable = true;
        };
    args;
    result = -1;
  }

(* a one-frame resume keeping the given registers alive *)
let resume_of regs =
  {
    Ir.frames =
      [
        {
          Ir.snap_code = 0;
          snap_pc = 0;
          snap_locals = Array.of_list (List.map (fun r -> Ir.S_reg r) regs);
          snap_stack = [||];
          snap_discard = false;
        };
      ];
    r_virtuals = [||];
  }

let jump args = mk Ir.Jump args

let optimize ?(config = nopeel) ?(entry = 2) ops =
  let out, _, _ =
    Opt.optimize config ~kind:`Loop (Array.of_list ops) ~entry_slots:entry
  in
  Array.to_list out

let count pred ops = List.length (List.filter pred ops)
let is_guard (op : Ir.op) = match op.Ir.opcode with Ir.Guard _ -> true | _ -> false
let opcode_is o (op : Ir.op) = Ir.node_type op.Ir.opcode = o

let test_constant_folding () =
  (* r2 = 2 + 3 must fold; the jump then carries the constant *)
  let ops =
    [ mk ~result:2 Ir.Int_add [| vi 2; vi 3 |];
      jump [| Ir.Reg 2; Ir.Reg 1 |] ]
  in
  let out = optimize ops in
  Alcotest.(check int) "add folded away" 0 (count (opcode_is "int_add") out);
  match (List.hd (List.rev out)).Ir.args.(0) with
  | Ir.Const c when V.is_int c && V.to_int_unchecked c = 5 -> ()
  | _ -> Alcotest.fail "jump arg not folded to 5"

let test_guard_dedup () =
  let g () = guard ~gkind:(Ir.G_class Ir.Ty_int) [| Ir.Reg 0 |] in
  let ops = [ g (); g (); g (); jump [| Ir.Reg 0; Ir.Reg 1 |] ] in
  let out = optimize ops in
  Alcotest.(check int) "one guard survives" 1 (count is_guard out)

let test_overflow_guard_intbounds () =
  (* r2 = r0 mod 100 -> [0,99]; r3 = r2 + 5 cannot overflow *)
  let ops =
    [ mk ~result:2 Ir.Int_mod [| Ir.Reg 0; vi 100 |];
      mk ~result:3 Ir.Int_add [| Ir.Reg 2; vi 5 |];
      guard ~gkind:Ir.G_no_ovf_add [| Ir.Reg 2; vi 5 |];
      jump [| Ir.Reg 3; Ir.Reg 1 |] ]
  in
  let out = optimize ops in
  Alcotest.(check int) "overflow guard removed" 0 (count is_guard out)

let test_overflow_guard_kept_when_unbounded () =
  let ops =
    [ mk ~result:2 Ir.Int_add [| Ir.Reg 0; Ir.Reg 1 |];
      guard ~gkind:Ir.G_no_ovf_add [| Ir.Reg 0; Ir.Reg 1 |];
      jump [| Ir.Reg 2; Ir.Reg 1 |] ]
  in
  let out = optimize ops in
  Alcotest.(check int) "guard kept" 1 (count is_guard out)

let test_heap_forwarding () =
  (* two getfields of the same field with no effects between *)
  let ops =
    [ mk ~result:2 (Ir.Getfield_gc 0) [| Ir.Reg 0 |];
      mk ~result:3 (Ir.Getfield_gc 0) [| Ir.Reg 0 |];
      mk ~result:4 Ir.Int_add [| Ir.Reg 2; Ir.Reg 3 |];
      guard ~gkind:Ir.G_no_ovf_add [| Ir.Reg 2; Ir.Reg 3 |];
      jump [| Ir.Reg 4; Ir.Reg 1 |] ]
  in
  let out = optimize ops in
  Alcotest.(check int) "one load survives" 1
    (count (opcode_is "getfield_gc") out)

let test_forwarding_invalidated_by_call () =
  let rc =
    {
      Ir.aot = Mtj_rt.Aot.register ~name:"test.effectful" ~src:Mtj_rt.Aot.I;
      run = (fun _ _ -> V.nil);
      effectful = true;
    }
  in
  let ops =
    [ mk ~result:2 (Ir.Getfield_gc 0) [| Ir.Reg 0 |];
      mk (Ir.Call_n rc) [| Ir.Reg 0 |];
      mk ~result:3 (Ir.Getfield_gc 0) [| Ir.Reg 0 |];
      mk ~result:4 Ir.Int_add [| Ir.Reg 2; Ir.Reg 3 |];
      guard ~gkind:Ir.G_no_ovf_add [| Ir.Reg 2; Ir.Reg 3 |];
      jump [| Ir.Reg 4; Ir.Reg 1 |] ]
  in
  let out = optimize ops in
  Alcotest.(check int) "both loads survive" 2
    (count (opcode_is "getfield_gc") out)

let test_dce_removes_unused_pure () =
  let ops =
    [ mk ~result:2 Ir.Int_mul [| Ir.Reg 0; Ir.Reg 0 |];  (* unused *)
      mk ~result:3 Ir.Int_add [| Ir.Reg 0; vi 1 |];
      guard ~gkind:Ir.G_no_ovf_add [| Ir.Reg 0; vi 1 |];
      jump [| Ir.Reg 3; Ir.Reg 1 |] ]
  in
  let out = optimize ops in
  Alcotest.(check int) "mul removed" 0 (count (opcode_is "int_mul") out)

let test_dce_respects_resume () =
  (* the pure op's only use is a guard's resume: must be kept *)
  let g =
    {
      Ir.opcode =
        Ir.Guard
          {
            Ir.guard_id = 999_999;
            gkind = Ir.G_true;
            resume = resume_of [ 2 ];
            fail_count = 0;
            bridge = None;
            bridgeable = true;
          };
      args = [| Ir.Reg 1 |];
      result = -1;
    }
  in
  let ops =
    [ mk ~result:2 Ir.Int_mul [| Ir.Reg 0; Ir.Reg 0 |];
      g;
      jump [| Ir.Reg 0; Ir.Reg 1 |] ]
  in
  let out = optimize ops in
  Alcotest.(check int) "mul kept for resume" 1 (count (opcode_is "int_mul") out)

let test_virtuals_removed_when_private () =
  (* a tuple that never escapes: allocation and field reads disappear *)
  let ops =
    [ mk ~result:2 (Ir.New_array 2) [| Ir.Reg 0; Ir.Reg 1 |];
      mk ~result:3 Ir.Getarrayitem_gc [| Ir.Reg 2; vi 0 |];
      mk ~result:4 Ir.Getarrayitem_gc [| Ir.Reg 2; vi 1 |];
      mk ~result:5 Ir.Int_add [| Ir.Reg 3; Ir.Reg 4 |];
      guard ~gkind:Ir.G_no_ovf_add [| Ir.Reg 3; Ir.Reg 4 |];
      jump [| Ir.Reg 5; Ir.Reg 1 |] ]
  in
  let out = optimize ops in
  Alcotest.(check int) "no allocation" 0 (count (opcode_is "new_array") out);
  Alcotest.(check int) "no element loads" 0
    (count (opcode_is "getarrayitem_gc") out)

let test_virtuals_kept_when_escaping () =
  (* stored via jump: the allocation must survive *)
  let ops =
    [ mk ~result:2 (Ir.New_array 2) [| Ir.Reg 0; Ir.Reg 1 |];
      jump [| Ir.Reg 2; Ir.Reg 1 |] ]
  in
  let out = optimize ops in
  Alcotest.(check int) "allocation kept" 1 (count (opcode_is "new_array") out)

let test_read_back_escapes () =
  (* the tuple is read back out of the cell and then escapes through the
     jump, and the read-back value is the target of a read that stays:
     the cell goes, the tuple must stay, and nothing may name it once
     it is gone *)
  let ops =
    [ mk ~result:2 (Ir.New_array 1) [| Ir.Reg 0 |];
      mk ~result:3 Ir.New_cell [| Ir.Reg 2 |];
      mk ~result:4 Ir.Getcell [| Ir.Reg 3 |];
      mk ~result:5 Ir.Getarrayitem_gc [| Ir.Reg 4; vi 0 |];
      jump [| Ir.Reg 5; Ir.Reg 4 |] ]
  in
  let out = optimize ops in
  Alcotest.(check int) "cell removed" 0 (count (opcode_is "new_cell") out);
  Alcotest.(check int) "tuple kept" 1 (count (opcode_is "new_array") out);
  Alcotest.(check int) "every use defined" 0
    (List.length
       (Opt.verify_defs (Array.of_list out) ~entry_slots:2 ~loop_base:0))

let test_virtual_in_resume_materializes () =
  (* a virtual referenced only by a resume becomes S_virtual with a
     descriptor *)
  let g =
    {
      Ir.opcode =
        Ir.Guard
          {
            Ir.guard_id = 999_998;
            gkind = Ir.G_true;
            resume = resume_of [ 2 ];
            fail_count = 0;
            bridge = None;
            bridgeable = true;
          };
      args = [| Ir.Reg 1 |];
      result = -1;
    }
  in
  let ops =
    [ mk ~result:2 (Ir.New_array 2) [| Ir.Reg 0; vi 7 |];
      g;
      jump [| Ir.Reg 0; Ir.Reg 1 |] ]
  in
  let out = optimize ops in
  Alcotest.(check int) "allocation removed" 0 (count (opcode_is "new_array") out);
  let found = ref false in
  List.iter
    (fun (op : Ir.op) ->
      match op.Ir.opcode with
      | Ir.Guard gg ->
          if Array.length gg.Ir.resume.Ir.r_virtuals = 1 then begin
            (match gg.Ir.resume.Ir.r_virtuals.(0) with
            | Ir.V_tuple [| Ir.S_reg 0; Ir.S_const c |]
              when V.is_int c && V.to_int_unchecked c = 7 ->
                found := true
            | _ -> ());
            List.iter
              (fun (f : Ir.frame_snap) ->
                Array.iter
                  (function
                    | Ir.S_virtual 0 -> ()
                    | Ir.S_reg 2 -> Alcotest.fail "resume kept the raw reg"
                    | _ -> ())
                  f.Ir.snap_locals)
              gg.Ir.resume.Ir.frames
          end
      | _ -> ())
    out;
  Alcotest.(check bool) "vdesc captured" true !found

let test_peeling_duplicates () =
  let ops =
    [ guard ~gkind:(Ir.G_class Ir.Ty_int) [| Ir.Reg 0 |];
      mk ~result:2 Ir.Int_add [| Ir.Reg 0; vi 1 |];
      guard ~gkind:Ir.G_no_ovf_add [| Ir.Reg 0; vi 1 |];
      jump [| Ir.Reg 2; Ir.Reg 1 |] ]
  in
  let out, loop_base, loop_start =
    Opt.optimize cfg ~kind:`Loop (Array.of_list ops) ~entry_slots:2
  in
  Alcotest.(check bool) "peeled" true (loop_start > 0 && loop_base > 0);
  (* the type guard survives only in the preamble: the loop part carries
     the Int fact through the back-edge *)
  let loop_part = Array.sub out loop_start (Array.length out - loop_start) in
  Alcotest.(check int) "no class guard in loop" 0
    (count
       (fun op ->
         match op.Ir.opcode with
         | Ir.Guard { gkind = Ir.G_class _; _ } -> true
         | _ -> false)
       (Array.to_list loop_part))

(* --- pure evaluator --- *)

let test_eval_int_ops () =
  Alcotest.(check bool) "add" true (Eval_op.eval Ir.Int_add [| V.of_int 2; V.of_int 3 |] = V.of_int 5);
  Alcotest.(check bool) "mod" true (Eval_op.eval Ir.Int_mod [| V.of_int (-7); V.of_int 3 |] = V.of_int 2);
  Alcotest.(check bool) "lt" true (Eval_op.eval Ir.Int_lt [| V.of_int 1; V.of_int 2 |] = V.of_bool true);
  (* a shift count at or past the word size clamps: every bit shifts
     out of a non-negative operand, whatever the hardware does with the
     count *)
  List.iter
    (fun (x, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d >> %d" x n)
        true
        (Eval_op.eval Ir.Int_rshift [| V.of_int x; V.of_int n |] = V.of_int 0))
    [ (12345, 62); (12345, 63); (12345, 64); (12345, 100);
      (max_int, 62); (max_int, 63); (max_int, 64); (max_int, 100) ]

let test_eval_errors () =
  Alcotest.(check bool) "div by zero raises" true
    (try ignore (Eval_op.eval Ir.Int_mod [| V.of_int 1; V.of_int 0 |]); false
     with Division_by_zero -> true);
  Alcotest.(check bool) "str index" true
    (try ignore (Eval_op.eval Ir.Strgetitem [| V.of_str "ab"; V.of_int 9 |]); false
     with Ops_intf.Lang_error _ -> true)

let test_eval_not_pure () =
  Alcotest.check_raises "getfield is impure" Eval_op.Not_pure (fun () ->
      ignore (Eval_op.eval (Ir.Getfield_gc 0) [| V.nil |]))

let test_checked_ops () =
  Alcotest.(check int) "ok" 5 (Eval_op.checked_add 2 3);
  Alcotest.check_raises "overflow" Eval_op.Overflow (fun () ->
      ignore (Eval_op.checked_add max_int 1));
  Alcotest.check_raises "mul overflow" Eval_op.Overflow (fun () ->
      ignore (Eval_op.checked_mul max_int 2))

(* --- what the optimizer does not change --- *)

let guard_with ?(gkind = Ir.G_true) resume args =
  match guard ~gkind args with
  | { Ir.opcode = Ir.Guard g; _ } as op ->
      { op with Ir.opcode = Ir.Guard { g with Ir.resume } }
  | _ -> assert false

let merge_point resume =
  mk (Ir.Debug_merge_point { dmp_code = 0; dmp_pc = 0; dmp_resume = resume })
    [||]

let resume_of_op (op : Ir.op) =
  match op.Ir.opcode with
  | Ir.Guard g -> g.Ir.resume
  | Ir.Debug_merge_point d -> d.dmp_resume
  | _ -> Alcotest.fail "no resume"

let optimize_bridge ops =
  let out, _, _ = Opt.optimize cfg ~kind:`Bridge ops ~entry_slots:2 in
  out

let test_unchanged_ops_kept () =
  (* nothing to fold, forward, remove or rewrite: every op comes out
     as it went in *)
  let clean = resume_of [ 0; 1 ] in
  let ops =
    [|
      merge_point clean;
      guard_with clean [| Ir.Reg 0 |];
      mk ~result:2 Ir.Int_add [| Ir.Reg 0; Ir.Reg 1 |];
      guard_with ~gkind:Ir.G_false clean [| Ir.Reg 2 |];
      mk Ir.Finish [| Ir.Reg 2 |];
    |]
  in
  let out = optimize_bridge ops in
  Alcotest.(check int) "every op kept" (Array.length ops) (Array.length out);
  Array.iteri
    (fun i (op : Ir.op) ->
      Alcotest.(check bool) (Printf.sprintf "op %d is its input" i) true
        (op == ops.(i)))
    out

let test_only_changes_rewritten () =
  (* r2 = same_as(r0) folds away, so r2 is substituted by r0: what names
     r2 is rewritten, and nothing else is *)
  let clean = resume_of [ 0; 1 ] and dirty = resume_of [ 1; 2 ] in
  let ops =
    [|
      merge_point clean;
      guard_with clean [| Ir.Reg 0 |];
      mk ~result:2 Ir.Same_as [| Ir.Reg 0 |];
      mk ~result:3 Ir.Int_add [| Ir.Reg 2; Ir.Reg 1 |];
      guard_with ~gkind:(Ir.G_class Ir.Ty_int) clean [| Ir.Reg 2 |];
      merge_point dirty;
      guard_with ~gkind:Ir.G_false dirty [| Ir.Reg 3 |];
      mk Ir.Finish [| Ir.Reg 3 |];
    |]
  in
  let out = optimize_bridge ops in
  let show (op : Ir.op) = Format.asprintf "%a" Ir.pp_op op in
  Alcotest.(check (list string)) "ops"
    [ "debug_merge_point()"; "guard_true(r0)"; "r3 = int_add(r0, r1)";
      "guard_class(r0)"; "debug_merge_point()"; "guard_false(r3)";
      "finish(r3)" ]
    (Array.to_list (Array.map show out));
  let same i j = out.(i) == ops.(j) in
  Alcotest.(check (list bool)) "ops returned as they went in"
    [ true; true; false; false; false; false; true ]
    [ same 0 0; same 1 1; same 2 3; same 3 4; same 4 5; same 5 6; same 6 7 ];
  (* a resume that names no substituted register is returned as it
     is, also by a guard whose arguments were rewritten *)
  Alcotest.(check bool) "clean resume of a rewritten guard" true
    (resume_of_op out.(3) == clean);
  let rewritten = resume_of_op out.(4) in
  Alcotest.(check bool) "dirty resume rewritten" true (rewritten != dirty);
  Alcotest.(check string) "rewritten resume" " [0@0 L r1 r0 S]"
    (Format.asprintf "%a" Ir.pp_resume rewritten);
  Alcotest.(check bool) "a guard shares its merge point's capture" true
    (resume_of_op out.(5) == rewritten)

let suite =
  [
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "unchanged ops come out as they went in" `Quick
      test_unchanged_ops_kept;
    Alcotest.test_case "only what changed is rewritten" `Quick
      test_only_changes_rewritten;
    Alcotest.test_case "guard dedup" `Quick test_guard_dedup;
    Alcotest.test_case "intbounds removes overflow guard" `Quick
      test_overflow_guard_intbounds;
    Alcotest.test_case "unbounded overflow guard kept" `Quick
      test_overflow_guard_kept_when_unbounded;
    Alcotest.test_case "heap forwarding" `Quick test_heap_forwarding;
    Alcotest.test_case "forwarding invalidated by call" `Quick
      test_forwarding_invalidated_by_call;
    Alcotest.test_case "dce removes unused pure" `Quick test_dce_removes_unused_pure;
    Alcotest.test_case "dce respects resume" `Quick test_dce_respects_resume;
    Alcotest.test_case "virtuals removed when private" `Quick
      test_virtuals_removed_when_private;
    Alcotest.test_case "virtuals kept when escaping" `Quick
      test_virtuals_kept_when_escaping;
    Alcotest.test_case "read-back value escapes" `Quick test_read_back_escapes;
    Alcotest.test_case "virtual captured in resume" `Quick
      test_virtual_in_resume_materializes;
    Alcotest.test_case "peeling hoists type guards" `Quick test_peeling_duplicates;
    Alcotest.test_case "eval int ops" `Quick test_eval_int_ops;
    Alcotest.test_case "eval errors" `Quick test_eval_errors;
    Alcotest.test_case "eval not pure" `Quick test_eval_not_pure;
    Alcotest.test_case "checked ops" `Quick test_checked_ops;
  ]
