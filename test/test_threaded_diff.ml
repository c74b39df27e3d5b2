(** Differential test of the continuation-threaded executor ({!Executor.run})
    against the reference interpreting loop ({!Executor.run_ref}).

    Random traces, straight-line or looping (integer/float/string
    arithmetic, heap traffic, failable guards, division that
    deoptimizes at the bytecode boundary), and deterministic loop /
    bridge / call_assembler / tiered scenarios are executed through both
    strategies in fresh contexts.
    Everything observable must be BYTE-IDENTICAL: the exit state
    (finished value, failed guard, materialized frames), per-phase
    simulated machine counters (including float cycles, compared
    exactly), trace entry counts, per-op execution counts, and guard
    fail counts.  The threaded form is an execution-strategy change
    only; any divergence is a bug in the translation. *)

open Mtj_rjit
module V = Mtj_rt.Value
module Counters = Mtj_machine.Counters
module Engine = Mtj_machine.Engine
module Config = Mtj_core.Config
module Phase = Mtj_core.Phase

type executor =
  Mtj_rt.Ctx.t ->
  Jitlog.t ->
  trace:Ir.trace ->
  entry:V.t array ->
  Executor.exit_state

(* ---------- observation digest ---------- *)

let render_frame buf (f : Executor.deopt_frame) =
  Buffer.add_string buf
    (Printf.sprintf "|frame code=%d pc=%d discard=%b locals="
       f.Executor.df_code f.Executor.df_pc f.Executor.df_discard);
  Array.iter (fun v -> Buffer.add_string buf (V.repr v ^ ",")) f.Executor.df_locals;
  Buffer.add_string buf " stack=";
  Array.iter (fun v -> Buffer.add_string buf (V.repr v ^ ",")) f.Executor.df_stack

let render_exit (ex : Executor.exit_state) =
  let buf = Buffer.create 128 in
  (match ex with
  | Executor.Finished v -> Buffer.add_string buf ("finish:" ^ V.repr v)
  | Executor.Deopt { frames; guard; trace; request_bridge } ->
      Buffer.add_string buf "deopt";
      Option.iter
        (fun g -> Buffer.add_string buf (Printf.sprintf "|guard=%d" g.Ir.guard_id))
        guard;
      Buffer.add_string buf
        (Printf.sprintf "|in=%d|bridge?=%b" trace.Ir.trace_id request_bridge);
      List.iter (render_frame buf) frames
  | Executor.Tier_up f ->
      Buffer.add_string buf "tier-up";
      render_frame buf f);
  Buffer.contents buf

(* everything the machine and the JIT runtime expose about a run *)
let observe rtc (traces : Ir.trace list) exits =
  let buf = Buffer.create 256 in
  List.iteri
    (fun i e ->
      Buffer.add_string buf (Printf.sprintf "exit%d: %s\n" i e))
    exits;
  let counters = Engine.counters (Mtj_rt.Ctx.engine rtc) in
  List.iter
    (fun p ->
      let s = Counters.phase counters p in
      if s.Counters.insns <> 0 then
        Buffer.add_string buf
          (Printf.sprintf "%s: %s\n" (Phase.name p)
             (Run_digest.snap_str s)))
    Phase.all;
  Buffer.add_string buf
    ("total: " ^ Run_digest.snap_str (Counters.total counters) ^ "\n");
  List.iter
    (fun (t : Ir.trace) ->
      Buffer.add_string buf
        (Printf.sprintf "trace%d: entries=%d op_exec=[%s] fails=[%s]\n"
           t.Ir.trace_id t.Ir.exec_count
           (String.concat ","
              (List.map string_of_int (Array.to_list t.Ir.op_exec)))
           (String.concat ","
              (Array.to_list t.Ir.ops
              |> List.filter_map (fun (op : Ir.op) ->
                     match op.Ir.opcode with
                     | Ir.Guard g ->
                         Some
                           (Printf.sprintf "%d:%d" g.Ir.guard_id
                              g.Ir.fail_count)
                     | _ -> None)))))
    traces;
  Buffer.contents buf

(* run [exec] and render the exit (exceptions render too: the threaded
   executor must raise exactly what the reference loop raises) *)
let exit_of (exec : executor) rtc jitlog trace entry =
  match exec rtc jitlog ~trace ~entry:(Array.copy entry) with
  | ex -> render_exit ex
  | exception e -> "raise:" ^ Printexc.to_string e

(* ---------- random straight-line traces ---------- *)

type rkind = RInt | RFloat | RBool | RStr | RArr | RCell | RList

let guard_ctr = ref 0

type gen_state = {
  rng : Random.State.t;
  mutable ops : Ir.op list; (* reversed *)
  mutable regs : (int * rkind) list; (* newest first *)
  mutable next : int;
}

let fresh st kind =
  let r = st.next in
  st.next <- r + 1;
  st.regs <- (r, kind) :: st.regs;
  r

let push st op = st.ops <- op :: st.ops
let emit st ?(result = -1) opcode args = push st { Ir.opcode; args; result }

let pick_kind st kind =
  let cands = List.filter (fun (_, k) -> k = kind) st.regs in
  match cands with
  | [] -> None
  | _ ->
      Some (fst (List.nth cands (Random.State.int st.rng (List.length cands))))

let live_snap st =
  let n = 1 + Random.State.int st.rng 4 in
  let all = Array.of_list (List.map fst st.regs) in
  let live =
    Array.init n (fun _ ->
        Ir.S_reg all.(Random.State.int st.rng (Array.length all)))
  in
  {
    Ir.frames =
      [
        {
          Ir.snap_code = 1;
          snap_pc = Random.State.int st.rng 64;
          snap_locals = live;
          snap_stack = [||];
          snap_discard = false;
        };
      ];
    r_virtuals = [||];
  }

let emit_guard st gkind args =
  incr guard_ctr;
  push st
    {
      Ir.opcode =
        Ir.Guard
          {
            Ir.guard_id = 500_000 + !guard_ctr;
            gkind;
            resume = live_snap st;
            fail_count = 0;
            bridge = None;
            bridgeable = true;
          };
      args;
      result = -1;
    }

let emit_dmp st =
  emit st
    (Ir.Debug_merge_point
       { dmp_code = 1; dmp_pc = Random.State.int st.rng 64;
         dmp_resume = live_snap st })
    [||]

let gen_step st =
  let rnd n = Random.State.int st.rng n in
  let int_reg () = Option.get (pick_kind st RInt) in
  let float_reg () = Option.get (pick_kind st RFloat) in
  match rnd 20 with
  | 0 | 1 ->
      (* int arithmetic; the multiply is unguarded, so it wraps *)
      let a = int_reg () and b = int_reg () in
      let opc =
        match rnd 6 with
        | 0 -> Ir.Int_add
        | 1 -> Ir.Int_sub
        | 2 -> Ir.Int_xor
        | 3 -> Ir.Int_and
        | 4 -> Ir.Int_mul
        | _ -> Ir.Int_or
      in
      let r = fresh st RInt in
      emit st ~result:r opc [| Ir.Reg a; Ir.Reg b |]
  | 2 ->
      (* int op immediately followed by its overflow guard, the pair the
         recorder always emits; the guard recomputes the op checked *)
      let a = int_reg () and b = int_reg () in
      let opc, gk =
        match rnd 3 with
        | 0 -> (Ir.Int_add, Ir.G_no_ovf_add)
        | 1 -> (Ir.Int_sub, Ir.G_no_ovf_sub)
        | _ -> (Ir.Int_mul, Ir.G_no_ovf_mul)
      in
      let args = [| Ir.Reg a; Ir.Reg b |] in
      let r = fresh st RInt in
      emit st ~result:r opc args;
      emit_guard st gk (Array.copy args)
  | 3 ->
      (* compare immediately followed by a guard on its result; fails
         on real data *)
      let a = int_reg () and b = int_reg () in
      let opc =
        match rnd 6 with
        | 0 -> Ir.Int_lt
        | 1 -> Ir.Int_le
        | 2 -> Ir.Int_eq
        | 3 -> Ir.Int_ne
        | 4 -> Ir.Int_gt
        | _ -> Ir.Int_ge
      in
      let r = fresh st RBool in
      emit st ~result:r opc [| Ir.Reg a; Ir.Reg b |];
      emit_guard st
        (if rnd 2 = 0 then Ir.G_true else Ir.G_false)
        [| Ir.Reg r |]
  | 4 ->
      (* division: raises at 0 and deopts to the bytecode boundary *)
      let a = int_reg () and b = int_reg () in
      let r = fresh st RInt in
      emit st ~result:r
        (if rnd 2 = 0 then Ir.Int_floordiv else Ir.Int_mod)
        [| Ir.Reg a; Ir.Reg b |]
  | 5 ->
      (* float arithmetic; truediv by zero deopts at the boundary *)
      let a = float_reg () and b = float_reg () in
      let opc =
        match rnd 4 with
        | 0 -> Ir.Float_add
        | 1 -> Ir.Float_sub
        | 2 -> Ir.Float_mul
        | _ -> Ir.Float_truediv
      in
      let r = fresh st RFloat in
      emit st ~result:r opc [| Ir.Reg a; Ir.Reg b |]
  | 6 ->
      (* float compare + guard on its result *)
      let a = float_reg () and b = float_reg () in
      let opc =
        match rnd 6 with
        | 0 -> Ir.Float_lt
        | 1 -> Ir.Float_le
        | 2 -> Ir.Float_eq
        | 3 -> Ir.Float_ne
        | 4 -> Ir.Float_ge
        | _ -> Ir.Float_gt
      in
      let r = fresh st RBool in
      emit st ~result:r opc [| Ir.Reg a; Ir.Reg b |];
      if rnd 2 = 0 then emit_guard st Ir.G_true [| Ir.Reg r |]
  | 7 ->
      let a = int_reg () in
      let r = fresh st RFloat in
      emit st ~result:r Ir.Cast_int_to_float [| Ir.Reg a |]
  | 8 ->
      (* unary int ops *)
      let a = int_reg () in
      let r = fresh st (if rnd 2 = 0 then RInt else RBool) in
      (match rnd 3 with
      | 0 -> emit st ~result:r Ir.Int_neg [| Ir.Reg a |]
      | 1 -> emit st ~result:r Ir.Int_is_true [| Ir.Reg a |]
      | _ -> emit st ~result:r Ir.Int_is_zero [| Ir.Reg a |])
  | 9 -> (
      (* strings: bounded concat, length, equality, failable getitem *)
      match pick_kind st RStr with
      | None -> ()
      | Some s -> (
          match rnd 6 with
          | 4 ->
              let r = fresh st RInt in
              emit st ~result:r Ir.Unicode_len [| Ir.Reg s |]
          | 5 ->
              let r = fresh st RStr in
              emit st ~result:r Ir.Unicode_getitem
                [| Ir.Reg s; Ir.Const (V.of_int (rnd 6)) |]
          | 0 ->
              let r = fresh st RStr in
              emit st ~result:r Ir.Str_concat
                [| Ir.Reg s; Ir.Const (V.of_str "ab") |]
          | 1 ->
              let r = fresh st RInt in
              emit st ~result:r Ir.Strlen [| Ir.Reg s |]
          | 2 ->
              let r = fresh st RBool in
              emit st ~result:r Ir.Str_eq
                [| Ir.Reg s; Ir.Const (V.of_str "xy") |]
          | _ ->
              let r = fresh st RStr in
              emit st ~result:r Ir.Strgetitem
                [| Ir.Reg s; Ir.Const (V.of_int (rnd 6)) |]))
  | 10 ->
      (* heap: a cell created from an int, read back *)
      let v = int_reg () in
      let cell = fresh st RCell in
      emit st ~result:cell Ir.New_cell [| Ir.Reg v |];
      let r = fresh st RInt in
      emit st ~result:r Ir.Getcell [| Ir.Reg cell |]
  | 11 -> (
      match pick_kind st RCell with
      | None -> ()
      | Some cell ->
          let v = int_reg () in
          emit st Ir.Setcell [| Ir.Reg cell; Ir.Reg v |])
  | 12 -> (
      (* tuples: create / read (charges a simulated memory access) *)
      match pick_kind st RArr with
      | None ->
          let a = int_reg () and b = int_reg () in
          let t = fresh st RArr in
          emit st ~result:t (Ir.New_array 2) [| Ir.Reg a; Ir.Reg b |]
      | Some t ->
          let r = fresh st RInt in
          emit st ~result:r Ir.Getarrayitem_gc
            [| Ir.Reg t; Ir.Const (V.of_int (rnd 2)) |])
  | 13 -> (
      (* lists: create or mutate + read *)
      match pick_kind st RList with
      | None ->
          let a = int_reg () and b = int_reg () in
          let l = fresh st RList in
          emit st ~result:l (Ir.New_list 2) [| Ir.Reg a; Ir.Reg b |]
      | Some l ->
          let v = int_reg () in
          emit st Ir.Setlistitem
            [| Ir.Reg l; Ir.Const (V.of_int (rnd 2)); Ir.Reg v |];
          let r = fresh st RInt in
          emit st ~result:r Ir.Getlistitem
            [| Ir.Reg l; Ir.Const (V.of_int (rnd 2)) |])
  | 14 ->
      (* standalone guards that can fail *)
      let a = int_reg () in
      let gk =
        match rnd 4 with
        | 0 -> Ir.G_index_lt
        | 1 -> Ir.G_value (V.of_int (rnd 8))
        | 2 -> Ir.G_class (if rnd 4 = 0 then Ir.Ty_float else Ir.Ty_int)
        | _ -> Ir.G_nonnull
      in
      let args =
        match gk with
        | Ir.G_index_lt -> [| Ir.Reg a; Ir.Const (V.of_int (rnd 40)) |]
        | _ -> [| Ir.Reg a |]
      in
      emit_guard st gk args
  | 15 ->
      (* shifts, operands drawn from the recorder's domains: a right
         shift of a non-negative int by 0-100 (at or past the word size
         the count clamps), a left shift of an int within +-2^20 by a
         constant below 40 *)
      let masked = fresh st RInt in
      emit st ~result:masked Ir.Int_and
        [| Ir.Reg (int_reg ()); Ir.Const (V.of_int 0xFFFFF) |];
      let r = fresh st RInt in
      if rnd 2 = 0 then
        emit st ~result:r Ir.Int_rshift
          [| Ir.Reg masked; Ir.Const (V.of_int (rnd 101)) |]
      else begin
        let x = fresh st RInt in
        emit st ~result:x Ir.Int_sub
          [| Ir.Reg masked; Ir.Const (V.of_int 0x80000) |];
        emit st ~result:r Ir.Int_lshift
          [| Ir.Reg x; Ir.Const (V.of_int (rnd 40)) |]
      end
  | 16 -> (
      (* unary float ops and the truncating cast back to int *)
      let a = float_reg () in
      match rnd 3 with
      | 0 -> emit st ~result:(fresh st RFloat) Ir.Float_neg [| Ir.Reg a |]
      | 1 -> emit st ~result:(fresh st RFloat) Ir.Float_abs [| Ir.Reg a |]
      | _ -> emit st ~result:(fresh st RInt) Ir.Cast_float_to_int [| Ir.Reg a |])
  | 17 ->
      (* identity compares on ints or heap objects, sometimes followed by
         a guard on the result *)
      let kind =
        match (pick_kind st RArr, pick_kind st RList) with
        | Some _, _ when rnd 2 = 0 -> RArr
        | _, Some _ when rnd 2 = 0 -> RList
        | _ -> RInt
      in
      let a = Option.get (pick_kind st kind)
      and b = Option.get (pick_kind st kind) in
      let r = fresh st RBool in
      emit st ~result:r
        (if rnd 2 = 0 then Ir.Ptr_eq else Ir.Ptr_ne)
        [| Ir.Reg a; Ir.Reg b |];
      if rnd 2 = 0 then
        emit_guard st
          (if rnd 2 = 0 then Ir.G_true else Ir.G_false)
          [| Ir.Reg r |]
  | 18 ->
      let a = int_reg () in
      emit st ~result:(fresh st RInt) Ir.Same_as [| Ir.Reg a |]
  | _ -> emit_dmp st

(* xor-fold the int registers so corrupted dataflow changes the answer *)
let epilogue st =
  let acc = ref (Option.get (pick_kind st RInt)) in
  List.iter
    (fun (r, k) ->
      if k = RInt then begin
        let nr = fresh st RInt in
        emit st ~result:nr Ir.Int_xor [| Ir.Reg !acc; Ir.Reg r |];
        acc := nr
      end)
    st.regs;
  emit st Ir.Finish [| Ir.Reg !acc |]

let entry_slots = 6 (* 3 ints, 2 floats, 1 string *)

(* A third of the programs are loops: a back-edge to [loop_start]
   refills the entry registers from the body's results and counts the
   iteration in one more entry register, and a [G_true] guard on
   [counter < limit] before the back-edge makes every run leave the
   loop.  Half of the loops are peeled: a preamble of a few ops runs
   once before [loop_start], the others jump back to op 0.  The merge
   points at op 0 and at the loop head are each drawn present or
   absent, so a boundary failure early in a segment meets both sides of
   the segment rule.  The other programs run straight to a [finish],
   from a merge point.  Returns the ops, the entry values and
   [loop_start]. *)
let gen_program seed =
  let rng = Random.State.make [| seed; 0x7d1f |] in
  let looped = Random.State.int rng 3 = 0 in
  let counter = entry_slots in
  let next = if looped then counter + 1 else entry_slots in
  let st = { rng; ops = []; regs = []; next } in
  let kinds = [ RInt; RInt; RInt; RFloat; RFloat; RStr ] in
  List.iteri (fun i k -> st.regs <- (i, k) :: st.regs) kinds;
  (* the body may read the counter, so its values move per iteration *)
  if looped then st.regs <- (counter, RInt) :: st.regs;
  (* a straight-line program starts at a merge point, so its boundary
     deopts always have a resume *)
  if (not looped) || Random.State.bool rng then emit_dmp st;
  let loop_start =
    if looped && Random.State.bool rng then begin
      for _ = 1 to 1 + Random.State.int rng 4 do
        gen_step st
      done;
      let head = List.length st.ops in
      if Random.State.bool rng then emit_dmp st;
      head
    end
    else 0
  in
  let nsteps =
    if looped then 2 + Random.State.int rng 12 else 4 + Random.State.int rng 28
  in
  for _ = 1 to nsteps do
    gen_step st
  done;
  if looped then begin
    let next = fresh st RInt and more = fresh st RBool in
    emit st ~result:next Ir.Int_add [| Ir.Reg counter; Ir.Const (V.of_int 1) |];
    emit st ~result:more Ir.Int_lt
      [| Ir.Reg next; Ir.Const (V.of_int (1 + Random.State.int rng 24)) |];
    emit_guard st Ir.G_true [| Ir.Reg more |];
    (* each entry register keeps its value or takes a body result *)
    let refill i k =
      if Random.State.bool rng then Ir.Reg i
      else Ir.Reg (Option.get (pick_kind st k))
    in
    emit st Ir.Jump (Array.of_list (List.mapi refill kinds @ [ Ir.Reg next ]))
  end
  else epilogue st;
  let entry =
    [|
      V.of_int (Random.State.int rng 201 - 100);
      V.of_int (Random.State.int rng 201 - 100);
      V.of_int (Random.State.int rng 201 - 100);
      V.of_float (float_of_int (Random.State.int rng 17 - 8) /. 4.0);
      V.of_float (float_of_int (Random.State.int rng 17 - 8) /. 4.0);
      V.of_str (String.sub "hello" 0 (Random.State.int rng 6));
    |]
  in
  ( Array.of_list (List.rev st.ops),
    (if looped then Array.append entry [| V.of_int 0 |] else entry),
    loop_start )

(* fresh guards per run: the executors bump fail counts in place *)
let copy_ops ops =
  Array.map
    (fun (op : Ir.op) ->
      match op.Ir.opcode with
      | Ir.Guard g -> { op with Ir.opcode = Ir.Guard { g with Ir.guard_id = g.Ir.guard_id } }
      | _ -> { op with Ir.args = Array.copy op.Ir.args })
    ops

let run_random (exec : executor) (ops, entry, loop_start) =
  let rtc = Mtj_rt.Ctx.create () in
  let jitlog = Jitlog.create () in
  let ops = copy_ops ops in
  let trace =
    Backend.compile jitlog rtc
      ~kind:(Ir.Loop { loop_code = 1; loop_pc = 0 })
      ~entry_slots:(Array.length entry) ~loop_start ops
  in
  let e = exit_of exec rtc jitlog trace entry in
  observe rtc [ trace ] [ e ]

let prop_threaded_identical =
  QCheck.Test.make ~name:"threaded executor is byte-identical to reference"
    ~count:300 ~long_factor:30
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let program = gen_program seed in
      let reference = run_random Executor.run_ref program in
      let threaded = run_random Executor.run program in
      if String.equal reference threaded then true
      else
        QCheck.Test.fail_reportf "seed %d diverged:\n--- reference:\n%s--- threaded:\n%s"
          seed reference threaded)

(* every opcode [Eval_op.stage] defines: the property compares the two
   executors' closures for an opcode only if the generator emits it *)
let pure_opcodes =
  Ir.
    [
      Int_add; Int_sub; Int_mul; Int_and; Int_or; Int_xor; Int_lshift;
      Int_rshift; Int_lt; Int_le; Int_eq; Int_ne; Int_gt; Int_ge; Int_neg;
      Int_is_true; Int_is_zero; Int_floordiv; Int_mod; Float_add; Float_sub;
      Float_mul; Float_truediv; Float_neg; Float_abs; Float_lt; Float_le;
      Float_eq; Float_ne; Float_gt; Float_ge; Cast_int_to_float;
      Cast_float_to_int; Str_concat; Str_eq; Strlen; Strgetitem; Ptr_eq;
      Ptr_ne; Same_as; Unicode_len; Unicode_getitem;
    ]

(* the trace's entry count in an [observe] digest: 1 plus its back-edges *)
let entries_of r =
  let key = "entries=" in
  let rec find i =
    if String.sub r i (String.length key) = key then i + String.length key
    else find (i + 1)
  in
  let start = find 0 in
  let stop = String.index_from r start ' ' in
  int_of_string (String.sub r start (stop - start))

(* the property only bites if the generator reaches all three outcomes,
   loops, peeled or not, that leave after back-edges, a boundary failure
   where the segment has no merge point, and every pure opcode *)
let test_generator_coverage () =
  let finish = ref 0 and guard = ref 0 and boundary = ref 0 in
  let looped = ref 0 and peeled = ref 0 and raised = ref 0 in
  let seen = Hashtbl.create 64 in
  for seed = 1 to 300 do
    let ((ops, _, loop_start) as program) = gen_program seed in
    Array.iter
      (fun (op : Ir.op) ->
        if Eval_op.foldable op.Ir.opcode then Hashtbl.replace seen op.Ir.opcode ())
      ops;
    let r = run_random Executor.run_ref program in
    let contains sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length r && (String.sub r i n = sub || go (i + 1))
      in
      go 0
    in
    if String.starts_with ~prefix:"exit0: deopt" r then
      if contains "guard=" then incr guard else incr boundary
    else if String.starts_with ~prefix:"exit0: raise:" r then incr raised
    else incr finish;
    if entries_of r > 2 then begin
      incr looped;
      if loop_start > 0 then incr peeled
    end
  done;
  Alcotest.(check bool) "some finish" true (!finish > 20);
  Alcotest.(check bool) "some guard deopts" true (!guard > 20);
  Alcotest.(check bool) "some boundary deopts" true (!boundary > 6);
  Alcotest.(check bool) "some loops take two back-edges" true (!looped > 20);
  Alcotest.(check bool) "some of them peeled" true (!peeled > 8);
  Alcotest.(check bool) "some boundary failures raise" true (!raised > 4);
  List.iter
    (fun opc ->
      let name = Ir.opcode_name opc in
      Alcotest.(check bool) (name ^ " is pure") true (Eval_op.foldable opc);
      Alcotest.(check bool) (name ^ " generated") true (Hashtbl.mem seen opc))
    pure_opcodes

(* ---------- deterministic multi-trace scenarios ---------- *)

let snap_regs rs =
  {
    Ir.frames =
      [
        {
          Ir.snap_code = 1;
          snap_pc = 0;
          snap_locals = Array.of_list (List.map (fun r -> Ir.S_reg r) rs);
          snap_stack = [||];
          snap_discard = false;
        };
      ];
    r_virtuals = [||];
  }

let snap_reg r = snap_regs [ r ]

let mk_guard ~id gkind resume =
  { Ir.guard_id = id; gkind; resume; fail_count = 0; bridge = None;
    bridgeable = true }

(* r1 = r0 + 1; guard r1 < limit (compare + guard); jump [r1] *)
let counting_loop_ops ~limit =
  [|
    { Ir.opcode =
        Ir.Debug_merge_point
          { dmp_code = 1; dmp_pc = 0; dmp_resume = snap_reg 0 };
      args = [||]; result = -1 };
    { Ir.opcode = Ir.Int_add;
      args = [| Ir.Reg 0; Ir.Const (V.of_int 1) |]; result = 1 };
    { Ir.opcode = Ir.Int_lt;
      args = [| Ir.Reg 1; Ir.Const (V.of_int limit) |]; result = 2 };
    { Ir.opcode = Ir.Guard (mk_guard ~id:9001 Ir.G_true (snap_reg 1));
      args = [| Ir.Reg 2 |]; result = -1 };
    { Ir.opcode = Ir.Jump; args = [| Ir.Reg 1 |]; result = -1 };
  |]

let scenario_loop (exec : executor) =
  let rtc = Mtj_rt.Ctx.create () in
  let jitlog = Jitlog.create () in
  let trace =
    Backend.compile jitlog rtc
      ~kind:(Ir.Loop { loop_code = 1; loop_pc = 0 })
      ~entry_slots:1 (counting_loop_ops ~limit:500)
  in
  let e = exit_of exec rtc jitlog trace [| V.of_int 0 |] in
  observe rtc [ trace ] [ e ]

(* guard fails at [limit]; a bridge is then attached and the cached
   threaded code must be invalidated so the second run jumps into it *)
let scenario_bridge (exec : executor) =
  let rtc = Mtj_rt.Ctx.create () in
  let jitlog = Jitlog.create () in
  let trace =
    Backend.compile jitlog rtc
      ~kind:(Ir.Loop { loop_code = 1; loop_pc = 0 })
      ~entry_slots:1 (counting_loop_ops ~limit:100)
  in
  let e1 = exit_of exec rtc jitlog trace [| V.of_int 0 |] in
  let bridge =
    Backend.compile jitlog rtc
      ~kind:(Ir.Bridge { from_guard = 9001; loop_code = 1; loop_pc = 0 })
      ~entry_slots:1
      [|
        { Ir.opcode = Ir.Int_mul;
          args = [| Ir.Reg 0; Ir.Const (V.of_int 3) |]; result = 1 };
        { Ir.opcode = Ir.Finish; args = [| Ir.Reg 1 |]; result = -1 };
      |]
  in
  Array.iter
    (fun (op : Ir.op) ->
      match op.Ir.opcode with
      | Ir.Guard g -> g.Ir.bridge <- Some bridge
      | _ -> ())
    trace.Ir.ops;
  Ir.invalidate_code trace;
  let e2 = exit_of exec rtc jitlog trace [| V.of_int 0 |] in
  observe rtc [ trace; bridge ] [ e1; e2 ]

(* A adds 3 then chains into B (call_assembler), which doubles and
   finishes; exercises the cross-trace switch in threaded code *)
let scenario_call_assembler (exec : executor) =
  let rtc = Mtj_rt.Ctx.create () in
  let jitlog = Jitlog.create () in
  let b =
    Backend.compile jitlog rtc
      ~kind:(Ir.Loop { loop_code = 2; loop_pc = 0 })
      ~entry_slots:1
      [|
        { Ir.opcode = Ir.Int_mul;
          args = [| Ir.Reg 0; Ir.Const (V.of_int 2) |]; result = 1 };
        { Ir.opcode = Ir.Finish; args = [| Ir.Reg 1 |]; result = -1 };
      |]
  in
  let a =
    Backend.compile jitlog rtc
      ~kind:(Ir.Loop { loop_code = 1; loop_pc = 0 })
      ~entry_slots:1
      [|
        { Ir.opcode =
            Ir.Debug_merge_point
              { dmp_code = 1; dmp_pc = 0; dmp_resume = snap_reg 0 };
          args = [||]; result = -1 };
        { Ir.opcode = Ir.Int_add;
          args = [| Ir.Reg 0; Ir.Const (V.of_int 3) |]; result = 1 };
        { Ir.opcode = Ir.Call_assembler b.Ir.trace_id;
          args = [| Ir.Reg 1 |]; result = -1 };
      |]
  in
  let e = exit_of exec rtc jitlog a [| V.of_int 5 |] in
  observe rtc [ a; b ] [ e ]

(* a hot tier-1 loop exits at its back-edge once it reaches its
   promotion point, on the first entry after four back-edges and on the
   second at once; both exits are rendered only after the second run,
   so a tier-up exit that handed out the jump's shared argument array
   instead of a copy would show the second run's locals twice *)
let scenario_tiered (exec : executor) =
  let cfg = { Config.two_tier with Config.tier2_threshold = 5 } in
  let rtc = Mtj_rt.Ctx.create ~config:cfg () in
  let jitlog = Jitlog.create () in
  let trace =
    Backend.compile jitlog rtc
      ~kind:(Ir.Loop { loop_code = 1; loop_pc = 0 })
      ~entry_slots:1 ~tier:1 ~promote_at:5 (counting_loop_ops ~limit:500)
  in
  let e1 = exec rtc jitlog ~trace ~entry:[| V.of_int 0 |] in
  let e2 = exec rtc jitlog ~trace ~entry:[| V.of_int 100 |] in
  observe rtc [ trace ] (List.map render_exit [ e1; e2 ])

(* integer overflow in an int op + overflow guard pair; the guard's
   resume also reads the op's result, so the deopt shows the wrapped
   value the op stored before its guard failed *)
let scenario_ovf_pair (exec : executor) =
  let rtc = Mtj_rt.Ctx.create () in
  let jitlog = Jitlog.create () in
  let ops entry_ovf =
    [|
      { Ir.opcode =
          Ir.Debug_merge_point
            { dmp_code = 1; dmp_pc = 0; dmp_resume = snap_reg 0 };
        args = [||]; result = -1 };
      { Ir.opcode = Ir.Int_add;
        args = [| Ir.Reg 0; Ir.Const (V.of_int 1) |]; result = 1 };
      { Ir.opcode =
          Ir.Guard
            (mk_guard ~id:(9100 + entry_ovf) Ir.G_no_ovf_add (snap_regs [ 0; 1 ]));
        args = [| Ir.Reg 0; Ir.Const (V.of_int 1) |]; result = -1 };
      { Ir.opcode = Ir.Finish; args = [| Ir.Reg 1 |]; result = -1 };
    |]
  in
  let t_ok =
    Backend.compile jitlog rtc
      ~kind:(Ir.Loop { loop_code = 1; loop_pc = 0 })
      ~entry_slots:1 (ops 0)
  in
  let t_ovf =
    Backend.compile jitlog rtc
      ~kind:(Ir.Loop { loop_code = 1; loop_pc = 1 })
      ~entry_slots:1 (ops 1)
  in
  let e1 = exit_of exec rtc jitlog t_ok [| V.of_int 41 |] in
  let e2 = exit_of exec rtc jitlog t_ovf [| V.of_int max_int |] in
  observe rtc [ t_ok; t_ovf ] [ e1; e2 ]

(* the loop's guard fails into a bridge that divides by zero before it
   passes a merge point of its own.  The bridge's segment has no merge
   point, so the language error propagates out of both executors.  The
   loop's merge point is no boundary for the bridge: its resume
   describes the loop's registers, and the bridge runs on a register
   file of its own (the two agree here only because both keep the
   frame's single local in register 0). *)
let scenario_bridge_error (exec : executor) =
  let rtc = Mtj_rt.Ctx.create () in
  let jitlog = Jitlog.create () in
  let trace =
    Backend.compile jitlog rtc
      ~kind:(Ir.Loop { loop_code = 1; loop_pc = 0 })
      ~entry_slots:1 (counting_loop_ops ~limit:50)
  in
  let bridge =
    Backend.compile jitlog rtc
      ~kind:(Ir.Bridge { from_guard = 9001; loop_code = 1; loop_pc = 0 })
      ~entry_slots:1
      [|
        { Ir.opcode = Ir.Int_add;
          args = [| Ir.Reg 0; Ir.Const (V.of_int 7) |]; result = 1 };
        { Ir.opcode = Ir.Int_floordiv;
          args = [| Ir.Reg 1; Ir.Const (V.of_int 0) |]; result = 2 };
        { Ir.opcode = Ir.Finish; args = [| Ir.Reg 2 |]; result = -1 };
      |]
  in
  Array.iter
    (fun (op : Ir.op) ->
      match op.Ir.opcode with
      | Ir.Guard g -> g.Ir.bridge <- Some bridge
      | _ -> ())
    trace.Ir.ops;
  Ir.invalidate_code trace;
  let e = exit_of exec rtc jitlog trace [| V.of_int 0 |] in
  observe rtc [ trace; bridge ] [ e ]

(* the register values a bridge passes to it, one line per entry *)
let regs_probe = Mtj_rt.Aot.register ~name:"test.bridge_regs" ~src:Mtj_rt.Aot.I

(* A loop whose parity guard fails into one bridge every other
   iteration, 1,000 times, before its limit guard deoptimizes.  The
   bridge enters on a register file of its own, holding the guard's
   frame, computes into it (a product and a cell), reports every
   register to a residual call and switches back into the loop.  The
   exits, the register values each entry reports and every counter must
   match the reference loop's, which allocates each file afresh. *)
let scenario_repeated_bridge (exec : executor) =
  let rtc = Mtj_rt.Ctx.create () in
  let jitlog = Jitlog.create () in
  let log = Buffer.create 4096 in
  let report =
    {
      Ir.aot = regs_probe;
      run =
        (fun _ args ->
          Array.iter (fun v -> Buffer.add_string log (V.repr v ^ ",")) args;
          Buffer.add_char log '\n';
          V.nil);
      effectful = false;
    }
  in
  let loop =
    Backend.compile jitlog rtc
      ~kind:(Ir.Loop { loop_code = 1; loop_pc = 0 })
      ~entry_slots:1
      [|
        { Ir.opcode =
            Ir.Debug_merge_point
              { dmp_code = 1; dmp_pc = 0; dmp_resume = snap_reg 0 };
          args = [||]; result = -1 };
        { Ir.opcode = Ir.Int_add;
          args = [| Ir.Reg 0; Ir.Const (V.of_int 1) |]; result = 1 };
        { Ir.opcode = Ir.Int_lt;
          args = [| Ir.Reg 1; Ir.Const (V.of_int 2_000) |]; result = 2 };
        { Ir.opcode = Ir.Guard (mk_guard ~id:9301 Ir.G_true (snap_reg 1));
          args = [| Ir.Reg 2 |]; result = -1 };
        { Ir.opcode = Ir.Int_and;
          args = [| Ir.Reg 1; Ir.Const (V.of_int 1) |]; result = 3 };
        { Ir.opcode = Ir.Guard (mk_guard ~id:9302 Ir.G_false (snap_regs [ 1; 3 ]));
          args = [| Ir.Reg 3 |]; result = -1 };
        { Ir.opcode = Ir.Jump; args = [| Ir.Reg 1 |]; result = -1 };
      |]
  in
  let bridge =
    Backend.compile jitlog rtc
      ~kind:(Ir.Bridge { from_guard = 9302; loop_code = 1; loop_pc = 0 })
      ~entry_slots:2
      [|
        { Ir.opcode =
            Ir.Debug_merge_point
              { dmp_code = 1; dmp_pc = 0; dmp_resume = snap_regs [ 0; 1 ] };
          args = [||]; result = -1 };
        { Ir.opcode = Ir.Int_mul;
          args = [| Ir.Reg 0; Ir.Const (V.of_int 3) |]; result = 2 };
        { Ir.opcode = Ir.New_cell; args = [| Ir.Reg 2 |]; result = 3 };
        { Ir.opcode = Ir.Getcell; args = [| Ir.Reg 3 |]; result = 4 };
        { Ir.opcode = Ir.Call_n report;
          args = [| Ir.Reg 0; Ir.Reg 1; Ir.Reg 2; Ir.Reg 4 |]; result = -1 };
        { Ir.opcode = Ir.Call_assembler loop.Ir.trace_id;
          args = [| Ir.Reg 0 |]; result = -1 };
      |]
  in
  Array.iter
    (fun (op : Ir.op) ->
      match op.Ir.opcode with
      | Ir.Guard g when g.Ir.guard_id = 9302 -> g.Ir.bridge <- Some bridge
      | _ -> ())
    loop.Ir.ops;
  Ir.invalidate_code loop;
  let e = exit_of exec rtc jitlog loop [| V.of_int 0 |] in
  observe rtc [ loop; bridge ] [ e ] ^ Buffer.contents log

(* ---------- host stack depth (threaded executor only) ---------- *)

let depth_probe = Mtj_rt.Aot.register ~name:"test.stack_depth" ~src:Mtj_rt.Aot.I

(* a loop whose parity guard fails every other iteration into a bridge
   that call_assemblers straight back into the loop: 200,000 iterations
   cross the fail path, the bridge entry and the trace switch 100,000
   times.  Steps continue by tail calls, so the host stack a residual
   call sees must be as deep at iteration 100,001 as at iteration 11. *)
let test_constant_stack () =
  let rtc = Mtj_rt.Ctx.create () in
  let jitlog = Jitlog.create () in
  let depths = ref [] in
  let probe =
    {
      Ir.aot = depth_probe;
      run =
        (fun _ args ->
          (match V.to_int_unchecked args.(0) with
          | 11 | 1_001 | 100_001 ->
              depths :=
                Printexc.raw_backtrace_length
                  (Printexc.get_callstack 1_000_000)
                :: !depths
          | _ -> ());
          V.nil);
      effectful = false;
    }
  in
  let loop =
    Backend.compile jitlog rtc
      ~kind:(Ir.Loop { loop_code = 1; loop_pc = 0 })
      ~entry_slots:1
      [|
        { Ir.opcode =
            Ir.Debug_merge_point
              { dmp_code = 1; dmp_pc = 0; dmp_resume = snap_reg 0 };
          args = [||]; result = -1 };
        { Ir.opcode = Ir.Int_add;
          args = [| Ir.Reg 0; Ir.Const (V.of_int 1) |]; result = 1 };
        { Ir.opcode = Ir.Int_lt;
          args = [| Ir.Reg 1; Ir.Const (V.of_int 200_000) |]; result = 2 };
        { Ir.opcode = Ir.Guard (mk_guard ~id:9201 Ir.G_true (snap_reg 1));
          args = [| Ir.Reg 2 |]; result = -1 };
        { Ir.opcode = Ir.Call_r probe; args = [| Ir.Reg 1 |]; result = 3 };
        { Ir.opcode = Ir.Int_and;
          args = [| Ir.Reg 1; Ir.Const (V.of_int 1) |]; result = 4 };
        { Ir.opcode = Ir.Guard (mk_guard ~id:9202 Ir.G_false (snap_reg 1));
          args = [| Ir.Reg 4 |]; result = -1 };
        { Ir.opcode = Ir.Jump; args = [| Ir.Reg 1 |]; result = -1 };
      |]
  in
  let bridge =
    Backend.compile jitlog rtc
      ~kind:(Ir.Bridge { from_guard = 9202; loop_code = 1; loop_pc = 0 })
      ~entry_slots:1
      [|
        { Ir.opcode = Ir.Call_assembler loop.Ir.trace_id;
          args = [| Ir.Reg 0 |]; result = -1 };
      |]
  in
  Array.iter
    (fun (op : Ir.op) ->
      match op.Ir.opcode with
      | Ir.Guard g when g.Ir.guard_id = 9202 -> g.Ir.bridge <- Some bridge
      | _ -> ())
    loop.Ir.ops;
  Ir.invalidate_code loop;
  let ex = Executor.run rtc jitlog ~trace:loop ~entry:[| V.of_int 0 |] in
  Alcotest.(check string) "leaves through the limit guard"
    (Printf.sprintf
       "deopt|guard=9201|in=%d|bridge?=false|frame code=1 pc=0 \
        discard=false locals=200000, stack="
       loop.Ir.trace_id)
    (render_exit ex);
  Alcotest.(check int) "bridge entries" 100_000 bridge.Ir.exec_count;
  match !depths with
  | [ d100001; d1001; d11 ] ->
      Alcotest.(check int) "depth at 1,001 = depth at 11" d11 d1001;
      Alcotest.(check int) "depth at 100,001 = depth at 11" d11 d100001
  | ds -> Alcotest.failf "probe ran %d times, expected 3" (List.length ds)

let check_scenario name scenario =
  Alcotest.(check string) name (scenario Executor.run_ref)
    (scenario Executor.run)

let test_loop () = check_scenario "counting loop" scenario_loop
let test_bridge () = check_scenario "bridge + invalidation" scenario_bridge

let test_call_assembler () =
  check_scenario "call_assembler chain" scenario_call_assembler

let test_tiered () =
  let reference = scenario_tiered Executor.run_ref in
  Alcotest.(check string) "tier-1 back-edge exit" reference
    (scenario_tiered Executor.run);
  let back_edge i locals =
    Printf.sprintf
      "exit%d: tier-up|frame code=1 pc=0 discard=false locals=%s, stack=" i
      locals
  in
  Alcotest.(check (list string)) "both runs leave at the back-edge"
    [ back_edge 0 "5"; back_edge 1 "101" ]
    (List.filteri (fun i _ -> i < 2) (String.split_on_char '\n' reference))

let test_ovf () =
  check_scenario "int op + overflow guard pair" scenario_ovf_pair

let test_repeated_bridge () =
  let reference = scenario_repeated_bridge Executor.run_ref in
  Alcotest.(check string) "1,000 bridge entries" reference
    (scenario_repeated_bridge Executor.run);
  let lines = String.split_on_char '\n' reference in
  Alcotest.(check string) "leaves through the limit guard"
    "exit0: deopt|guard=9301|in=0|bridge?=false|frame code=1 pc=0 \
     discard=false locals=2000, stack="
    (List.hd lines);
  Alcotest.(check int) "one report per bridge entry" 1_000
    (List.length (List.filter (String.ends_with ~suffix:",") lines));
  Alcotest.(check bool) "the last entry holds the last odd count" true
    (List.mem "1999,1,5997,5997," lines)

let test_bridge_error () =
  let reference = scenario_bridge_error Executor.run_ref in
  Alcotest.(check string) "bridge error before its merge point" reference
    (scenario_bridge_error Executor.run);
  Alcotest.(check bool) "raises out of both executors" true
    (String.starts_with ~prefix:"exit0: raise:" reference)

(* ---------- cache accounting (threaded executor only) ---------- *)

let test_cache_accounting () =
  let rtc = Mtj_rt.Ctx.create () in
  let jitlog = Jitlog.create () in
  let trace =
    Backend.compile jitlog rtc
      ~kind:(Ir.Loop { loop_code = 1; loop_pc = 0 })
      ~entry_slots:1 (counting_loop_ops ~limit:10)
  in
  Alcotest.(check int) "compile translates once" 1 trace.Ir.translations;
  Alcotest.(check int) "no hits yet" 0 trace.Ir.cache_hits;
  ignore (Executor.run rtc jitlog ~trace ~entry:[| V.of_int 0 |]);
  ignore (Executor.run rtc jitlog ~trace ~entry:[| V.of_int 0 |]);
  Alcotest.(check int) "two cached entries" 2 trace.Ir.cache_hits;
  Alcotest.(check int) "still one translation" 1 trace.Ir.translations;
  Ir.invalidate_code trace;
  ignore (Executor.run rtc jitlog ~trace ~entry:[| V.of_int 0 |]);
  Alcotest.(check int) "invalidation forces re-translation" 2
    trace.Ir.translations;
  Alcotest.(check int) "a stale entry is not a hit" 2 trace.Ir.cache_hits;
  ignore (Executor.run rtc jitlog ~trace ~entry:[| V.of_int 0 |]);
  Alcotest.(check int) "fresh code is cached again" 3 trace.Ir.cache_hits;
  Alcotest.(check int) "jitlog translations" 2 jitlog.Jitlog.translations;
  Alcotest.(check int) "jitlog hits" 3 jitlog.Jitlog.code_cache_hits

let suite =
  [
    QCheck_alcotest.to_alcotest prop_threaded_identical;
    Alcotest.test_case "generator covers all exits" `Quick
      test_generator_coverage;
    Alcotest.test_case "loop back-edge" `Quick test_loop;
    Alcotest.test_case "bridge attach + cache invalidation" `Quick test_bridge;
    Alcotest.test_case "call_assembler switch" `Quick test_call_assembler;
    Alcotest.test_case "tiered back-edge exit" `Quick test_tiered;
    Alcotest.test_case "int op + overflow guard pair" `Quick test_ovf;
    Alcotest.test_case "bridge error before a merge point" `Quick
      test_bridge_error;
    Alcotest.test_case "repeated bridge entries" `Quick test_repeated_bridge;
    Alcotest.test_case "code cache accounting" `Quick test_cache_accounting;
    Alcotest.test_case "constant host stack" `Quick test_constant_stack;
  ]
