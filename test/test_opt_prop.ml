(** Property-based soundness test for the trace optimizer.

    Generates random straight-line traces (integer arithmetic, always-true
    class guards with live resume snapshots, and heap traffic through
    cells, tuples and lists, including a tuple read back out of another
    allocation) and checks that executing the raw IR and the IR after
    every optimizer configuration yields the same [Finish] value, and
    that every register the optimized IR uses is defined before it. This attacks exactly the class of bug we found during bring-up
    (virtuals/substitution corruption): any unsound rewrite of data flow
    changes the xor-accumulated result. *)

open Mtj_rjit
module V = Mtj_rt.Value

(* [RNest] is a cell, or a 2-tuple, whose element 0 is a tuple *)
type rkind = RInt | RArr | RCell | RList | RNest of { cell : bool }

let guard_ctr = ref 0

type gen_state = {
  rng : Random.State.t;
  mutable ops : Ir.op list; (* reversed *)
  mutable regs : (int * rkind) list; (* newest first *)
  mutable bound : (int * int) list; (* int reg -> magnitude bound *)
  mutable next : int;
  mutable last_frame : (int * Ir.frame_snap) option;
      (* the previous guard's frame, with [next] when it was taken *)
}

let fresh st kind =
  let r = st.next in
  st.next <- r + 1;
  st.regs <- (r, kind) :: st.regs;
  r

let push st op = st.ops <- op :: st.ops

let pick_kind st kind =
  let cands = List.filter (fun (_, k) -> k = kind) st.regs in
  match cands with
  | [] -> None
  | _ -> Some (fst (List.nth cands (Random.State.int st.rng (List.length cands))))

let bound_of st r = try List.assoc r st.bound with Not_found -> 1 lsl 20

let set_bound st r b = st.bound <- (r, b) :: st.bound

let emit st ?(result = -1) opcode args = push st { Ir.opcode; args; result }

(* a guard's snapshot frame: when no register was defined since the
   previous guard, its live set cannot have changed, and the guard shares
   the previous guard's frame as the recorder would *)
let guard_frame st (fresh : Ir.frame_snap) =
  let f =
    match st.last_frame with
    | Some (next, f) when next = st.next -> f
    | _ -> fresh
  in
  st.last_frame <- Some (st.next, f);
  f

(* a guard whose resume snapshot keeps up to 4 random registers live *)
let push_guard st ~guard_id ~pc gkind args =
  let n = 1 + Random.State.int st.rng 4 in
  let all = Array.of_list (List.map fst st.regs) in
  let live =
    Array.init n (fun _ ->
        Ir.S_reg all.(Random.State.int st.rng (Array.length all)))
  in
  push st
    {
      Ir.opcode =
        Ir.Guard
          {
            Ir.guard_id;
            gkind;
            resume =
              {
                Ir.frames =
                  [
                    guard_frame st
                      {
                        Ir.snap_code = 1;
                        snap_pc = pc;
                        snap_locals = live;
                        snap_stack = [||];
                        snap_discard = false;
                      };
                  ];
                r_virtuals = [||];
              };
            fail_count = 0;
            bridge = None;
            bridgeable = true;
          };
      args;
      result = -1;
    }

let emit_guard st =
  match pick_kind st RInt with
  | None -> ()
  | Some r ->
      incr guard_ctr;
      push_guard st ~guard_id:(500_000 + !guard_ctr) ~pc:0
        (Ir.G_class Ir.Ty_int) [| Ir.Reg r |]

let gen_step st =
  let rnd n = Random.State.int st.rng n in
  let int_reg () = Option.get (pick_kind st RInt) in
  match rnd 14 with
  | 0 | 1 | 2 ->
      (* add/sub/xor/and/or on two int regs *)
      let a = int_reg () and b = int_reg () in
      let ba = bound_of st a and bb = bound_of st b in
      let opc, bnd =
        match rnd 5 with
        | 0 -> (Ir.Int_add, ba + bb)
        | 1 -> (Ir.Int_sub, ba + bb)
        | 2 -> (Ir.Int_xor, 2 * max ba bb)
        | 3 -> (Ir.Int_and, 2 * max ba bb)
        | _ -> (Ir.Int_or, 2 * max ba bb)
      in
      if bnd < 1 lsl 50 then begin
        let r = fresh st RInt in
        emit st ~result:r opc [| Ir.Reg a; Ir.Reg b |];
        set_bound st r bnd
      end
  | 3 ->
      (* multiply by a small constant *)
      let a = int_reg () in
      let c = rnd 15 - 7 in
      let bnd = bound_of st a * (abs c + 1) in
      if bnd < 1 lsl 50 then begin
        let r = fresh st RInt in
        emit st ~result:r Ir.Int_mul [| Ir.Reg a; Ir.Const (V.of_int c) |];
        set_bound st r bnd
      end
  | 4 ->
      (* re-bound through mod *)
      let a = int_reg () in
      let c = 2 + rnd 49 in
      let r = fresh st RInt in
      emit st ~result:r Ir.Int_mod [| Ir.Reg a; Ir.Const (V.of_int c) |];
      set_bound st r c
  | 5 ->
      (* a cell: create with a value, read back *)
      let v = int_reg () in
      let cell = fresh st RCell in
      emit st ~result:cell Ir.New_cell [| Ir.Reg v |];
      let r = fresh st RInt in
      emit st ~result:r Ir.Getcell [| Ir.Reg cell |];
      set_bound st r (bound_of st v)
  | 6 -> (
      (* mutate an existing cell *)
      match pick_kind st RCell with
      | None -> ()
      | Some cell ->
          let v = int_reg () in
          emit st Ir.Setcell [| Ir.Reg cell; Ir.Reg v |])
  | 7 -> (
      (* read an existing cell *)
      match pick_kind st RCell with
      | None -> ()
      | Some cell ->
          let r = fresh st RInt in
          emit st ~result:r Ir.Getcell [| Ir.Reg cell |];
          set_bound st r (1 lsl 21))
  | 8 ->
      (* a 2-tuple *)
      let a = int_reg () and b = int_reg () in
      let t = fresh st RArr in
      emit st ~result:t (Ir.New_array 2) [| Ir.Reg a; Ir.Reg b |]
  | 9 -> (
      (* read a tuple element *)
      match pick_kind st RArr with
      | None -> ()
      | Some t ->
          let r = fresh st RInt in
          emit st ~result:r Ir.Getarrayitem_gc
            [| Ir.Reg t; Ir.Const (V.of_int (rnd 2)) |];
          set_bound st r (1 lsl 21))
  | 10 -> (
      (* lists: create or mutate+read *)
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
            [| Ir.Reg l; Ir.Const (V.of_int (rnd 2)) |];
          set_bound st r (1 lsl 21))
  | 11 -> (
      (* a guard that CAN fail: the run then deoptimizes, and the
         materialized frames must match the unoptimized run's exactly *)
      match pick_kind st RInt with
      | None -> ()
      | Some r ->
          incr guard_ctr;
          if Random.State.bool st.rng then
            (* fails when r is outside [0, bound) *)
            push_guard st ~guard_id:(700_000 + !guard_ctr) ~pc:!guard_ctr
              Ir.G_index_lt
              [| Ir.Reg r; Ir.Const (V.of_int (Random.State.int st.rng 40)) |]
          else
            (* always holds: control case *)
            push_guard st ~guard_id:(700_000 + !guard_ctr) ~pc:!guard_ctr
              (Ir.G_class Ir.Ty_int) [| Ir.Reg r |])
  | 12 -> (
      (* an allocation inside another: a tuple held by a cell or by a
         2-tuple is read back out, then used as a read target, a guard
         argument or a stored value *)
      match pick_kind st RArr with
      | None -> ()
      | Some t ->
          let cell = Random.State.bool st.rng in
          let outer =
            match pick_kind st (RNest { cell = true }) with
            | Some c when cell && Random.State.bool st.rng ->
                emit st Ir.Setcell [| Ir.Reg c; Ir.Reg t |];
                c
            | _ when cell ->
                let c = fresh st (RNest { cell = true }) in
                emit st ~result:c Ir.New_cell [| Ir.Reg t |];
                c
            | _ ->
                let b = int_reg () in
                let a = fresh st (RNest { cell = false }) in
                emit st ~result:a (Ir.New_array 2) [| Ir.Reg t; Ir.Reg b |];
                a
          in
          let inner = fresh st RArr in
          if cell then emit st ~result:inner Ir.Getcell [| Ir.Reg outer |]
          else
            emit st ~result:inner Ir.Getarrayitem_gc
              [| Ir.Reg outer; Ir.Const (V.of_int 0) |];
          match rnd 3 with
          | 0 ->
              let r = fresh st RInt in
              emit st ~result:r Ir.Getarrayitem_gc
                [| Ir.Reg inner; Ir.Const (V.of_int (rnd 2)) |];
              set_bound st r (1 lsl 21)
          | 1 ->
              incr guard_ctr;
              push_guard st ~guard_id:(800_000 + !guard_ctr) ~pc:!guard_ctr
                (Ir.G_class Ir.Ty_tuple) [| Ir.Reg inner |]
          | _ ->
              let c = fresh st (RNest { cell = true }) in
              emit st ~result:c Ir.New_cell [| Ir.Reg inner |])
  | _ -> emit_guard st

(* One cell named by both frames of a two-frame resume, captured by two
   consecutive guards whose resumes share those frames, with a store
   into the cell between them.  The second capture must describe the
   cell as it is then, and number it afresh: a rewrite that met a
   virtual cannot be reused. *)
let shared_virtual_step st =
  let int_reg () = Option.get (pick_kind st RInt) in
  let live () =
    Array.init (Random.State.int st.rng 3) (fun _ -> Ir.S_reg (int_reg ()))
  in
  let cell = fresh st RCell in
  emit st ~result:cell Ir.New_cell [| Ir.Reg (int_reg ()) |];
  let frame pc locals =
    { Ir.snap_code = 1; snap_pc = pc; snap_locals = locals; snap_stack = [||];
      snap_discard = false }
  in
  let frames =
    [ frame 0 (Array.append [| Ir.S_reg cell |] (live ()));
      frame 1 (Array.append (live ()) [| Ir.S_reg cell |]) ]
  in
  let guard () =
    incr guard_ctr;
    push st
      {
        Ir.opcode =
          Ir.Guard
            {
              Ir.guard_id = 900_000 + !guard_ctr;
              gkind = Ir.G_class Ir.Ty_int;
              resume = { Ir.frames; r_virtuals = [||] };
              fail_count = 0;
              bridge = None;
              bridgeable = true;
            };
        args = [| Ir.Reg (int_reg ()) |];
        result = -1;
      }
  in
  guard ();
  emit st Ir.Setcell [| Ir.Reg cell; Ir.Reg (int_reg ()) |];
  guard ()

(* fold every live register into one result so any dataflow corruption
   changes the final answer *)
let epilogue st =
  let acc = ref 0 in
  let xor_in src =
    let r = fresh st RInt in
    emit st ~result:r Ir.Int_xor [| Ir.Reg !acc; src |];
    acc := r
  in
  List.iter
    (fun (r, k) ->
      match k with
      | RInt -> xor_in (Ir.Reg r)
      | RCell ->
          let v = fresh st RInt in
          emit st ~result:v Ir.Getcell [| Ir.Reg r |];
          xor_in (Ir.Reg v)
      | RArr ->
          let v = fresh st RInt in
          emit st ~result:v Ir.Getarrayitem_gc [| Ir.Reg r; Ir.Const (V.of_int 0) |];
          xor_in (Ir.Reg v)
      | RList ->
          let v = fresh st RInt in
          emit st ~result:v Ir.Getlistitem [| Ir.Reg r; Ir.Const (V.of_int 1) |];
          xor_in (Ir.Reg v)
      | RNest { cell } ->
          let t = fresh st RArr in
          if cell then emit st ~result:t Ir.Getcell [| Ir.Reg r |]
          else
            emit st ~result:t Ir.Getarrayitem_gc
              [| Ir.Reg r; Ir.Const (V.of_int 0) |];
          let v = fresh st RInt in
          emit st ~result:v Ir.Getarrayitem_gc
            [| Ir.Reg t; Ir.Const (V.of_int 1) |];
          xor_in (Ir.Reg v))
    st.regs;
  emit st Ir.Finish [| Ir.Reg !acc |]

let entry_slots = 3

let gen_program ?(shared_virtuals = false) seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let st =
    { rng; ops = []; regs = []; bound = []; next = entry_slots;
      last_frame = None }
  in
  for r = 0 to entry_slots - 1 do
    st.regs <- (r, RInt) :: st.regs;
    set_bound st r 101
  done;
  let nsteps = 4 + Random.State.int rng 28 in
  for _ = 1 to nsteps do
    if shared_virtuals && Random.State.int rng 4 = 0 then shared_virtual_step st
    else gen_step st
  done;
  epilogue st;
  let entry =
    Array.init entry_slots (fun _ -> V.of_int (Random.State.int rng 201 - 100))
  in
  (Array.of_list (List.rev st.ops), entry)

(* deep-copy ops, sharing nothing with the original: fresh guard
   records (Backend/Executor update fail counts in place) and fresh
   resume records, frames and source arrays *)
let copy_ops ops =
  let copy_vdesc = function
    | Ir.V_instance { v_cls; v_fields } ->
        Ir.V_instance { v_cls; v_fields = Array.copy v_fields }
    | Ir.V_tuple a -> Ir.V_tuple (Array.copy a)
    | Ir.V_list a -> Ir.V_list (Array.copy a)
    | Ir.V_cell s -> Ir.V_cell s
  in
  let copy_resume (r : Ir.resume) =
    {
      Ir.frames =
        List.map
          (fun (f : Ir.frame_snap) ->
            {
              f with
              Ir.snap_locals = Array.copy f.Ir.snap_locals;
              snap_stack = Array.copy f.Ir.snap_stack;
            })
          r.Ir.frames;
      r_virtuals = Array.map copy_vdesc r.Ir.r_virtuals;
    }
  in
  Array.map
    (fun (op : Ir.op) ->
      let opcode =
        match op.Ir.opcode with
        | Ir.Guard g -> Ir.Guard { g with Ir.resume = copy_resume g.Ir.resume }
        | Ir.Debug_merge_point d ->
            Ir.Debug_merge_point
              { d with dmp_resume = copy_resume d.dmp_resume }
        | other -> other
      in
      { op with Ir.opcode; args = Array.copy op.Ir.args })
    ops

(* a printed form of ops and their resume data.  Ops hold closures and
   heap values, so traces are compared through this, never with
   polymorphic equality.  Guard ids are left out: loop peeling mints
   fresh ones on every call. *)
let show_ops (ops : Ir.op array) =
  let b = Buffer.create 1024 in
  let resume r = Buffer.add_string b (Format.asprintf "%a" Ir.pp_resume r) in
  Array.iter
    (fun (op : Ir.op) ->
      Buffer.add_string b (Format.asprintf "%a" Ir.pp_op op);
      (match op.Ir.opcode with
      | Ir.Guard g ->
          Printf.bprintf b " fails=%d bridge=%b bridgeable=%b" g.Ir.fail_count
            (g.Ir.bridge <> None) g.Ir.bridgeable;
          resume g.Ir.resume
      | Ir.Debug_merge_point d ->
          Printf.bprintf b " @%d:%d" d.dmp_code d.dmp_pc;
          resume d.dmp_resume
      | _ -> ());
      Buffer.add_char b '\n')
    ops;
  Buffer.contents b

(* [Opt.optimize] leaves its input as it was, and returns the same trace
   for an input whose snapshots share frames as for a copy of it that
   shares nothing *)
let sharing_is_invisible cfg ~kind ops ~entry_slots =
  let before = show_ops ops in
  let unshared = copy_ops ops in
  let out, base, start = Opt.optimize cfg ~kind ops ~entry_slots in
  let after = show_ops ops in
  let out', base', start' = Opt.optimize cfg ~kind unshared ~entry_slots in
  if not (String.equal before after) then Error "optimize changed its input"
  else if base <> base' || start <> start' then Error "loop layout differs"
  else if not (String.equal (show_ops out) (show_ops out')) then
    Error
      (Printf.sprintf "shared input optimized to\n%s\nunshared to\n%s"
         (show_ops out) (show_ops out'))
  else Ok ()

let run_config (cfg : Mtj_core.Config.t) ~optimizing ops entry =
  let rtc = Mtj_rt.Ctx.create ~config:cfg () in
  let jitlog = Jitlog.create () in
  let ops = copy_ops ops in
  let ops, loop_base, loop_start =
    if optimizing then Opt.optimize cfg ~kind:`Bridge ops ~entry_slots
    else (ops, 0, 0)
  in
  (* every register the output uses is defined before it *)
  (match Opt.verify_defs ops ~entry_slots ~loop_base with
  | [] -> ()
  | d :: _ ->
      QCheck.Test.fail_reportf "op %d %s undefined r%d: %s" d.Opt.d_op
        (if d.Opt.d_in_resume then "resume uses" else "uses")
        d.Opt.d_reg
        (Format.asprintf "%a" Ir.pp_op ops.(d.Opt.d_op)));
  let trace =
    Backend.compile jitlog rtc
      ~kind:(Ir.Bridge { from_guard = -1; loop_code = 0; loop_pc = 0 })
      ~entry_slots ~loop_base ~loop_start ops
  in
  match Executor.run rtc jitlog ~trace ~entry:(Array.copy entry) with
  | Executor.Finished v -> "finish:" ^ V.repr v
  | Executor.Deopt { guard = Some g; frames; _ } ->
      (* deopt: fingerprint the failed guard and every materialized
         frame slot (virtual objects print their rebuilt contents) *)
      let buf = Buffer.create 64 in
      Buffer.add_string buf (Printf.sprintf "deopt:%d" g.Ir.guard_id);
      List.iter
        (fun (f : Executor.deopt_frame) ->
          Buffer.add_string buf
            (Printf.sprintf "|pc=%d:" f.Executor.df_pc);
          Array.iter
            (fun v -> Buffer.add_string buf (V.repr v ^ ","))
            f.Executor.df_locals)
        frames;
      Buffer.contents buf
  | _ -> Alcotest.fail "trace did not finish"

let base = Mtj_core.Config.default

let configs =
  [
    ("noopt", { base with Mtj_core.Config.opt_fold = false;
                opt_guard_elim = false; opt_forward = false;
                opt_virtuals = false; opt_peel = false });
    ("full", base);
    ("novirtuals", { base with Mtj_core.Config.opt_virtuals = false });
    ("noforward", { base with Mtj_core.Config.opt_forward = false });
    ("nofold", { base with Mtj_core.Config.opt_fold = false });
  ]

let prop_opt_sound =
  QCheck.Test.make ~name:"optimizer preserves random trace semantics"
    ~count:400
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let ops, entry = gen_program seed in
      let reference = run_config base ~optimizing:false ops entry in
      List.for_all
        (fun (name, cfg) ->
          let v = run_config cfg ~optimizing:true ops entry in
          if String.equal v reference then true
          else
            QCheck.Test.fail_reportf
              "seed %d config %s: optimized=%s reference=%s" seed name v
              reference)
        configs)

let prop_sharing_invisible =
  QCheck.Test.make ~name:"optimizer output ignores frame sharing" ~count:200
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let ops, _ = gen_program seed in
      List.for_all
        (fun (name, cfg) ->
          match sharing_is_invisible cfg ~kind:`Bridge ops ~entry_slots with
          | Ok () -> true
          | Error e -> QCheck.Test.fail_reportf "seed %d config %s: %s" seed name e)
        configs)

(* the same where frames that name a virtual are shared: between the two
   frames of one resume, and between consecutive snapshots with a store
   into the virtual in between *)
let prop_shared_virtuals_invisible =
  QCheck.Test.make ~name:"optimizer output ignores shared frames naming a virtual"
    ~count:200
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let ops, _ = gen_program ~shared_virtuals:true seed in
      List.for_all
        (fun (name, cfg) ->
          match sharing_is_invisible cfg ~kind:`Bridge ops ~entry_slots with
          | Ok () -> true
          | Error e -> QCheck.Test.fail_reportf "seed %d config %s: %s" seed name e)
        configs)

(* meta-check: those programs do keep a virtual in a shared frame *)
let test_shared_virtuals_generated () =
  let hits = ref 0 in
  for seed = 1 to 100 do
    let ops, _ = gen_program ~shared_virtuals:true seed in
    let out, _, _ = Opt.optimize base ~kind:`Bridge ops ~entry_slots in
    if
      Array.exists
        (fun (op : Ir.op) ->
          match op.Ir.opcode with
          | Ir.Guard { Ir.resume = { Ir.frames = [ _; _ ]; r_virtuals; _ }; _ } ->
              Array.length r_virtuals > 0
          | _ -> false)
        out
    then incr hits
  done;
  Alcotest.(check bool) "two-frame resumes keep a virtual" true (!hits > 20)

(* the same over the raw recordings of two programs' loops: the baseline
   tier compiles recorded ops verbatim, and the recorder shares every
   frame that did not change between bytecodes *)
let test_recorded_sharing_invisible () =
  let module R = Mtj_benchmarks.Registry in
  let shared = ref 0 in
  List.iter
    (fun name ->
      let b = R.find_exn ~lang:R.Py name in
      let config = Mtj_core.Config.with_budget 3_000_000 Mtj_core.Config.baseline_tier in
      let _, vm = Mtj_pylite.Vm.run ~config b.R.source in
      List.iter
        (fun (tr : Ir.trace) ->
          let prev = ref [] in
          Array.iter
            (fun (op : Ir.op) ->
              match op.Ir.opcode with
              | Ir.Debug_merge_point d ->
                  List.iter
                    (fun f -> if List.memq f !prev then incr shared)
                    d.dmp_resume.Ir.frames;
                  prev := d.dmp_resume.Ir.frames
              | _ -> ())
            tr.Ir.ops;
          let kind = match tr.Ir.kind with Ir.Loop _ -> `Loop | _ -> `Bridge in
          let ops = Ir.copy_ops tr.Ir.ops in
          match sharing_is_invisible base ~kind ops ~entry_slots:tr.Ir.entry_slots with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s trace %d: %s" name tr.Ir.trace_id e)
        (Jitlog.traces (Mtj_pylite.Vm.jitlog vm)))
    [ "raytrace_simple"; "richards" ];
  Alcotest.(check bool) "recorded snapshots share frames" true (!shared > 100)

(* meta-check: the generator really produces both outcomes, so the
   property above is exercising the deopt path, not just Finish *)
let test_generator_covers_deopt () =
  let finishes = ref 0 and deopts = ref 0 in
  for seed = 1 to 200 do
    let ops, entry = gen_program seed in
    let r = run_config base ~optimizing:false ops entry in
    if String.length r >= 6 && String.sub r 0 6 = "deopt:" then incr deopts
    else incr finishes
  done;
  Alcotest.(check bool) "some runs finish" true (!finishes > 20);
  Alcotest.(check bool) "some runs deopt" true (!deopts > 20);
  (* and consecutive guards do share frames *)
  let shared = ref 0 in
  for seed = 1 to 200 do
    let ops, _ = gen_program seed in
    ignore
      (Array.fold_left
         (fun prev (op : Ir.op) ->
           match op.Ir.opcode with
           | Ir.Guard g ->
               let f = List.hd g.Ir.resume.Ir.frames in
               (match prev with Some p when p == f -> incr shared | _ -> ());
               Some f
           | _ -> prev)
         None ops)
  done;
  Alcotest.(check bool) "some guards share a frame" true (!shared > 20)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_opt_sound;
    Alcotest.test_case "generator covers finish and deopt" `Quick
      test_generator_covers_deopt;
    QCheck_alcotest.to_alcotest prop_sharing_invisible;
    QCheck_alcotest.to_alcotest prop_shared_virtuals_invisible;
    Alcotest.test_case "generator shares frames naming a virtual" `Quick
      test_shared_virtuals_generated;
    Alcotest.test_case "recorded traces: sharing is invisible" `Quick
      test_recorded_sharing_invisible;
  ]
