(** The generic VM driver: dispatch loop, hot-loop detection, tracing
    control, compiled-code entry and deoptimization plumbing.

    Instantiated once per hosted language (pylite, rklite).  The driver
    owns the mode transitions of Figure 1/3 of the paper:

    - {b interpreter}: the dispatch loop runs [Step(Direct_ops)], emitting
      one [Dispatch_tick] annotation and one indirect dispatch branch per
      bytecode — either through the reference decode-and-match loop or,
      by default, through the {!Threaded} tier's translate-once step
      arrays (same simulated charges, cheaper host dispatch);
    - {b tracing}: when a loop header's counter crosses the threshold the
      same handlers run as [Step(Trace_ops)], recording IR until the loop
      closes (or the trace aborts);
    - {b JIT}: compiled loops execute in {!Executor}; guard failures
      deoptimize through the blackhole back into the interpreter, and hot
      guards get bridges traced from their deopt state. *)

open Mtj_core
open Mtj_rt
module Engine = Mtj_machine.Engine

type outcome =
  | Completed of Value.t
  | Budget_exceeded
  | Runtime_error of string

module Make (L : Threaded.LANG) = struct
  module D = L.Step (Direct_ops)
  module T = L.Step (Trace_ops)

  type site = {
    mutable counter : int;
    mutable state : [ `Cold | `Compiled of Ir.trace | `Blacklisted ];
    mutable aborts : int;
    mutable raw : Ir.op array option;
        (* baseline/adaptive tiers: recorded (unoptimized) ops kept for
           the tier-2 recompile — and, under Adaptive, after promotion
           too, for the tier-1 recompile on demotion *)
    mutable demotions : int;
        (* times this site's optimized loop was demoted back to tier 1;
           raises the re-promotion threshold exponentially *)
    mutable promote_hint : bool;
        (* an imported trace profile marked this site as promoted by its
           publisher: compile the fresh tier-1 trace with the seeded
           (earlier) promotion point instead of the default *)
  }

  type dframe = (Value.t, L.code) Frame.t
  type tframe = (Recorder.tval, L.code) Frame.t

  type t = {
    rtc : Ctx.t;
    cfg : Config.t;
    profile : Profile.t;
    globals : Globals.t;
    jitlog : Jitlog.t;
    sites : (int * int, site) Hashtbl.t;
    dcx : Direct_ops.cx;
    charge_tab : Cost.t array;
        (* preinterned dispatch-loop cost table: slot 0 = per-bytecode
           dispatch bundle, slot 1 = frame setup/teardown; charged via
           [Engine.emit_static] *)
    mutable cur : dframe option;        (* GC roots: direct frames *)
    mutable tracking : tframe option;   (* GC roots: tracked frames *)
    mutable translated_refs : int list;
        (* code_refs this driver translated to threaded step arrays,
           newest first — exported (sorted) in the trace profile *)
  }

  let create ?(profile = Profile.rpython_interp) rtc globals =
    (* per-VM id sequences restart at zero so a run's simulated
       behaviour does not depend on what ran before it on this domain *)
    Recorder.reset_guard_ids ();
    let t =
      {
        rtc;
        cfg = Ctx.config rtc;
        profile;
        globals;
        jitlog = Jitlog.create ();
        sites = Hashtbl.create 64;
        dcx = Direct_ops.make_cx rtc profile;
        charge_tab = [| profile.Profile.dispatch; profile.Profile.frame_cost |];
        cur = None;
        tracking = None;
        translated_refs = [];
      }
    in
    Engine.set_interp_width (Ctx.engine rtc) profile.Profile.interp_width;
    (* frames and globals are GC roots *)
    let scan_dchain visit =
      let rec go = function
        | None -> ()
        | Some (f : dframe) ->
            Array.iter visit f.Frame.locals;
            for i = 0 to f.Frame.sp - 1 do
              visit f.Frame.stack.(i)
            done;
            go f.Frame.parent
      in
      go t.cur
    in
    let scan_tchain visit =
      let rec go = function
        | None -> ()
        | Some (f : tframe) ->
            Array.iter (fun (tv : Recorder.tval) -> visit tv.Recorder.v) f.Frame.locals;
            for i = 0 to f.Frame.sp - 1 do
              visit f.Frame.stack.(i).Recorder.v
            done;
            go f.Frame.parent
      in
      go t.tracking
    in
    ignore
      (Gc_sim.add_root_scanner (Ctx.gc rtc) (fun visit ->
           scan_dchain visit;
           scan_tchain visit;
           Globals.scan globals visit));
    t

  let jitlog t = t.jitlog
  let globals t = t.globals
  let rtc t = t.rtc

  let site_of t key =
    match Hashtbl.find_opt t.sites key with
    | Some s -> s
    | None ->
        let s =
          { counter = 0; state = `Cold; aborts = 0; raw = None;
            demotions = 0; promote_hint = false }
        in
        Hashtbl.replace t.sites key s;
        s

  let make_dframe t code parent : dframe =
    Frame.create_pooled ~pool:(Ctx.frame_pool t.rtc) ~code
      ~code_ref:(L.code_ref code) ~nlocals:(L.nlocals code)
      ~stack_size:(L.stack_size code) ~parent

  (* --- resume snapshots over tracked frames --- *)

  let source_of_tval (tv : Recorder.tval) : Ir.source =
    match tv.Recorder.src with
    | Ir.Reg r -> Ir.S_reg r
    | Ir.Const v -> Ir.S_const v

  let chain_outermost_first (bottom : tframe) =
    let rec go acc (f : tframe) =
      match f.Frame.parent with None -> f :: acc | Some p -> go (f :: acc) p
    in
    go [] bottom

  (* the sources of the first [n] slots of [a]: [prev] itself when it
     already holds exactly those sources, else a fresh array *)
  let share_sources (prev : Ir.source array) (a : Recorder.tval array) n =
    let rec same i =
      i = n
      || (match (prev.(i), a.(i).Recorder.src) with
         | Ir.S_reg r, Ir.Reg r' -> r = r'
         | Ir.S_const v, Ir.Const v' -> v == v'
         | _ -> false)
         && same (i + 1)
    in
    if Array.length prev = n && same 0 then prev
    else Array.init n (fun i -> source_of_tval a.(i))

  (* [f]'s snapshot, reusing [prev] (the same frame's snapshot at the
     previous bytecode) or its arrays where nothing changed *)
  let snap_frame (prev : Ir.frame_snap option) (f : tframe) : Ir.frame_snap =
    let p_locals, p_stack =
      match prev with
      | Some p -> (p.Ir.snap_locals, p.Ir.snap_stack)
      | None -> ([||], [||])
    in
    let snap_locals =
      share_sources p_locals f.Frame.locals (Array.length f.Frame.locals)
    in
    let snap_stack = share_sources p_stack f.Frame.stack f.Frame.sp in
    match prev with
    | Some p
      when p.Ir.snap_locals == snap_locals
           && p.Ir.snap_stack == snap_stack
           && p.Ir.snap_code = f.Frame.code_ref
           && p.Ir.snap_pc = f.Frame.pc
           && p.Ir.snap_discard = f.Frame.discard_return ->
        p
    | _ ->
        {
          Ir.snap_code = f.Frame.code_ref;
          snap_pc = f.Frame.pc;
          snap_locals;
          snap_stack;
          snap_discard = f.Frame.discard_return;
        }

  (* the resume snapshot at the start of the bytecode [innermost] is
     about to run, built against [prev], the previous bytecode's frames:
     a frame that did not change since (every caller frame, while an
     inlined callee runs) is shared, not copied *)
  let build_resume ~(prev : Ir.frame_snap list) (innermost : tframe) :
      Ir.resume =
    let rec go prev = function
      | [] -> []
      | f :: rest -> (
          match prev with
          | p :: ps -> snap_frame (Some p) f :: go ps rest
          | [] -> snap_frame None f :: go [] rest)
    in
    { Ir.frames = go prev (chain_outermost_first innermost); r_virtuals = [||] }

  type saved_frame = {
    s_code : L.code;
    s_pc : int;
    s_locals : Value.t array;
    s_stack : Value.t array;
    s_discard : bool;
  }

  let save_chain (innermost : tframe) =
    List.map
      (fun (f : tframe) ->
        {
          s_code = f.Frame.code;
          s_pc = f.Frame.pc;
          s_locals = Array.map (fun (tv : Recorder.tval) -> tv.Recorder.v) f.Frame.locals;
          s_stack =
            Array.init f.Frame.sp (fun i -> f.Frame.stack.(i).Recorder.v);
          s_discard = f.Frame.discard_return;
        })
      (chain_outermost_first innermost)

  (* rebuild a direct frame chain from saved state; [parent] is the frame
     below the traced region *)
  let rebuild_saved t (saved : saved_frame list) (parent : dframe option) :
      dframe =
    List.fold_left
      (fun parent s ->
        let f = make_dframe t s.s_code parent in
        f.Frame.pc <- s.s_pc;
        f.Frame.discard_return <- s.s_discard;
        Array.blit s.s_locals 0 f.Frame.locals 0 (Array.length s.s_locals);
        Array.iteri (fun i v -> f.Frame.stack.(i) <- v) s.s_stack;
        f.Frame.sp <- Array.length s.s_stack;
        Some f)
      parent saved
    |> Option.get

  let rebuild_deopt t (frames : Executor.deopt_frame list)
      (parent : dframe option) : dframe =
    rebuild_saved t
      (List.map
         (fun (d : Executor.deopt_frame) ->
           {
             s_code = L.lookup_code d.Executor.df_code;
             s_pc = d.Executor.df_pc;
             s_locals = d.Executor.df_locals;
             s_stack = d.Executor.df_stack;
             s_discard = d.Executor.df_discard;
           })
         frames)
      parent

  (* --- recording sessions (loops and bridges share this) --- *)

  type session_end =
    | Closed of Ir.op array * saved_frame list
    | Closed_return of Ir.op array * Value.t
        (* the traced region returned out of its bottom frame; the value
           flows to the caller of the region (bridges only) *)
    | Aborted of string * saved_frame list

  (* runs the tracing meta-interpreter until [close] says the trace is
     complete or tracing aborts; returns the recorded ops and the
     concrete state to resume direct execution from *)
  let record_session t (rec_ : Recorder.t) (start : tframe) ~target_key
      ~allow_finish
      ~(close : steps:int -> tframe -> bool) ~(finish : Recorder.t -> tframe -> unit) :
      session_end =
    let tcur = ref start in
    t.tracking <- Some start;
    let last_saved = ref (save_chain start) in
    let last_frames = ref [] in
    let finish_session result =
      t.tracking <- None;
      result
    in
    ignore target_key;
    let rec loop steps =
      let f = !tcur in
      if close ~steps f then begin
        finish rec_ f;
        Closed (Recorder.ops rec_, save_chain f)
      end
      else begin
        (* inner loops that are already compiled are traced straight
           through (unrolled); overly long unrolls hit the trace-length
           abort, as in RPython *)
        last_saved := save_chain f;
        let resume = build_resume ~prev:!last_frames f in
        last_frames := resume.Ir.frames;
        Recorder.begin_bytecode rec_ ~resume ~code:f.Frame.code_ref
          ~pc:f.Frame.pc;
        match T.step_ref rec_ t.globals f with
        | Frame.Continue -> loop (steps + 1)
        | Frame.Call nf ->
            if Frame.depth nf > t.cfg.Config.max_inline_depth then
              raise (Recorder.Abort "call too deep to inline");
            Recorder.enter_call rec_;
            tcur := nf;
            t.tracking <- Some nf;
            loop (steps + 1)
        | Frame.Return v -> (
            match f.Frame.parent with
            | Some p ->
                if not f.Frame.discard_return then Frame.push p v;
                Recorder.exit_call rec_;
                tcur := p;
                t.tracking <- Some p;
                (* [f] is now unreachable from the tracked chain and all
                   resume/save snapshots copied its arrays, so they can
                   be recycled for the next tracked call *)
                Frame.release ~pool:(Recorder.pool rec_) f;
                loop (steps + 1)
            | None ->
                if allow_finish then begin
                  (* the region returned: end the trace with [finish],
                     handing the value back to the region's caller *)
                  Recorder.emit_n rec_ Ir.Finish [| v.Recorder.src |];
                  Closed_return (Recorder.ops rec_, v.Recorder.v)
                end
                else raise (Recorder.Abort "returned out of the traced region"))
      end
    in
    match loop 0 with
    | result -> finish_session result
    | exception Recorder.Abort msg ->
        let where =
          match !tcur with
          | f -> Printf.sprintf " @%s:%d" (L.name f.Frame.code) f.Frame.pc
        in
        finish_session (Aborted (msg ^ where, !last_saved))
    | exception Ops_intf.Lang_error _ ->
        finish_session (Aborted ("language error while tracing", !last_saved))
    | exception Rarith.Type_error _ ->
        finish_session (Aborted ("type error while tracing", !last_saved))
    | exception Division_by_zero ->
        finish_session (Aborted ("division by zero while tracing", !last_saved))
    | exception e ->
        t.tracking <- None;
        raise e

  let tval_of_value r i v : Recorder.tval = ignore r; { Recorder.v; src = Ir.Reg i }

  (* --- tracing a loop --- *)

  let trace_loop t (f : dframe) (site : site) : dframe =
    let key = (f.Frame.code_ref, f.Frame.pc) in
    let eng = Ctx.engine t.rtc in
    Engine.push_phase eng Phase.Tracing;
    Fun.protect ~finally:(fun () -> Engine.pop_phase eng) @@ fun () ->
    let entry_slots = Array.length f.Frame.locals in
    let rec_ = Recorder.create t.rtc ~entry_slots in
    let tf : tframe =
      Frame.create_pooled ~pool:(Recorder.pool rec_) ~code:f.Frame.code
        ~code_ref:f.Frame.code_ref ~nlocals:entry_slots
        ~stack_size:(L.stack_size f.Frame.code) ~parent:None
    in
    Array.iteri (fun i v -> tf.Frame.locals.(i) <- tval_of_value rec_ i v) f.Frame.locals;
    tf.Frame.pc <- f.Frame.pc;
    let close ~steps (fr : tframe) =
      steps > 0 && fr.Frame.parent = None
      && fr.Frame.code_ref = fst key
      && fr.Frame.pc = snd key && fr.Frame.sp = 0
    in
    let finish rec_ (fr : tframe) =
      let args = Array.map (fun (tv : Recorder.tval) -> tv.Recorder.src) fr.Frame.locals in
      Recorder.emit_n rec_ Ir.Jump args
    in
    let orig_parent = f.Frame.parent in
    match record_session t rec_ tf ~target_key:key ~allow_finish:false ~close ~finish with
    | Closed (ops, saved) ->
        let trace =
          if Tierpolicy.compile_tier t.cfg <= 1 then begin
            (* baseline tier: skip the optimizer, pay a fraction of the
               compile cost, keep the raw recording for the tier-2
               recompile (and the post-demotion tier-1 recompile) *)
            site.raw <- Some (Ir.copy_ops ops);
            Backend.compile t.jitlog t.rtc
              ~kind:(Ir.Loop { loop_code = fst key; loop_pc = snd key })
              ~entry_slots ~tier:1
              ~promote_at:
                (if site.promote_hint then Tierpolicy.seeded_promote_at t.cfg
                 else Tierpolicy.initial_promote_at t.cfg)
              ops
          end
          else begin
            let opt_ops, loop_base, loop_start =
              Opt.optimize t.cfg ~kind:`Loop ops ~entry_slots
            in
            Backend.compile t.jitlog t.rtc
              ~kind:(Ir.Loop { loop_code = fst key; loop_pc = snd key })
              ~entry_slots ~loop_base ~loop_start opt_ops
          end
        in
        site.state <- `Compiled trace;
        rebuild_saved t saved orig_parent
    | Closed_return _ -> assert false (* loops never record [finish] *)
    | Aborted (msg, saved) ->
        Engine.annot eng (Annot.Trace_abort (fst key));
        Jitlog.record_abort t.jitlog msg;
        site.aborts <- site.aborts + 1;
        site.counter <- 0;
        if site.aborts >= t.cfg.Config.retrace_limit then begin
          site.state <- `Blacklisted;
          Jitlog.record_blacklist t.jitlog
        end;
        rebuild_saved t saved orig_parent

  (* --- tracing a bridge from a deoptimized state --- *)

  (* result of running / bridging JIT code: either an interpreter frame
     to continue from, or the whole region returned a value to the caller
     of [orig_parent]'s child (possibly ending the program) *)
  type jit_outcome = J_frame of dframe | J_done of Value.t

  let continue_after_region_return ~(orig_parent : dframe option)
      ~(discard : bool) (v : Value.t) : jit_outcome =
    match orig_parent with
    | Some p ->
        if not discard then Frame.push p v;
        J_frame p
    | None -> J_done v

  let loop_key_of (trace : Ir.trace) =
    match trace.Ir.kind with
    | Ir.Loop { loop_code; loop_pc } -> (loop_code, loop_pc)
    | Ir.Bridge { loop_code; loop_pc; _ } -> (loop_code, loop_pc)

  let trace_bridge t (g : Ir.guard) (frames : Executor.deopt_frame list)
      ~loop_key ~(owner : Ir.trace option) ~(orig_parent : dframe option) :
      jit_outcome =
    let eng = Ctx.engine t.rtc in
    Engine.push_phase eng Phase.Tracing;
    Fun.protect ~finally:(fun () -> Engine.pop_phase eng) @@ fun () ->
    (* flatten the deopt state: entry registers in frame order, locals
       then stack for each frame, outermost first *)
    let next = ref 0 in
    let entry_slots =
      List.fold_left
        (fun acc (d : Executor.deopt_frame) ->
          acc
          + Array.length d.Executor.df_locals
          + Array.length d.Executor.df_stack)
        0 frames
    in
    let rec_ = Recorder.create t.rtc ~entry_slots in
    let bottom_to_top =
      List.fold_left
        (fun parent (d : Executor.deopt_frame) ->
          let code = L.lookup_code d.Executor.df_code in
          let f : tframe =
            Frame.create_pooled ~pool:(Recorder.pool rec_) ~code
              ~code_ref:d.Executor.df_code ~nlocals:(L.nlocals code)
              ~stack_size:(L.stack_size code) ~parent
          in
          f.Frame.pc <- d.Executor.df_pc;
          f.Frame.discard_return <- d.Executor.df_discard;
          Array.iteri
            (fun i v ->
              let r = !next in
              incr next;
              f.Frame.locals.(i) <- { Recorder.v; src = Ir.Reg r })
            d.Executor.df_locals;
          Array.iteri
            (fun i v ->
              let r = !next in
              incr next;
              f.Frame.stack.(i) <- { Recorder.v; src = Ir.Reg r })
            d.Executor.df_stack;
          f.Frame.sp <- Array.length d.Executor.df_stack;
          Some f)
        None frames
    in
    let start = Option.get bottom_to_top in
    let close ~steps (fr : tframe) =
      steps > 0 && fr.Frame.parent = None
      && (fr.Frame.code_ref, fr.Frame.pc) = loop_key
      && fr.Frame.sp = 0
    in
    let target_trace_id () =
      match (site_of t loop_key).state with
      | `Compiled tr -> Some tr.Ir.trace_id
      | `Cold | `Blacklisted -> None
    in
    let finish rec_ (fr : tframe) =
      match target_trace_id () with
      | Some tid ->
          let args =
            Array.map (fun (tv : Recorder.tval) -> tv.Recorder.src) fr.Frame.locals
          in
          Recorder.emit_n rec_ (Ir.Call_assembler tid) args
      | None -> raise (Recorder.Abort "bridge target loop vanished")
    in
    (* demotion: an optimized loop that keeps growing bridges gets
       recompiled at the baseline tier from the kept raw recording, with
       an exponentially raised re-promotion threshold (never, once the
       site exhausts max_demotions).  The old optimized trace stays
       registered — bridges recorded against it still call back into it
       — but its cached threaded code is invalidated, so any stale
       code_ref re-translates instead of executing the cached closure
       array. *)
    let maybe_demote (owner : Ir.trace) =
      let site = site_of t loop_key in
      match site.state with
      | `Compiled cur
        when cur == owner
             && Tierpolicy.should_demote t.cfg ~tier:owner.Ir.tier
                  ~bridges:owner.Ir.bridges -> (
          match site.raw with
          | Some raw ->
              site.demotions <- site.demotions + 1;
              Jitlog.record_demotion t.jitlog;
              let ops = Ir.copy_ops raw in
              let demoted =
                Backend.compile t.jitlog t.rtc
                  ~kind:
                    (Ir.Loop { loop_code = fst loop_key; loop_pc = snd loop_key })
                  ~entry_slots:owner.Ir.entry_slots ~tier:1
                  ~promote_at:
                    (Tierpolicy.demoted_promote_at t.cfg
                       ~demotions:site.demotions)
                  ops
              in
              site.state <- `Compiled demoted;
              Ir.invalidate_code owner
          | None -> ())
      | _ -> ()
    in
    let compile_bridge ops =
      (* a bridge inherits its owner's tier: baseline loops get cheap
         unoptimized bridges, optimized loops get optimized ones *)
      let tier =
        match owner with Some o when o.Ir.tier <= 1 -> 1 | _ -> 2
      in
      let bridge_ops =
        if tier <= 1 then ops
        else
          let opt_ops, _, _ =
            Opt.optimize t.cfg ~kind:`Bridge ops ~entry_slots
          in
          opt_ops
      in
      let bridge =
        Backend.compile t.jitlog t.rtc
          ~kind:
            (Ir.Bridge
               {
                 from_guard = g.Ir.guard_id;
                 loop_code = fst loop_key;
                 loop_pc = snd loop_key;
               })
          ~entry_slots ~tier bridge_ops
      in
      g.Ir.bridge <- Some bridge;
      (* the guard's owning trace has a new fail path: drop its cached
         threaded code so the next entry re-translates with the bridge
         bound directly into the guard's fail step *)
      Option.iter Ir.invalidate_code owner;
      Jitlog.record_bridge t.jitlog;
      Option.iter
        (fun (o : Ir.trace) ->
          o.Ir.bridges <- o.Ir.bridges + 1;
          maybe_demote o)
        owner
    in
    let region_discard =
      match frames with
      | outermost :: _ -> outermost.Executor.df_discard
      | [] -> false
    in
    match
      record_session t rec_ start ~target_key:loop_key ~allow_finish:true
        ~close ~finish
    with
    | Closed (ops, saved) ->
        compile_bridge ops;
        J_frame (rebuild_saved t saved orig_parent)
    | Closed_return (ops, v) ->
        compile_bridge ops;
        continue_after_region_return ~orig_parent ~discard:region_discard v
    | Aborted (msg, saved) ->
        Engine.annot eng (Annot.Trace_abort (fst loop_key));
        Jitlog.record_abort t.jitlog msg;
        g.Ir.bridgeable <- false;
        J_frame (rebuild_saved t saved orig_parent)

  (* --- entering compiled code --- *)

  let enter_jit t (trace : Ir.trace) (f : dframe) : jit_outcome =
    let eng = Ctx.engine t.rtc in
    let orig_parent = f.Frame.parent in
    Engine.push_phase eng Phase.Jit;
    let ex =
      Fun.protect ~finally:(fun () -> Engine.pop_phase eng) @@ fun () ->
      Executor.run t.rtc t.jitlog ~trace ~entry:f.Frame.locals
    in
    match ex.Executor.finished with
    | Some v ->
        continue_after_region_return ~orig_parent
          ~discard:f.Frame.discard_return v
    | None -> (
        match ex.Executor.failed_guard with
        | Some g when ex.Executor.request_bridge && g.Ir.bridgeable ->
            trace_bridge t g ex.Executor.frames ~loop_key:(loop_key_of trace)
              ~owner:ex.Executor.failed_in ~orig_parent
        | Some _ | None -> J_frame (rebuild_deopt t ex.Executor.frames orig_parent))

  (* --- the JIT portal, consulted at every loop header --- *)

  let on_loop_header t (f : dframe) : jit_outcome =
    if f.Frame.sp <> 0 then J_frame f
    else begin
      let key = (f.Frame.code_ref, f.Frame.pc) in
      let site = site_of t key in
      match site.state with
      | `Compiled trace ->
          let trace =
            (* tier-up: once a baseline trace reaches its promotion
               point with a stable guard-fail profile, recompile the
               saved recording through the full optimizer
               (tracing-phase work, like the original compile) *)
            match
              Tierpolicy.tier_up t.cfg ~tier:trace.Ir.tier
                ~execs:trace.Ir.exec_count ~deopts:trace.Ir.deopts
                ~promote_at:trace.Ir.promote_at
            with
            | Tierpolicy.Stay -> trace
            | Tierpolicy.Defer p ->
                (* hot but guard-unstable: push the promotion point out
                   so the executor stops exiting every back-edge *)
                trace.Ir.promote_at <- p;
                trace
            | Tierpolicy.Promote -> (
                match site.raw with
                | Some raw ->
                    let eng = Ctx.engine t.rtc in
                    Engine.push_phase eng Phase.Tracing;
                    Fun.protect ~finally:(fun () -> Engine.pop_phase eng)
                    @@ fun () ->
                    let entry_slots = trace.Ir.entry_slots in
                    let ops = Ir.copy_ops raw in
                    let opt_ops, loop_base, loop_start =
                      Opt.optimize t.cfg ~kind:`Loop ops ~entry_slots
                    in
                    let t2 =
                      Backend.compile t.jitlog t.rtc ~kind:trace.Ir.kind
                        ~entry_slots ~loop_base ~loop_start opt_ops
                    in
                    Jitlog.record_retier t.jitlog;
                    site.state <- `Compiled t2;
                    (* Adaptive keeps the raw recording: demotion needs
                       it for the tier-1 recompile *)
                    if t.cfg.Config.tier_policy <> Config.Adaptive then
                      site.raw <- None;
                    t2
                | None ->
                    (* no recording to promote from: pin at tier 1 *)
                    trace.Ir.promote_at <- Tierpolicy.never;
                    trace)
          in
          enter_jit t trace f
      | `Blacklisted -> J_frame f
      | `Cold ->
          site.counter <- site.counter + 1;
          if site.counter >= Tierpolicy.trace_threshold t.cfg then
            J_frame (trace_loop t f site)
          else J_frame f
    end

  (* --- the dispatch loop --- *)

  (* Straight-line threaded execution: run pre-bound step closures
     back-to-back until a call or return.  All the per-iteration
     bookkeeping of the outer loop (result/current-frame refs, code
     switch compare, portal test) is hoisted out of this inner loop —
     per bytecode it costs one array load and one closure call. *)
  let rec exec_steps (steps : (Value.t, L.code) Threaded.step array)
      (f : dframe) =
    match steps.(f.Frame.pc) f with
    | Frame.Continue -> exec_steps steps f
    | oc -> oc

  (* Same, with the JIT on: additionally yield [Frame.Continue] at every
     loop-header merge point, BEFORE executing it, so the outer loop can
     run the portal (hot counting / trace entry).  Only headers produce
     [Continue] here — the inner loop consumes every other one. *)
  let rec exec_steps_jit (steps : (Value.t, L.code) Threaded.step array)
      (headers : bool array) (f : dframe) =
    if Array.unsafe_get headers f.Frame.pc then Frame.Continue
    else
      match steps.(f.Frame.pc) f with
      | Frame.Continue -> exec_steps_jit steps headers f
      | oc -> oc

  let run_frame t (frame0 : dframe) : outcome =
    let eng = Ctx.engine t.rtc in
    let jit_on = t.cfg.Config.jit_enabled in
    let threaded = t.cfg.Config.threaded_interp in
    let cur = ref frame0 in
    t.cur <- Some frame0;
    let result = ref None in
    (* threaded tier: the step array and header bitmap of the code object
       the current frame runs, re-fetched (translating on first sight)
       whenever the running code changes — calls, returns, deopt
       rebuilds all funnel through a single int compare per iteration *)
    let steps : (Value.t, L.code) Threaded.step array ref = ref [||] in
    let headers = ref [||] in
    let steps_for = ref min_int in
    let fetch_threaded (f : dframe) =
      (match L.lookup_threaded f.Frame.code with
      | Some s ->
          Jitlog.record_threaded_code_hit t.jitlog;
          steps := s
      | None ->
          let d =
            {
              Threaded.d_eng = eng;
              d_tab = t.charge_tab;
              d_site = 200_000 + (f.Frame.code_ref land 1023);
              d_indirect = t.profile.Profile.dispatch_indirect;
            }
          in
          let s = L.threaded_code t.dcx t.globals d f.Frame.code in
          L.store_threaded f.Frame.code s;
          Jitlog.record_interp_translation t.jitlog;
          t.translated_refs <- f.Frame.code_ref :: t.translated_refs;
          steps := s);
      headers := L.headers f.Frame.code;
      steps_for := f.Frame.code_ref
    in
    (try
       while !result == None do
         let f = !cur in
         if threaded && f.Frame.code_ref <> !steps_for then fetch_threaded f;
         (* the JIT portal *)
         let f =
           if
             jit_on
             &&
             if threaded then !headers.(f.Frame.pc)
             else L.loop_header f.Frame.code f.Frame.pc
           then begin
             match on_loop_header t f with
             | J_frame f' ->
                 cur := f';
                 t.cur <- Some f';
                 Some f'
             | J_done v ->
                 result := Some (Completed v);
                 None
           end
           else Some f
         in
         match f with
         | None -> ()
         | Some f ->
         (* one dispatch-loop iteration.  The threaded path runs the
            pre-bound step closure for this pc, which emits the exact
            charge sequence of the reference prologue + handler below
            (held by test/test_dispatch_diff.ml). *)
         let oc =
           if threaded then begin
             (* the portal may have deoptimized into a different code *)
             if f.Frame.code_ref <> !steps_for then fetch_threaded f;
             let s = !steps in
             (* run the step at this pc (it may be a loop header the
                portal just processed), then stay in the tight inner
                loop until a call, a return, or the next merge point *)
             match s.(f.Frame.pc) f with
             | Frame.Continue ->
                 if jit_on then exec_steps_jit s !headers f
                 else exec_steps s f
             | oc -> oc
           end
           else begin
             Engine.annot eng Annot.Dispatch_tick;
             Engine.emit_static eng t.charge_tab ~lo:0 ~hi:1;
             if t.profile.Profile.dispatch_indirect then
               Engine.branch_indirect eng
                 ~site:(200_000 + (f.Frame.code_ref land 1023))
                 ~target:(L.opcode_at f.Frame.code f.Frame.pc);
             D.step_ref t.dcx t.globals f
           end
         in
         match oc with
         | Frame.Continue -> ()
         | Frame.Call nf ->
             Engine.emit_static eng t.charge_tab ~lo:1 ~hi:2;
             cur := nf;
             t.cur <- Some nf
         | Frame.Return v -> (
             match f.Frame.parent with
             | Some p ->
                 Engine.emit_static eng t.charge_tab ~lo:1 ~hi:2;
                 if not f.Frame.discard_return then Frame.push p v;
                 cur := p;
                 t.cur <- Some p;
                 (* [f] left the live chain and nothing retains its
                    arrays (the executor blits entry slots, resume
                    snapshots are copies): recycle them *)
                 Frame.release ~pool:(Ctx.frame_pool t.rtc) f
             | None -> result := Some (Completed v))
       done
     with
    | Engine.Budget_exhausted -> result := Some Budget_exceeded
    | Ops_intf.Lang_error msg -> result := Some (Runtime_error msg)
    | Rarith.Type_error msg -> result := Some (Runtime_error msg)
    | Division_by_zero -> result := Some (Runtime_error "division by zero"));
    t.cur <- None;
    Option.get !result

  let run t (code : L.code) : outcome =
    run_frame t (make_dframe t code None)

  (* --- trace profiles (serving mode, DESIGN.md §3m) --- *)

  (* Everything this driver learned that a later context can reuse:
     which loop headers it compiled traces for (with the tier its
     policy converged on) and which code objects it translated to
     threaded step arrays.  Only deterministic integers cross the
     boundary; both lists are sorted so an unseeded run's profile is a
     pure function of the (program, config, budget) key. *)
  let export_profile t : Traceprofile.t =
    let sites =
      Hashtbl.fold
        (fun (code, pc) (s : site) acc ->
          match s.state with
          | `Compiled tr ->
              { Traceprofile.p_code = code; p_pc = pc;
                p_promoted = tr.Ir.tier >= 2 }
              :: acc
          | `Cold | `Blacklisted -> acc)
        t.sites []
    in
    {
      Traceprofile.hot_sites = List.sort compare sites;
      translated = List.sort_uniq compare t.translated_refs;
    }

  (* Seed this (fresh) driver from a publisher's profile: hot sites
     start one header visit short of the tracing threshold (and carry
     the publisher's promotion decision as a hint for the compile), and
     the profiled code objects are translated to threaded step arrays
     up front, off the first-dispatch path.  Translation is host-only
     work; the seeded counters change WHEN the simulated machine traces
     (earlier), never WHAT the program computes — outputs stay
     byte-identical, simulated counters legitimately differ from an
     unseeded run's. *)
  let seed_profile t (p : Traceprofile.t) =
    List.iter
      (fun (hs : Traceprofile.hot_site) ->
        let site = site_of t (hs.Traceprofile.p_code, hs.Traceprofile.p_pc) in
        match site.state with
        | `Cold when site.counter = 0 ->
            site.counter <- Tierpolicy.seed_counter t.cfg;
            site.promote_hint <- hs.Traceprofile.p_promoted;
            Jitlog.record_seeded_site t.jitlog
        | _ -> ())
      p.Traceprofile.hot_sites;
    if t.cfg.Config.threaded_interp then begin
      let eng = Ctx.engine t.rtc in
      List.iter
        (fun code_ref ->
          match L.lookup_code code_ref with
          | exception Invalid_argument _ ->
              (* a profile only lists refs from its own bundle, but a
                 stale ref must fail soft: the lazy path re-translates *)
              ()
          | code -> (
              match L.lookup_threaded code with
              | Some _ -> ()
              | None ->
                  let d =
                    {
                      Threaded.d_eng = eng;
                      d_tab = t.charge_tab;
                      d_site = 200_000 + (code_ref land 1023);
                      d_indirect = t.profile.Profile.dispatch_indirect;
                    }
                  in
                  let s = L.threaded_code t.dcx t.globals d code in
                  L.store_threaded code s;
                  Jitlog.record_interp_translation t.jitlog;
                  t.translated_refs <- code_ref :: t.translated_refs))
        p.Traceprofile.translated
    end
end
