(** Differential test of the engine's charge path against a
    straight-line reference implementation of the charging rules.

    The reference model below replays every charging rule on its own
    counter arrays: per-event counter-array updates, the per-bundle
    cycle arithmetic ([float n *. inv_width], penalty adds) in the same
    order, per-bundle budget checks, and the sink's record-then-sample
    annotation behaviour.  Random interleavings of bundle emits /
    conditional + indirect branches / memory accesses / phase pushes +
    pops / mid-stream counter reads — plus deterministic
    budget-exhaustion boundaries — are driven through a real [Engine]
    (with a [Sink] attached) and through the model.  Everything
    observable must be BYTE-IDENTICAL: per-phase counters (float cycles
    compared exactly via [%.17g]), engine totals, the budget-exhaustion
    point, ring-buffer events and counter samples. *)

module Engine = Mtj_machine.Engine
module Counters = Mtj_machine.Counters
module Predictor = Mtj_machine.Predictor
module Dcache = Mtj_machine.Dcache
module Sink = Mtj_obs.Sink
module Phase = Mtj_core.Phase
module Cost = Mtj_core.Cost
module Config = Mtj_core.Config
module Annot = Mtj_core.Annot

let all_phases = Array.of_list Phase.all

(* ---------- the event language ---------- *)

type ev =
  | Emit of Cost.t
  | Branch of int * bool                    (* site, taken *)
  | Branch_ind of int * int                 (* site, target *)
  | Mem of int * bool                       (* addr, write *)
  | Push of Phase.t
  | Pop
  | Tick                                    (* [Engine.tick] *)
  | Marker of int                           (* App_marker annotation *)
  | Read                                    (* mid-stream counter read *)

(* ---------- reference model: the charging rules, written out ---------- *)

module Ref_model = struct
  exception Budget

  type t = {
    pred : Predictor.t;
    dc : Dcache.t;
    insns_a : int array;
    cycles_a : float array;
    branches_a : int array;
    misses_a : int array;
    loads_a : int array;
    stores_a : int array;
    cmisses_a : int array;
    mutable phase : Phase.t;
    mutable stack : Phase.t list;
    mutable interp_width : float;
    mutable inv_width : float;
    mutable insns : int;
    mutable cycles : float;
    budget : int;
    (* sink mirror *)
    window : int;
    mutable next_mark : int;
    mutable ticks : int;
    mutable rev_events : (string * int * float) list;
    mutable rev_samples : string list;
  }

  let width t = function
    | Phase.Interpreter | Phase.Tracing | Phase.Native -> t.interp_width
    | Phase.Jit -> 1.95
    | Phase.Jit_call -> 1.75
    | Phase.Gc_minor | Phase.Gc_major -> 2.0
    | Phase.Blackhole -> 1.05

  let total_snapshot t =
    let insns = ref 0 and cycles = ref 0.0 and branches = ref 0 in
    let misses = ref 0 and loads = ref 0 and stores = ref 0 in
    let cmisses = ref 0 in
    for i = 0 to Phase.count - 1 do
      insns := !insns + t.insns_a.(i);
      cycles := !cycles +. t.cycles_a.(i);
      branches := !branches + t.branches_a.(i);
      misses := !misses + t.misses_a.(i);
      loads := !loads + t.loads_a.(i);
      stores := !stores + t.stores_a.(i);
      cmisses := !cmisses + t.cmisses_a.(i)
    done;
    Printf.sprintf "i=%d c=%.17g b=%d bm=%d l=%d s=%d cm=%d" !insns !cycles
      !branches !misses !loads !stores !cmisses

  let take_sample t insns =
    t.rev_samples <-
      Printf.sprintf "@%d cy=%.17g ticks=%d %s" insns t.cycles t.ticks
        (total_snapshot t)
      :: t.rev_samples

  let create ~budget ~interp_width ~window =
    let n = Phase.count in
    let t =
      {
        pred = Predictor.create ();
        dc = Dcache.create ();
        insns_a = Array.make n 0;
        cycles_a = Array.make n 0.0;
        branches_a = Array.make n 0;
        misses_a = Array.make n 0;
        loads_a = Array.make n 0;
        stores_a = Array.make n 0;
        cmisses_a = Array.make n 0;
        phase = Phase.Interpreter;
        stack = [];
        interp_width;
        inv_width = 1.0 /. interp_width;
        insns = 0;
        cycles = 0.0;
        budget;
        window;
        next_mark = window;
        ticks = 0;
        rev_events = [];
        rev_samples = [];
      }
    in
    (* mirror of Sink.attach's baseline sample *)
    take_sample t 0;
    t

  let bump t n =
    t.insns <- t.insns + n;
    if t.insns > t.budget then raise Budget

  let emit t (c : Cost.t) =
    let n = Cost.total c in
    if n > 0 then begin
      let cy = float_of_int n *. t.inv_width in
      t.cycles <- t.cycles +. cy;
      let i = Phase.index t.phase in
      t.insns_a.(i) <- t.insns_a.(i) + n;
      t.cycles_a.(i) <- t.cycles_a.(i) +. cy;
      t.loads_a.(i) <- t.loads_a.(i) + c.Cost.load;
      t.stores_a.(i) <- t.stores_a.(i) + c.Cost.store;
      bump t n
    end

  let charge_branch t correct =
    let cy = t.inv_width +. (if correct then 0.0 else 14.0) in
    t.cycles <- t.cycles +. cy;
    let i = Phase.index t.phase in
    t.insns_a.(i) <- t.insns_a.(i) + 1;
    t.branches_a.(i) <- t.branches_a.(i) + 1;
    if not correct then t.misses_a.(i) <- t.misses_a.(i) + 1;
    t.cycles_a.(i) <- t.cycles_a.(i) +. cy;
    bump t 1

  let mem t ~addr ~write =
    let hit = Dcache.access t.dc ~addr in
    let cy = t.inv_width in
    t.cycles <- t.cycles +. cy;
    let i = Phase.index t.phase in
    t.insns_a.(i) <- t.insns_a.(i) + 1;
    t.cycles_a.(i) <- t.cycles_a.(i) +. cy;
    if write then t.stores_a.(i) <- t.stores_a.(i) + 1
    else t.loads_a.(i) <- t.loads_a.(i) + 1;
    if not hit then begin
      t.cycles <- t.cycles +. 18.0;
      t.cmisses_a.(i) <- t.cmisses_a.(i) + 1;
      t.cycles_a.(i) <- t.cycles_a.(i) +. 18.0
    end;
    bump t 1

  (* mirror of Sink.on_annot: record the event, then the sampling check *)
  let annot t tag =
    (match tag with
    | `Tick -> t.ticks <- t.ticks + 1
    | `Push p ->
        t.rev_events <-
          (Printf.sprintf "push:%s" (Phase.name p), t.insns, t.cycles)
          :: t.rev_events
    | `Pop p ->
        t.rev_events <-
          (Printf.sprintf "pop:%s" (Phase.name p), t.insns, t.cycles)
          :: t.rev_events
    | `Marker n ->
        t.rev_events <-
          (Printf.sprintf "marker:%d" n, t.insns, t.cycles) :: t.rev_events);
    if t.insns >= t.next_mark then begin
      take_sample t t.insns;
      t.next_mark <- t.next_mark + t.window
    end

  let push t p =
    annot t (`Push p);
    t.stack <- t.phase :: t.stack;
    t.phase <- p;
    t.inv_width <- 1.0 /. width t t.phase

  let pop t =
    match t.stack with
    | [] -> invalid_arg "Ref_model.pop"
    | p :: rest ->
        let popped = t.phase in
        t.phase <- p;
        t.stack <- rest;
        t.inv_width <- 1.0 /. width t t.phase;
        annot t (`Pop popped)

  let phase_digest t p =
    let i = Phase.index p in
    Printf.sprintf "%s: i=%d c=%.17g b=%d bm=%d l=%d s=%d cm=%d" (Phase.name p)
      t.insns_a.(i) t.cycles_a.(i) t.branches_a.(i) t.misses_a.(i)
      t.loads_a.(i) t.stores_a.(i) t.cmisses_a.(i)

  let read_digest t =
    String.concat "\n"
      (List.map (phase_digest t) Phase.all
      @ [
          "total " ^ total_snapshot t;
          Printf.sprintf "eng i=%d cy=%.17g" t.insns t.cycles;
        ])

  let apply t = function
    | Emit c -> emit t c
    | Branch (site, taken) ->
        charge_branch t (Predictor.conditional t.pred ~site ~taken)
    | Branch_ind (site, target) ->
        charge_branch t (Predictor.indirect t.pred ~site ~target)
    | Mem (addr, write) -> mem t ~addr ~write
    | Push p -> push t p
    | Pop -> pop t
    | Tick -> annot t `Tick
    | Marker n -> annot t (`Marker n)
    | Read -> ()
end

(* ---------- engine-side digests ---------- *)

let eng_read_digest eng =
  let c = Engine.counters eng in
  String.concat "\n"
    (List.map
       (fun p ->
         Phase.name p ^ ": " ^ Run_digest.snap_str (Counters.phase c p))
       Phase.all
    @ [
        "total " ^ Run_digest.snap_str (Counters.total c);
        Printf.sprintf "eng i=%d cy=%.17g" (Engine.total_insns eng)
          (Engine.total_cycles eng);
      ])

let sink_events_digest sink =
  let buf = Buffer.create 256 in
  Sink.iter_events sink (fun e ->
      let name =
        match e.Sink.kind with
        | Sink.Phase_begin p -> "push:" ^ Phase.name p
        | Sink.Phase_end p -> "pop:" ^ Phase.name p
        | Sink.Marker n -> Printf.sprintf "marker:%d" n
        | Sink.Trace_enter _ | Sink.Trace_exit _ | Sink.Guard_fail _
        | Sink.Trace_compile _ | Sink.Trace_abort _ ->
            "unexpected"
      in
      Buffer.add_string buf
        (Printf.sprintf "%s@%d cy=%.17g\n" name e.Sink.at_insns
           e.Sink.at_cycles));
  Buffer.contents buf

let model_events_digest (m : Ref_model.t) =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, insns, cycles) ->
      Buffer.add_string buf
        (Printf.sprintf "%s@%d cy=%.17g\n" name insns cycles))
    (List.rev m.Ref_model.rev_events);
  Buffer.contents buf

let sink_samples_digest sink =
  String.concat "\n"
    (List.map
       (fun (s : Sink.sample) ->
         Printf.sprintf "@%d cy=%.17g ticks=%d %s" s.Sink.s_insns
           s.Sink.s_cycles s.Sink.s_ticks
           (Run_digest.snap_str s.Sink.s_counters))
       (Sink.samples sink))

let model_samples_digest (m : Ref_model.t) =
  String.concat "\n" (List.rev m.Ref_model.rev_samples)

(* ---------- the differential driver ---------- *)

type outcome = {
  stopped_at : int option;  (* event index where the budget raised *)
  reads : string list;      (* digests collected at [Read] events *)
  final : string;
  events : string;
  samples : string;
}

let window = 64

let run_engine ~budget ~interp_width (events : ev array) : outcome =
  let cfg = { Config.default with Config.insn_budget = budget } in
  let eng = Engine.create ~config:cfg () in
  Engine.set_interp_width eng interp_width;
  let sink = Sink.attach ~capacity:4096 ~counter_window:window eng in
  let reads = ref [] in
  let stopped = ref None in
  (try
     Array.iteri
       (fun i ev ->
         try
           match ev with
           | Emit c -> Engine.emit eng c
           | Branch (site, taken) -> Engine.branch eng ~site ~taken
           | Branch_ind (site, target) ->
               Engine.branch_indirect eng ~site ~target
           | Mem (addr, write) -> Engine.mem_access eng ~addr ~write
           | Push p -> Engine.push_phase eng p
           | Pop -> Engine.pop_phase eng
           | Tick -> Engine.tick eng
           | Marker n -> Engine.annot eng (Annot.App_marker n)
           | Read -> reads := eng_read_digest eng :: !reads
         with Engine.Budget_exhausted ->
           stopped := Some i;
           raise Exit)
       events
   with Exit -> ());
  {
    stopped_at = !stopped;
    reads = List.rev !reads;
    final = eng_read_digest eng;
    events = sink_events_digest sink;
    samples = sink_samples_digest sink;
  }

let run_model ~budget ~interp_width (events : ev array) : outcome =
  let m = Ref_model.create ~budget ~interp_width ~window in
  let reads = ref [] in
  let stopped = ref None in
  (try
     Array.iteri
       (fun i ev ->
         match ev with
         | Read -> reads := Ref_model.read_digest m :: !reads
         | ev -> (
             try Ref_model.apply m ev
             with Ref_model.Budget ->
               stopped := Some i;
               raise Exit))
       events
   with Exit -> ());
  {
    stopped_at = !stopped;
    reads = List.rev !reads;
    final = Ref_model.read_digest m;
    events = model_events_digest m;
    samples = model_samples_digest m;
  }

let outcome_str (o : outcome) =
  Printf.sprintf
    "stopped=%s\n--- reads:\n%s\n--- final:\n%s\n--- events:\n%s--- samples:\n%s\n"
    (match o.stopped_at with None -> "-" | Some i -> string_of_int i)
    (String.concat "\n~\n" o.reads)
    o.final o.events o.samples

let check_same name events ~budget ~interp_width =
  let e = run_engine ~budget ~interp_width events in
  let m = run_model ~budget ~interp_width events in
  Alcotest.(check string) name (outcome_str m) (outcome_str e)

(* ---------- generators ---------- *)

let gen_cost rng =
  let f () = if Random.State.int rng 3 = 0 then Random.State.int rng 5 else 0 in
  let c =
    Cost.make ~alu:(f ()) ~fpu:(f ()) ~load:(f ()) ~store:(f ()) ~other:(f ())
      ()
  in
  if Cost.total c = 0 && Random.State.bool rng then Cost.make ~alu:1 () else c

let gen_events rng n : ev array =
  (* explicit loop: [depth] tracking needs in-index-order generation so a
     generated [Pop] never precedes its [Push] in the replayed stream *)
  let out = Array.make n Read in
  let depth = ref 0 in
  for idx = 0 to n - 1 do
    out.(idx) <-
      (match Random.State.int rng 100 with
      | k when k < 40 -> Emit (gen_cost rng)
      | k when k < 55 ->
          Branch (Random.State.int rng 8, Random.State.bool rng)
      | k when k < 65 ->
          Branch_ind (Random.State.int rng 8, Random.State.int rng 5)
      | k when k < 78 ->
          Mem (Random.State.int rng 100_000, Random.State.bool rng)
      | k when k < 86 ->
          incr depth;
          Push all_phases.(Random.State.int rng (Array.length all_phases))
      | k when k < 92 ->
          if !depth > 0 then begin
            decr depth;
            Pop
          end
          else Emit (gen_cost rng)
      | k when k < 95 -> Tick
      | k when k < 98 -> Marker (Random.State.int rng 10)
      | _ -> Read)
  done;
  out

let prop_engine_matches_model =
  QCheck.Test.make ~count:300
    ~name:"engine charging is byte-identical to the reference algorithm"
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed; 0xC4A6 |] in
      let n = 20 + Random.State.int rng 400 in
      let events = gen_events rng n in
      (* small budgets sometimes, to land the exhaustion boundary inside
         the stream *)
      let budget =
        if Random.State.int rng 3 = 0 then 50 + Random.State.int rng 400
        else Config.default.Config.insn_budget
      in
      let interp_width = [| 1.0; 2.0; 2.8; 3.5 |].(Random.State.int rng 4) in
      let e = run_engine ~budget ~interp_width events in
      let m = run_model ~budget ~interp_width events in
      if outcome_str e <> outcome_str m then
        QCheck.Test.fail_reportf
          "seed %d diverged:\n--- reference:\n%s\n--- engine:\n%s" seed
          (outcome_str m) (outcome_str e)
      else true)

(* ---------- deterministic scenarios ---------- *)

let scenario_phases () =
  check_same "phase interleaving" ~budget:1_000_000 ~interp_width:2.0
    [|
      Emit (Cost.make ~alu:3 ~load:1 ());
      Push Phase.Tracing;
      Emit (Cost.make ~alu:2 ~store:2 ());
      Push Phase.Jit;
      Emit (Cost.make ~other:4 ());
      Branch (3, true);
      Pop;
      Mem (42, false);
      Mem (42, true);
      Pop;
      Read;
      Emit (Cost.make ~alu:1 ());
      Read;
    |]

let scenario_reads_every_event () =
  let rng = Random.State.make [| 7; 0xC4A6 |] in
  let evs = gen_events rng 120 in
  let interleaved =
    Array.concat (Array.to_list (Array.map (fun e -> [| e; Read |]) evs))
  in
  check_same "read after every event" ~budget:1_000_000 ~interp_width:2.8
    interleaved

let scenario_budget_boundary () =
  (* budget 10: the bundle that takes insns from 9 to 12 must raise, and
     the counters must retain the full bundle exactly as before *)
  check_same "budget exhaustion mid-stream" ~budget:10 ~interp_width:2.0
    [|
      Emit (Cost.make ~alu:9 ());
      Read;
      Emit (Cost.make ~alu:3 ());
      Emit (Cost.make ~alu:100 ());
    |];
  (* landing exactly ON the budget does not raise (only crossing it) *)
  check_same "budget exact boundary" ~budget:10 ~interp_width:2.0
    [| Emit (Cost.make ~alu:10 ()); Read; Branch (1, true) |];
  (* exhaustion inside a run of bundles: earlier charges retained *)
  check_same "budget inside a bundle run" ~budget:12 ~interp_width:2.0
    (Array.init 8 (fun i -> Emit (Cost.make ~alu:(i + 1) ())))

let scenario_listener_order () =
  (* the listeners of one kind are delivered newest-first, whether
     they attached for that kind alone or for every kind *)
  let eng = Engine.create () in
  let log = ref [] in
  for k = 1 to 7 do
    let kinds = if k land 1 = 1 then Some [ Annot.Traces ] else None in
    Engine.add_listener ?kinds eng (fun ~insns:_ _ -> log := k :: !log)
  done;
  Engine.annot eng (Annot.Trace_enter 1);
  Alcotest.(check (list int))
    "newest-first delivery, all 7 listeners" [ 7; 6; 5; 4; 3; 2; 1 ]
    (List.rev !log);
  log := [];
  Engine.annot eng (Annot.App_marker 1);
  Alcotest.(check (list int))
    "a marker reaches only the listeners of every kind" [ 6; 4; 2 ]
    (List.rev !log);
  (* a mixed stream of every constructor, a tick before each: each
     listener sees exactly the annotations of the kinds it named, in
     order, and no tick *)
  let eng = Engine.create () in
  let recorder kinds =
    let seen = ref [] in
    Engine.add_listener ?kinds eng (fun ~insns:_ a ->
        seen := Annot.to_string a :: !seen);
    fun () -> List.rev !seen
  in
  let every = recorder None in
  let phases = recorder (Some [ Annot.Phases; Annot.Phases ]) in
  let calls_and_markers = recorder (Some [ Annot.Aot_calls; Annot.Markers ]) in
  let traces = recorder (Some [ Annot.Traces ]) in
  let nothing = recorder (Some []) in
  let stream =
    Annot.
      [
        Phase_push Phase.Jit; Trace_enter 3; Aot_enter 5;
        Phase_push Phase.Gc_minor; Phase_pop Phase.Gc_minor; Aot_exit 5;
        App_marker 11; Guard_fail 8; Trace_exit 3; Trace_compile 4;
        Trace_abort 70; Phase_pop Phase.Jit;
      ]
  in
  List.iter
    (fun a ->
      Engine.tick eng;
      Engine.annot eng a)
    stream;
  let check name want got = Alcotest.(check (list string)) name want (got ()) in
  check "no kinds named: the whole stream" (List.map Annot.to_string stream)
    every;
  check "phases: the pushes and pops, in order, once each though named twice"
    [ "phase_push:jit"; "phase_push:gc_minor"; "phase_pop:gc_minor";
      "phase_pop:jit" ]
    phases;
  check "AOT calls and markers"
    [ "aot_enter:5"; "aot_exit:5"; "app_marker:11" ]
    calls_and_markers;
  check "trace and guard events"
    [ "trace_enter:3"; "guard_fail:8"; "trace_exit:3"; "trace_compile:4";
      "trace_abort:70" ]
    traces;
  check "an empty kind list: nothing" [] nothing

(* The charge path allocates nothing on the host.  Two causes have made
   it allocate: a build with [-opaque] (dune's dev profile; the
   workspace profile passes none), under which Engine's [~cycles] float
   boxes on every call into Counters, and a closure built per lookup in
   Dcache.  Nor does the annotation path, listeners included: each
   phase's, AOT function's and trace's annotation value is built once,
   the phase stack is an array, and [Runner]'s three listeners keep
   array state.  A tick allocates nothing whether nothing, a
   [Rate_sampler]'s marks, an every-tick mark listener or a [Sink]
   reads it. *)
let scenario_charge_alloc_free () =
  let eng = Engine.create () in
  let dc = Engine.dcache eng in
  let cost = Cost.make ~alu:3 ~load:1 ~store:1 () in
  let calls = 10_000 in
  let per_call ?(cause = "either the build passes -opaque (dune --profile \
                           dev: Counters' ~cycles float boxes) or a \
                           Dcache lookup allocates") name f =
    for i = 0 to 999 do f i done;
    let before = Gc.minor_words () in
    for i = 0 to calls - 1 do f i done;
    let words = Gc.minor_words () -. before in
    if words <> 0.0 then
      Alcotest.failf "%s allocated %.3f host words per call; %s" name
        (words /. float_of_int calls) cause
  in
  per_call "Engine.emit" (fun _ -> Engine.emit eng cost);
  per_call "Engine.branch" (fun i ->
      Engine.branch eng ~site:(i land 63) ~taken:(i land 3 <> 0));
  per_call "Engine.branch_indirect" (fun i ->
      Engine.branch_indirect eng ~site:7 ~target:(i land 3));
  (* 16 lines, one per set: only their first touches miss *)
  let misses = Dcache.misses dc in
  per_call "Engine.mem_access (hit)" (fun i ->
      Engine.mem_access eng ~addr:((1 + (i land 15)) lsl 6)
        ~write:(i land 1 = 0));
  Alcotest.(check int) "only cold lines missed" 16 (Dcache.misses dc - misses);
  (* 8 lines in one 4-way set, cycled: LRU evicts each before its reuse *)
  let hits = Dcache.hits dc in
  per_call "Engine.mem_access (miss)" (fun i ->
      Engine.mem_access eng ~addr:((i land 7) lsl 15) ~write:false);
  Alcotest.(check int) "no access hit" 0 (Dcache.hits dc - hits);
  (* the annotation path *)
  let cause = "an annotation value, the phase stack or a listener allocates" in
  let bracket eng =
    Engine.push_phase eng Phase.Jit;
    Engine.pop_phase eng
  in
  per_call ~cause "phase bracket, no listener" (fun _ -> bracket eng);
  (* the tick: a count and a compare, until a mark wakes a listener *)
  let cause = "a tick or a tick listener allocates" in
  per_call ~cause "Engine.tick, no tick listener" (fun _ -> Engine.tick eng);
  let eng = Engine.create () in
  let alone = Mtj_pintool.Rate_sampler.attach eng in
  per_call ~cause "Engine.tick, a Rate_sampler alone" (fun _ ->
      Engine.tick eng);
  let every = ref 0 in
  Engine.add_mark_listener eng ~mark:0 (fun ~insns:_ ~ticks:_ ->
      incr every;
      0);
  per_call ~cause "Engine.tick, an every-tick listener beside it" (fun _ ->
      Engine.tick eng);
  let sink = Sink.attach eng in
  per_call ~cause "Engine.tick, a Sink beside them" (fun _ -> Engine.tick eng);
  Alcotest.(check int) "the every-tick listener saw each tick"
    (2 * (calls + 1000))
    !every;
  Alcotest.(check int) "the sampler counted every tick" (3 * (calls + 1000))
    (Mtj_pintool.Rate_sampler.ticks alone);
  Alcotest.(check int) "the sink counted the ticks since it attached"
    (calls + 1000) (Sink.ticks sink);
  let ctx = Mtj_rt.Ctx.create () in
  let eng = Mtj_rt.Ctx.engine ctx in
  let tracker = Mtj_pintool.Phase_tracker.attach eng in
  let sampler = Mtj_pintool.Rate_sampler.attach eng in
  let attrib = Mtj_pintool.Aot_attrib.attach eng in
  let fn = Option.get (Mtj_rt.Aot.find 0) in
  per_call ~cause "Engine.tick, Runner's listeners" (fun _ -> Engine.tick eng);
  per_call ~cause "phase bracket, Runner's listeners" (fun _ -> bracket eng);
  per_call ~cause "AOT call in a phase bracket, Runner's listeners" (fun _ ->
      Engine.push_phase eng Phase.Jit;
      Mtj_rt.Aot.call ctx fn (fun () -> ());
      Engine.pop_phase eng);
  Alcotest.(check int) "every tick counted" (calls + 1000)
    (Mtj_pintool.Rate_sampler.ticks sampler);
  Alcotest.(check int) "every tick counted by the engine" (calls + 1000)
    (Engine.ticks eng);
  Alcotest.(check int) "every AOT call attributed" (calls + 1000)
    (Mtj_pintool.Aot_attrib.calls_of attrib (Mtj_rt.Aot.id fn));
  Mtj_pintool.Phase_tracker.finalize tracker;
  Alcotest.(check int) "the tracker saw every instruction"
    (Engine.total_insns eng)
    (Mtj_pintool.Phase_tracker.total_insns tracker)

(* Machine tables recycled through [Engine.release] charge exactly as
   new ones.  A program at a small budget runs on a VM with new tables,
   then again on the VM that takes them once the first is released: the
   second run must read the same per-phase counters (branch and cache
   misses included) and totals.  The same program twice, because its
   second run would hit every predictor entry and cache line the first
   one left behind. *)
let scenario_recycled_vm () =
  let module B = Mtj_benchmarks.Registry in
  let module Vm = Mtj_pylite.Vm in
  let config = Config.with_budget 200_000 Config.default in
  let src = (B.find_exn ~lang:B.Py "richards").B.source in
  let run vm =
    ignore (Vm.run_source vm src);
    eng_read_digest (Vm.engine vm)
  in
  (* take whatever an earlier test released, so [fresh] gets new tables *)
  ignore (Engine.create ());
  let fresh = Vm.create ~config () in
  let want = run fresh in
  Engine.release (Vm.engine fresh);
  let recycled = Vm.create ~config () in
  Alcotest.(check bool) "the tables are the released ones" true
    (Engine.predictor (Vm.engine recycled) == Engine.predictor (Vm.engine fresh)
    && Engine.dcache (Vm.engine recycled) == Engine.dcache (Vm.engine fresh));
  Alcotest.(check string) "counters on recycled tables" want (run recycled)

(* VM set-up allocates nothing in the host's major heap once released
   tables are on hand.  The predictor and d-cache tables are its only
   blocks too large for the minor heap: a [create] without a spare puts
   their 9,222 words there.  [major_words - promoted_words] counts the
   words allocated directly in the major heap. *)
let scenario_setup_major_words () =
  let round () =
    Engine.release (Mtj_pylite.Vm.engine (Mtj_pylite.Vm.create ()))
  in
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  round ();
  let rounds = 1000 in
  let before = direct () in
  for _ = 1 to rounds do round () done;
  let words = direct () -. before in
  if words <> 0.0 then
    Alcotest.failf "Vm.create put %.1f words per call in the major heap"
      (words /. float_of_int rounds)

let suite =
  [
    Alcotest.test_case "phase interleaving" `Quick scenario_phases;
    Alcotest.test_case "read after every event" `Quick
      scenario_reads_every_event;
    Alcotest.test_case "budget boundaries" `Quick scenario_budget_boundary;
    Alcotest.test_case "listener order across growth" `Quick
      scenario_listener_order;
    Alcotest.test_case "charge path allocates nothing" `Quick
      scenario_charge_alloc_free;
    Alcotest.test_case "recycled tables charge as new" `Quick
      scenario_recycled_vm;
    Alcotest.test_case "VM set-up skips the major heap" `Quick
      scenario_setup_major_words;
    QCheck_alcotest.to_alcotest prop_engine_matches_model;
  ]
