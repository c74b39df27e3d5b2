open Mtj_core

exception Budget_exhausted

type listener = insns:int -> Annot.t -> unit
type mark_listener = insns:int -> ticks:int -> int

type marked = { mutable mark : int; on_mark : mark_listener }

type t = {
  cfg : Config.t;
  predictor : Predictor.t;
  dcache : Dcache.t;
  counters : Counters.t;
  mutable phase : Phase.t;
  mutable slot : Counters.slot;  (* [phase]'s counters, looked up once
                                    per phase change for the charge
                                    paths *)
  mutable phase_stack : Phase.t array;  (* the phases pushed over, in
                                           slots 0 .. depth - 1 *)
  mutable depth : int;
  listeners : listener array array;  (* by Annot.kind_index; each newest
                                        first *)
  mutable ticks : int;
  mutable tick_mark : int;  (* [tick] wakes its mark listeners once [insns]
                               reaches this: the lowest mark a [marked]
                               listener asked for, [max_int] with none *)
  mutable marked : marked array;  (* newest first *)
  mutable interp_width : float;
  inv_width : float array;  (* one cell, as [cycles]: 1 / width(phase),
                               kept in sync on phase changes so the
                               per-instruction paths multiply instead
                               of divide *)
  mutable insns : int;
  cycles : float array;  (* one cell: float-array stores stay unboxed,
                            unlike a mutable float field in this mixed
                            record which would allocate per charge *)
  mispredict_penalty : float;
  miss_penalty : float;
  mutable released : bool;
}

(* The predictor and d-cache tables of the last engine released on this
   domain, for the next [create] on it.  They are about 9,200 words,
   too large for the minor heap, so a fresh pair per engine goes
   straight to the major heap; a serve request creates one engine.  One
   pair at most, and [create] empties the slot, so two live engines
   never share tables; [Domain.DLS], so pool workers never share it. *)
let spare : (Predictor.t * Dcache.t) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let create ?(config = Config.default) () =
  let predictor, dcache =
    match Domain.DLS.get spare with
    | Some ((p, d) as tables) ->
        Domain.DLS.set spare None;
        Predictor.reset p;
        Dcache.reset d;
        tables
    | None -> (Predictor.create (), Dcache.create ())
  in
  let counters = Counters.create () in
  {
    cfg = config;
    predictor;
    dcache;
    counters;
    phase = Phase.Interpreter;
    slot = Counters.slot counters (Phase.index Phase.Interpreter);
    phase_stack = Array.make 16 Phase.Interpreter;
    depth = 0;
    listeners = Array.make (List.length Annot.kinds) [||];
    ticks = 0;
    tick_mark = max_int;
    marked = [||];
    interp_width = 2.0;
    inv_width = Array.make 1 (1.0 /. 2.0);
    insns = 0;
    cycles = Array.make 1 0.0;
    mispredict_penalty = 14.0;
    miss_penalty = 18.0;
    released = false;
  }

let release t =
  if not t.released then begin
    t.released <- true;
    Domain.DLS.set spare (Some (t.predictor, t.dcache))
  end

(* Issue widths for code styles that are properties of the framework
   rather than of the hosted VM.  JIT trace code is dense straight-line
   code; the blackhole interpreter is pointer-chasing and serial (the
   paper's Table IV measures it at the lowest IPC of all phases); GC is
   a tight, cache-warm loop. *)
let[@inline] width t = function
  | Phase.Interpreter | Phase.Tracing | Phase.Native -> t.interp_width
  | Phase.Jit -> 1.95
  | Phase.Jit_call -> 1.75
  | Phase.Gc_minor | Phase.Gc_major -> 2.0
  | Phase.Blackhole -> 1.05

let refresh_phase t =
  Array.unsafe_set t.inv_width 0 (1.0 /. width t t.phase);
  t.slot <- Counters.slot t.counters (Phase.index t.phase)

let set_interp_width t w =
  t.interp_width <- w;
  refresh_phase t

let[@inline] bump_insns t n =
  t.insns <- t.insns + n;
  if t.insns > t.cfg.Config.insn_budget then raise Budget_exhausted

let[@inline] inv_width t = Array.unsafe_get t.inv_width 0

let[@inline] bump_cycles t cy =
  Array.unsafe_set t.cycles 0 (Array.unsafe_get t.cycles 0 +. cy)

(* The charge paths below allocate nothing and call nothing but the
   raise and bound-error stubs.  Each adds into the current phase's
   [slot] and passes its cycle delta to [Counters] as a plain [~cycles]
   float, which stays unboxed because the [Counters.add_*] calls inline
   here; that takes a build without [-opaque], which the root
   dune-workspace selects.  The charge-diff suite pins it. *)

let[@inline] emit t cost =
  let n = Cost.total cost in
  if n > 0 then begin
    let cy = float_of_int n *. inv_width t in
    bump_cycles t cy;
    Counters.add_bundle t.slot ~n ~loads:cost.Cost.load
      ~stores:cost.Cost.store ~cycles:cy;
    bump_insns t n
  end

let[@inline] charge_branch t ~correct =
  let cy =
    inv_width t +. (if correct then 0.0 else t.mispredict_penalty)
  in
  bump_cycles t cy;
  Counters.add_branch t.slot ~mispredicted:(not correct) ~cycles:cy;
  bump_insns t 1

let branch t ~site ~taken =
  charge_branch t ~correct:(Predictor.conditional t.predictor ~site ~taken)

let branch_indirect t ~site ~target =
  charge_branch t ~correct:(Predictor.indirect t.predictor ~site ~target)

(* hoisted out of [mem_access]: one load / one store, shared by every
   simulated heap access instead of being rebuilt per call *)
let load_cost = Cost.make ~load:1 ()
let store_cost = Cost.make ~store:1 ()

let mem_access t ~addr ~write =
  let hit = Dcache.access t.dcache ~addr in
  let cost = if write then store_cost else load_cost in
  let cy = inv_width t in
  bump_cycles t cy;
  Counters.add_bundle t.slot ~n:1 ~loads:cost.Cost.load
    ~stores:cost.Cost.store ~cycles:cy;
  if not hit then begin
    bump_cycles t t.miss_penalty;
    Counters.add_cache_miss t.slot ~cycles:t.miss_penalty
  end;
  bump_insns t 1

(* Delivery to the listeners of one kind.  An annotation with none
   costs one length test; the hot ones are built once (the phase values
   below, [Aot.fn]'s and [Ir.trace]'s), so delivery allocates nothing. *)
let[@inline] deliver t slot a =
  let ls = Array.unsafe_get t.listeners slot in
  for i = 0 to Array.length ls - 1 do
    (Array.unsafe_get ls i) ~insns:t.insns a
  done

let[@inline] annot t a = deliver t (Annot.kind_index (Annot.kind a)) a

(* The cold half of [tick]: each mark listener whose mark [insns] has
   reached names its next one, and the lowest mark left becomes
   [tick_mark]. *)
let wake_marks t =
  let insns = t.insns in
  let lo = ref max_int in
  let ms = t.marked in
  for i = 0 to Array.length ms - 1 do
    let m = Array.unsafe_get ms i in
    if insns >= m.mark then m.mark <- m.on_mark ~insns ~ticks:t.ticks;
    if m.mark < !lo then lo := m.mark
  done;
  t.tick_mark <- !lo

let[@inline] tick t =
  t.ticks <- t.ticks + 1;
  if t.insns >= t.tick_mark then wake_marks t

let phases_slot = Annot.kind_index Annot.Phases
let pushes = Array.init Phase.count (fun i -> Annot.Phase_push (Phase.of_index i))
let pops = Array.init Phase.count (fun i -> Annot.Phase_pop (Phase.of_index i))

let push_phase t p =
  deliver t phases_slot (Array.unsafe_get pushes (Phase.index p));
  let d = t.depth in
  if d = Array.length t.phase_stack then begin
    let grown = Array.make (2 * d) Phase.Interpreter in
    Array.blit t.phase_stack 0 grown 0 d;
    t.phase_stack <- grown
  end;
  Array.unsafe_set t.phase_stack d t.phase;
  t.depth <- d + 1;
  t.phase <- p;
  refresh_phase t

let pop_phase t =
  let d = t.depth - 1 in
  if d < 0 then invalid_arg "Engine.pop_phase: empty phase stack";
  let popped = Phase.index t.phase in
  t.phase <- Array.unsafe_get t.phase_stack d;
  t.depth <- d;
  refresh_phase t;
  (* delivered after restoring, so listeners reading [current_phase]
     see the parent phase while the annotation names the popped one *)
  deliver t phases_slot (Array.unsafe_get pops popped)

let current_phase t = t.phase

let in_phase t p f =
  push_phase t p;
  match f () with
  | v ->
      pop_phase t;
      v
  | exception e ->
      pop_phase t;
      raise e

(* attachment is rare, delivery is the hot path: each attach rebuilds
   its kinds' arrays, so delivery scans exactly the listeners it calls *)
let add_listener ?(kinds = Annot.kinds) t l =
  List.iter
    (fun k ->
      if List.mem k kinds then begin
        let i = Annot.kind_index k in
        t.listeners.(i) <- Array.append [| l |] t.listeners.(i)
      end)
    Annot.kinds

let add_mark_listener t ~mark l =
  t.marked <- Array.append [| { mark; on_mark = l } |] t.marked;
  t.tick_mark <- min t.tick_mark mark

let ticks t = t.ticks

let total_insns t = t.insns
let total_cycles t = t.cycles.(0)
let counters t = t.counters
let config t = t.cfg
let predictor t = t.predictor
let dcache t = t.dcache
