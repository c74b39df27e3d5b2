open Mtj_core
module Engine = Mtj_machine.Engine
module Counters = Mtj_machine.Counters

type kind =
  | Phase_begin of Phase.t
  | Phase_end of Phase.t
  | Trace_enter of int
  | Trace_exit of int
  | Guard_fail of int
  | Trace_compile of int
  | Trace_abort of int
  | Marker of int

type event = { kind : kind; at_insns : int; at_cycles : float }

type sample = {
  s_insns : int;
  s_cycles : float;
  s_ticks : int;
  s_counters : Counters.snapshot;
}

(* Events are stored structure-of-arrays so recording is three unboxed
   stores and a counter bump: an int tag, an int argument, and the two
   timestamps.  Tags: 0 phase_begin, 1 phase_end, 2 trace_enter,
   3 trace_exit, 4 guard_fail, 5 trace_compile, 6 trace_abort, 7 marker.
   The four arrays start at [initial_slots] (or [capacity], if smaller)
   and double when full, up to [capacity], so a short run pays for the
   events it records rather than for the bound. *)
type t = {
  eng : Engine.t;
  capacity : int;
  mutable tags : int array;
  mutable args : int array;
  mutable ev_insns : int array;
  mutable ev_cycles : float array;
  mutable n : int;
  mutable dropped : int;
  (* counter sampling *)
  window : int;
  mutable next_mark : int;
  base_ticks : int;  (* the engine's tick count at attach *)
  mutable rev_samples : sample list;
  (* run boundaries *)
  start_phase : Phase.t;
  start_insns : int;
  start_cycles : float;
  mutable end_insns : int;
  mutable end_cycles : float;
  mutable finalized : bool;
}

let ticks t = Engine.ticks t.eng - t.base_ticks

(* Samples are taken from inside listener dispatch, i.e. mid-stream of
   the engine's charging.  Every charge lands in the counter arrays
   before the next annotation or tick can reach a listener, so
   ring-buffer samples observe exact counts with no synchronization
   here. *)
let take_sample t insns =
  t.rev_samples <-
    {
      s_insns = insns;
      s_cycles = Engine.total_cycles t.eng;
      s_ticks = ticks t;
      s_counters = Counters.total (Engine.counters t.eng);
    }
    :: t.rev_samples

let initial_slots = 1024

let grow t =
  let n = t.n in
  let len = min t.capacity (2 * n) in
  let extend a zero =
    let b = Array.make len zero in
    Array.blit a 0 b 0 n;
    b
  in
  t.tags <- extend t.tags 0;
  t.args <- extend t.args 0;
  t.ev_insns <- extend t.ev_insns 0;
  t.ev_cycles <- extend t.ev_cycles 0.0

let record t tag arg insns =
  if t.n = Array.length t.tags && t.n < t.capacity then grow t;
  if t.n < Array.length t.tags then begin
    let i = t.n in
    t.tags.(i) <- tag;
    t.args.(i) <- arg;
    t.ev_insns.(i) <- insns;
    t.ev_cycles.(i) <- Engine.total_cycles t.eng;
    t.n <- i + 1
  end
  else t.dropped <- t.dropped + 1

(* The sampling rule: one sample at each event at or past [next_mark],
   which then moves up by a window.  Annotations meet it in [on_annot],
   ticks in [on_tick], a mark listener at [next_mark]: that only rises,
   so the engine's mark for the sink is never above it, and every tick
   at which the rule samples reaches [on_tick]. *)
let sample_at t insns =
  if insns >= t.next_mark then begin
    take_sample t insns;
    t.next_mark <- t.next_mark + t.window
  end

let on_annot t ~insns (a : Annot.t) =
  (match a with
  | Annot.Phase_push p -> record t 0 (Phase.index p) insns
  | Annot.Phase_pop p -> record t 1 (Phase.index p) insns
  | Annot.Trace_enter id -> record t 2 id insns
  | Annot.Trace_exit id -> record t 3 id insns
  | Annot.Guard_fail id -> record t 4 id insns
  | Annot.Trace_compile id -> record t 5 id insns
  | Annot.Trace_abort code -> record t 6 code insns
  | Annot.App_marker n -> record t 7 n insns
  | Annot.Aot_enter _ | Annot.Aot_exit _ -> ());
  sample_at t insns

let on_tick t ~insns ~ticks:_ =
  sample_at t insns;
  t.next_mark

let attach ?(capacity = 1 lsl 18) ?counter_window eng =
  let window =
    match counter_window with
    | Some w -> max 1 w
    | None -> (Engine.config eng).Config.sample_window
  in
  let capacity = max 16 capacity in
  let slots = min capacity initial_slots in
  let t =
    {
      eng;
      capacity;
      tags = Array.make slots 0;
      args = Array.make slots 0;
      ev_insns = Array.make slots 0;
      ev_cycles = Array.make slots 0.0;
      n = 0;
      dropped = 0;
      window;
      next_mark = Engine.total_insns eng + window;
      base_ticks = Engine.ticks eng;
      rev_samples = [];
      start_phase = Engine.current_phase eng;
      start_insns = Engine.total_insns eng;
      start_cycles = Engine.total_cycles eng;
      end_insns = 0;
      end_cycles = 0.0;
      finalized = false;
    }
  in
  (* baseline sample: counter windows are deltas between consecutive
     samples, so the exporters need the totals at attach time *)
  take_sample t t.start_insns;
  Engine.add_listener eng (fun ~insns a -> on_annot t ~insns a);
  Engine.add_mark_listener eng ~mark:t.next_mark (on_tick t);
  t

let finalize t =
  if not t.finalized then begin
    t.end_insns <- Engine.total_insns t.eng;
    t.end_cycles <- Engine.total_cycles t.eng;
    take_sample t t.end_insns;
    t.finalized <- true
  end

let kind_of t i =
  let arg = t.args.(i) in
  match t.tags.(i) with
  | 0 -> Phase_begin (Phase.of_index arg)
  | 1 -> Phase_end (Phase.of_index arg)
  | 2 -> Trace_enter arg
  | 3 -> Trace_exit arg
  | 4 -> Guard_fail arg
  | 5 -> Trace_compile arg
  | 6 -> Trace_abort arg
  | 7 -> Marker arg
  | tag -> invalid_arg (Printf.sprintf "Sink: bad event tag %d" tag)

let event_of t i =
  { kind = kind_of t i; at_insns = t.ev_insns.(i); at_cycles = t.ev_cycles.(i) }

let events t = Array.init t.n (event_of t)

let iter_events t f =
  for i = 0 to t.n - 1 do
    f (event_of t i)
  done

let samples t = List.rev t.rev_samples
let num_events t = t.n
let dropped t = t.dropped
let start_phase t = t.start_phase
let start_insns t = t.start_insns
let start_cycles t = t.start_cycles

let end_insns t = if t.finalized then t.end_insns else Engine.total_insns t.eng
let end_cycles t =
  if t.finalized then t.end_cycles else Engine.total_cycles t.eng

let engine t = t.eng
