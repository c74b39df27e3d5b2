(** Unit tests for the simulated machine: predictor, cache, counters,
    engine, phase accounting. *)

open Mtj_core
module Engine = Mtj_machine.Engine
module Predictor = Mtj_machine.Predictor
module Dcache = Mtj_machine.Dcache
module Counters = Mtj_machine.Counters

let test_predictor_learns_constant () =
  let p = Predictor.create () in
  (* always-taken branch: near-perfect after warmup *)
  let misses = ref 0 in
  for _ = 1 to 1000 do
    if not (Predictor.conditional p ~site:42 ~taken:true) then incr misses
  done;
  Alcotest.(check bool) "few misses" true (!misses < 5)

let test_predictor_learns_period () =
  let p = Predictor.create () in
  (* period-3 pattern: the local-history predictor captures it *)
  let misses = ref 0 in
  for i = 1 to 3000 do
    let taken = i mod 3 <> 0 in
    if not (Predictor.conditional p ~site:7 ~taken) then incr misses
  done;
  Alcotest.(check bool)
    (Printf.sprintf "period-3 learned (%d misses)" !misses)
    true (!misses < 60)

let test_predictor_random_hard () =
  let p = Predictor.create () in
  let st = Random.State.make [| 42 |] in
  let misses = ref 0 in
  for _ = 1 to 4000 do
    if not (Predictor.conditional p ~site:9 ~taken:(Random.State.bool st))
    then incr misses
  done;
  (* a random branch should miss a lot *)
  Alcotest.(check bool) "random is hard" true (!misses > 1000)

let test_predictor_indirect_single_target () =
  let p = Predictor.create () in
  let misses = ref 0 in
  for _ = 1 to 500 do
    if not (Predictor.indirect p ~site:5 ~target:33) then incr misses
  done;
  Alcotest.(check bool) "btb learns" true (!misses < 10)

let test_predictor_indirect_periodic () =
  let p = Predictor.create () in
  let misses = ref 0 in
  for i = 1 to 4000 do
    (* a repeating dispatch sequence, as in an interpreted loop body *)
    if not (Predictor.indirect p ~site:5 ~target:(i mod 8)) then incr misses
  done;
  Alcotest.(check bool)
    (Printf.sprintf "path-based indirect (%d misses)" !misses)
    true (!misses < 400)

(* A seeded stream of conditional and indirect branches over 16 sites,
   each site taken with its own bias.  It opens with a probe of the
   global history: an indirect branch, four zero targets that shift the
   history back to 0, and the first branch again, which hits only if
   the history was 0 when the first one ran. *)
let branch_stream =
  let st = Random.State.make [| 25 |] in
  let probe =
    [ `Ind (3, 5); `Ind (4, 0); `Ind (4, 0); `Ind (4, 0); `Ind (4, 0);
      `Ind (3, 5) ]
  in
  Array.of_list
    (probe
    @ List.init 20_000 (fun _ ->
          let site = Random.State.int st 16 in
          if Random.State.int st 4 = 0 then `Ind (site, Random.State.int st 8)
          else `Cond (site, Random.State.int st 8 < site land 7)))

let predict p = function
  | `Cond (site, taken) -> Predictor.conditional p ~site ~taken
  | `Ind (site, target) -> Predictor.indirect p ~site ~target

(* [reset] must restore exactly what [create] builds: a predictor
   dirtied by the stream and reset predicts the stream again branch by
   branch as a fresh one does, and equals it field for field
   (polymorphic equality sees through the abstract type) *)
let test_predictor_reset () =
  let dirty = Predictor.create () in
  Array.iter (fun b -> ignore (predict dirty b)) branch_stream;
  Predictor.reset dirty;
  let fresh = Predictor.create () in
  Alcotest.(check bool) "reset state = created state" true (dirty = fresh);
  let on p = Array.map (predict p) branch_stream in
  let want = on fresh in
  Alcotest.(check bool) "the probe hits on a fresh predictor" true want.(5);
  Alcotest.(check (array bool)) "predictions branch by branch" want (on dirty)

let test_dcache_hit_after_fill () =
  let c = Dcache.create () in
  Alcotest.(check bool) "miss first" false (Dcache.access c ~addr:0x1000);
  Alcotest.(check bool) "hit second" true (Dcache.access c ~addr:0x1000);
  Alcotest.(check bool) "same line" true (Dcache.access c ~addr:0x1008)

let test_dcache_eviction () =
  let c = Dcache.create ~sets_bits:1 ~ways:2 ~line_bits:6 () in
  (* 2 sets x 2 ways; 3 conflicting lines in set 0 must evict *)
  ignore (Dcache.access c ~addr:0);
  ignore (Dcache.access c ~addr:(128 * 1));
  ignore (Dcache.access c ~addr:(128 * 2));
  Alcotest.(check bool) "evicted lru" false (Dcache.access c ~addr:0)

let test_dcache_counters () =
  let c = Dcache.create () in
  ignore (Dcache.access c ~addr:64);
  ignore (Dcache.access c ~addr:64);
  Alcotest.(check int) "hits" 1 (Dcache.hits c);
  Alcotest.(check int) "misses" 1 (Dcache.misses c)

(* 20,000 seeded accesses over 3,072 lines, six to a set of four ways:
   hits, cold misses and LRU evictions all occur *)
let access_stream =
  let st = Random.State.make [| 25 |] in
  Array.init 20_000 (fun _ ->
      (Random.State.int st 3072 lsl 6) + Random.State.int st 64)

(* as [test_predictor_reset], for the cache: the same hit/miss sequence
   and counts as a fresh cache, and the same state field for field.
   Only the equality sees a clock left running: LRU compares stamps
   with each other, never with where the clock started. *)
let test_dcache_reset () =
  let dirty = Dcache.create () in
  Array.iter (fun addr -> ignore (Dcache.access dirty ~addr)) access_stream;
  Dcache.reset dirty;
  let fresh = Dcache.create () in
  Alcotest.(check bool) "reset state = created state" true (dirty = fresh);
  let on c = Array.map (fun addr -> Dcache.access c ~addr) access_stream in
  Alcotest.(check (array bool)) "hits and misses access by access"
    (on fresh) (on dirty);
  Alcotest.(check (pair int int)) "hits, misses"
    (Dcache.hits fresh, Dcache.misses fresh)
    (Dcache.hits dirty, Dcache.misses dirty)

let test_engine_counts_instructions () =
  let e = Engine.create () in
  Engine.emit e (Cost.make ~alu:5 ~load:3 ());
  Engine.branch e ~site:1 ~taken:true;
  Alcotest.(check int) "insns" 9 (Engine.total_insns e)

let test_engine_budget () =
  let config = Config.with_budget 100 Config.default in
  let e = Engine.create ~config () in
  Alcotest.check_raises "budget" Engine.Budget_exhausted (fun () ->
      for _ = 1 to 50 do
        Engine.emit e (Cost.make ~alu:10 ())
      done)

let test_engine_phase_attribution () =
  let e = Engine.create () in
  Engine.emit e (Cost.make ~alu:10 ());
  Engine.in_phase e Phase.Jit (fun () -> Engine.emit e (Cost.make ~alu:20 ()));
  let c = Engine.counters e in
  Alcotest.(check int) "interp" 10
    (Counters.phase c Phase.Interpreter).Counters.insns;
  Alcotest.(check int) "jit" 20 (Counters.phase c Phase.Jit).Counters.insns

let test_engine_phase_nesting () =
  let e = Engine.create () in
  Engine.push_phase e Phase.Jit;
  Engine.push_phase e Phase.Jit_call;
  Alcotest.(check bool) "inner" true (Engine.current_phase e = Phase.Jit_call);
  Engine.pop_phase e;
  Alcotest.(check bool) "restored" true (Engine.current_phase e = Phase.Jit);
  Engine.pop_phase e;
  Alcotest.(check bool) "outer" true (Engine.current_phase e = Phase.Interpreter)

let test_engine_phase_exception_safety () =
  let e = Engine.create () in
  (try Engine.in_phase e Phase.Gc_minor (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "popped on exn" true
    (Engine.current_phase e = Phase.Interpreter)

(* a listener of every kind hears every annotation and no tick: a tick
   is a count, heard only through a mark listener *)
let test_engine_listener () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.add_listener e (fun ~insns:_ a -> seen := a :: !seen);
  for _ = 1 to 1000 do
    Engine.tick e
  done;
  Engine.annot e (Annot.App_marker 7);
  Alcotest.(check (list string)) "the marker alone" [ "app_marker:7" ]
    (List.map Annot.to_string !seen);
  Alcotest.(check int) "ticks counted" 1000 (Engine.ticks e)

let test_engine_annotations_free () =
  let e = Engine.create () in
  Engine.annot e (Annot.App_marker 7);
  Engine.tick e;
  Alcotest.(check int) "no cost" 0 (Engine.total_insns e)

(* a released engine's tables go to the next engine created on the
   domain, and to it alone *)
let test_engine_recycles_tables () =
  (* take whatever an earlier test released: the slot is empty *)
  ignore (Engine.create ());
  let e1 = Engine.create () in
  let fresh = Engine.create () in
  Alcotest.(check bool) "two live engines, two predictors" false
    (Engine.predictor e1 == Engine.predictor fresh);
  Engine.release e1;
  let e2 = Engine.create () in
  Alcotest.(check bool) "predictor reused" true
    (Engine.predictor e2 == Engine.predictor e1);
  Alcotest.(check bool) "d-cache reused" true
    (Engine.dcache e2 == Engine.dcache e1);
  let e3 = Engine.create () in
  Alcotest.(check bool) "the next engine gets new tables" false
    (Engine.predictor e3 == Engine.predictor e2
    || Engine.dcache e3 == Engine.dcache e2);
  (* e1's tables are e2's now: releasing e1 again must not offer them *)
  Engine.release e1;
  let e4 = Engine.create () in
  Alcotest.(check bool) "a second release hands out nothing" false
    (Engine.predictor e4 == Engine.predictor e2
    || Engine.dcache e4 == Engine.dcache e2)

let test_counters_ipc () =
  let e = Engine.create () in
  Engine.set_interp_width e 2.0;
  Engine.emit e (Cost.make ~alu:1000 ());
  let s = Counters.total (Engine.counters e) in
  let ipc = Counters.ipc s in
  Alcotest.(check bool) "ipc near width" true (ipc > 1.9 && ipc <= 2.01)

let test_counters_mpki () =
  let e = Engine.create () in
  Engine.emit e (Cost.make ~alu:999 ());
  (* one never-taken branch initialized weakly-taken: first is a miss *)
  Engine.branch e ~site:77 ~taken:false;
  let s = Counters.total (Engine.counters e) in
  Alcotest.(check bool) "mpki 1" true (Counters.branch_mpki s >= 0.99)

let test_mem_access_counts () =
  let e = Engine.create () in
  Engine.mem_access e ~addr:4096 ~write:false;
  Engine.mem_access e ~addr:4096 ~write:true;
  let s = Counters.total (Engine.counters e) in
  Alcotest.(check int) "loads" 1 s.Counters.loads;
  Alcotest.(check int) "stores" 1 s.Counters.stores;
  Alcotest.(check int) "one miss" 1 s.Counters.cache_misses

let suite =
  [
    Alcotest.test_case "predictor constant" `Quick test_predictor_learns_constant;
    Alcotest.test_case "predictor period-3" `Quick test_predictor_learns_period;
    Alcotest.test_case "predictor random hard" `Quick test_predictor_random_hard;
    Alcotest.test_case "btb single target" `Quick test_predictor_indirect_single_target;
    Alcotest.test_case "btb periodic dispatch" `Quick test_predictor_indirect_periodic;
    Alcotest.test_case "predictor reset" `Quick test_predictor_reset;
    Alcotest.test_case "dcache hit after fill" `Quick test_dcache_hit_after_fill;
    Alcotest.test_case "dcache eviction" `Quick test_dcache_eviction;
    Alcotest.test_case "dcache counters" `Quick test_dcache_counters;
    Alcotest.test_case "dcache reset" `Quick test_dcache_reset;
    Alcotest.test_case "engine instruction count" `Quick test_engine_counts_instructions;
    Alcotest.test_case "engine budget" `Quick test_engine_budget;
    Alcotest.test_case "engine phase attribution" `Quick test_engine_phase_attribution;
    Alcotest.test_case "engine phase nesting" `Quick test_engine_phase_nesting;
    Alcotest.test_case "engine phase exn safety" `Quick test_engine_phase_exception_safety;
    Alcotest.test_case "engine listener" `Quick test_engine_listener;
    Alcotest.test_case "annotations are free" `Quick test_engine_annotations_free;
    Alcotest.test_case "engine recycles tables" `Quick test_engine_recycles_tables;
    Alcotest.test_case "counters ipc" `Quick test_counters_ipc;
    Alcotest.test_case "counters mpki" `Quick test_counters_mpki;
    Alcotest.test_case "mem access counts" `Quick test_mem_access_counts;
  ]
