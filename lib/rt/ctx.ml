(** Runtime context threaded through all runtime operations: the machine
    engine that work is charged to and the garbage collector that owns
    the heap. *)

type code = ..
(* executable form of a compiled trace.  The constructor lives in the
   JIT layer (Mtj_rjit.Executor extends this with its closure-threaded
   step arrays); declaring the extensible type here lets the context own
   the cache without depending on the JIT. *)

type t = {
  engine : Mtj_machine.Engine.t;
  gc : Gc_sim.t;
  out : Buffer.t;  (* program output (print), kept off stdout for benches *)
  builtin_cache : (int, Value.t) Hashtbl.t;
      (* builtin function singletons, keyed by builtin tag.  Per-context
         (rather than a process-wide table) so every VM allocates its
         builtins in its own simulated heap: runs stay independent of
         which VM happened to run first, which is what makes results
         reproducible under the parallel harness. *)
  code_cache : (int, code) Hashtbl.t;
      (* threaded trace code keyed by trace id.  Per-context for the same
         reason as [builtin_cache]: translations close over this
         context's engine/gc, so sharing them across domains would leak
         simulated state between runs. *)
  uid : int;
      (* process-unique context identity.  The shared artifact cache
         (Mtj_rjit.Sharedcache) records the publishing context's uid so
         hits can be split into same-context and cross-context; the uid
         is host-side bookkeeping only and never feeds simulated state,
         so allocation order across domains cannot perturb a run. *)
}

(* uid source; Atomic so contexts can be created from any domain *)
let next_uid = Atomic.make 0

let create ?config () =
  let config = Option.value ~default:Mtj_core.Config.default config in
  let engine = Mtj_machine.Engine.create ~config () in
  let gc = Gc_sim.create engine config in
  {
    engine;
    gc;
    out = Buffer.create 256;
    builtin_cache = Hashtbl.create 64;
    code_cache = Hashtbl.create 64;
    uid = Atomic.fetch_and_add next_uid 1;
  }

let engine t = t.engine
let gc t = t.gc
let out t = t.out
let builtin_cache t = t.builtin_cache
let code_cache t = t.code_cache
let config t = Mtj_machine.Engine.config t.engine
let uid t = t.uid
