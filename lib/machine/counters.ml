open Mtj_core

type snapshot = {
  insns : int;
  cycles : float;
  branches : int;
  branch_misses : int;
  loads : int;
  stores : int;
  cache_misses : int;
}

(* The committed per-phase tallies live in the arrays.  On top of them
   sits a one-phase staging area: the scalar [s_*] fields (plus the
   one-element [s_cycles] float array, kept as an array so stores stay
   unboxed) hold the CURRENT values for phase index [cur], and the array
   slots for [cur] are stale whenever [dirty] is set.  Every query
   flushes first, so readers never observe the split. *)
type t = {
  insns : int array;
  cycles : float array;
  branches : int array;
  branch_misses : int array;
  loads : int array;
  stores : int array;
  cache_misses : int array;
  mutable cur : int;
  mutable s_insns : int;
  mutable s_branches : int;
  mutable s_branch_misses : int;
  mutable s_loads : int;
  mutable s_stores : int;
  mutable s_cache_misses : int;
  s_cycles : float array;
  mutable dirty : bool;
  mutable flushes : int;
  mutable fast_bundles : int;
}

let create () =
  let n = Phase.count in
  {
    insns = Array.make n 0;
    cycles = Array.make n 0.0;
    branches = Array.make n 0;
    branch_misses = Array.make n 0;
    loads = Array.make n 0;
    stores = Array.make n 0;
    cache_misses = Array.make n 0;
    cur = 0;
    s_insns = 0;
    s_branches = 0;
    s_branch_misses = 0;
    s_loads = 0;
    s_stores = 0;
    s_cache_misses = 0;
    s_cycles = Array.make 1 0.0;
    dirty = false;
    flushes = 0;
    fast_bundles = 0;
  }

let flush t =
  if t.dirty then begin
    let i = t.cur in
    t.insns.(i) <- t.s_insns;
    t.cycles.(i) <- Array.unsafe_get t.s_cycles 0;
    t.branches.(i) <- t.s_branches;
    t.branch_misses.(i) <- t.s_branch_misses;
    t.loads.(i) <- t.s_loads;
    t.stores.(i) <- t.s_stores;
    t.cache_misses.(i) <- t.s_cache_misses;
    t.dirty <- false;
    t.flushes <- t.flushes + 1
  end

(* Point the staging area at phase index [i].  The loads below are
   bounds-checked on purpose: this is the only place an out-of-range
   index could enter the staged state. *)
let[@inline] select t i =
  if i <> t.cur then begin
    flush t;
    t.cur <- i;
    t.s_insns <- t.insns.(i);
    Array.unsafe_set t.s_cycles 0 t.cycles.(i);
    t.s_branches <- t.branches.(i);
    t.s_branch_misses <- t.branch_misses.(i);
    t.s_loads <- t.loads.(i);
    t.s_stores <- t.stores.(i);
    t.s_cache_misses <- t.cache_misses.(i)
  end

let reset t =
  Array.fill t.insns 0 Phase.count 0;
  Array.fill t.cycles 0 Phase.count 0.0;
  Array.fill t.branches 0 Phase.count 0;
  Array.fill t.branch_misses 0 Phase.count 0;
  Array.fill t.loads 0 Phase.count 0;
  Array.fill t.stores 0 Phase.count 0;
  Array.fill t.cache_misses 0 Phase.count 0;
  t.cur <- 0;
  t.s_insns <- 0;
  t.s_branches <- 0;
  t.s_branch_misses <- 0;
  t.s_loads <- 0;
  t.s_stores <- 0;
  t.s_cache_misses <- 0;
  Array.unsafe_set t.s_cycles 0 0.0;
  t.dirty <- false;
  t.flushes <- 0;
  t.fast_bundles <- 0

(* --- charging fast path (Engine passes a cached Phase.index) ---

   The staged cycle scalar is loaded from the committed array value and
   receives exactly the [+.] sequence the array slot used to receive, so
   the flushed value is bit-for-bit what unstaged charging produced.
   [~cycles] stays unboxed only because these inline into Engine, which
   needs a build without [-opaque]. *)

let[@inline] add_bundle_idx t i ~n ~loads ~stores ~cycles =
  select t i;
  t.s_insns <- t.s_insns + n;
  Array.unsafe_set t.s_cycles 0 (Array.unsafe_get t.s_cycles 0 +. cycles);
  t.s_loads <- t.s_loads + loads;
  t.s_stores <- t.s_stores + stores;
  t.dirty <- true;
  t.fast_bundles <- t.fast_bundles + 1

let[@inline] add_branch_idx t i ~mispredicted ~cycles =
  select t i;
  t.s_insns <- t.s_insns + 1;
  t.s_branches <- t.s_branches + 1;
  if mispredicted then t.s_branch_misses <- t.s_branch_misses + 1;
  Array.unsafe_set t.s_cycles 0 (Array.unsafe_get t.s_cycles 0 +. cycles);
  t.dirty <- true

let[@inline] add_cache_miss_idx t i ~cycles =
  select t i;
  t.s_cache_misses <- t.s_cache_misses + 1;
  Array.unsafe_set t.s_cycles 0 (Array.unsafe_get t.s_cycles 0 +. cycles);
  t.dirty <- true

(* --- fast-path observability --- *)

let charge_flushes t = flush t; t.flushes
let fast_path_bundles t = t.fast_bundles

(* --- queries (self-flushing, so captured handles always read exact) --- *)

let phase t p : snapshot =
  flush t;
  let i = Phase.index p in
  {
    insns = t.insns.(i);
    cycles = t.cycles.(i);
    branches = t.branches.(i);
    branch_misses = t.branch_misses.(i);
    loads = t.loads.(i);
    stores = t.stores.(i);
    cache_misses = t.cache_misses.(i);
  }

let total t =
  flush t;
  let add (a : snapshot) (s : snapshot) : snapshot =
    {
      insns = a.insns + s.insns;
      cycles = a.cycles +. s.cycles;
      branches = a.branches + s.branches;
      branch_misses = a.branch_misses + s.branch_misses;
      loads = a.loads + s.loads;
      stores = a.stores + s.stores;
      cache_misses = a.cache_misses + s.cache_misses;
    }
  in
  let zero : snapshot =
    { insns = 0; cycles = 0.0; branches = 0; branch_misses = 0; loads = 0;
      stores = 0; cache_misses = 0 }
  in
  List.fold_left (fun acc p -> add acc (phase t p)) zero Phase.all

let ipc (s : snapshot) = if s.cycles <= 0.0 then 0.0 else float_of_int s.insns /. s.cycles

let branch_mpki (s : snapshot) =
  if s.insns = 0 then 0.0
  else 1000.0 *. float_of_int s.branch_misses /. float_of_int s.insns

let branch_per_insn (s : snapshot) =
  if s.insns = 0 then 0.0
  else float_of_int s.branches /. float_of_int s.insns

let branch_miss_rate (s : snapshot) =
  if s.branches = 0 then 0.0
  else float_of_int s.branch_misses /. float_of_int s.branches
