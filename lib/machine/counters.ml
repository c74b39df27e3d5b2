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

(* One phase's counters.  [cycles] is one cell, as [Engine.cycles]:
   float-array stores stay unboxed, unlike a mutable float field in this
   mixed record, which would allocate per charge. *)
type slot = {
  mutable insns : int;
  cycles : float array;
  mutable branches : int;
  mutable branch_misses : int;
  mutable loads : int;
  mutable stores : int;
  mutable cache_misses : int;
}

(* One slot per phase, indexed by [Phase.index]. *)
type t = slot array

let create () : t =
  Array.init Phase.count (fun _ ->
      {
        insns = 0;
        cycles = Array.make 1 0.0;
        branches = 0;
        branch_misses = 0;
        loads = 0;
        stores = 0;
        cache_misses = 0;
      })

let slot (t : t) i = t.(i)

(* --- charging (Engine passes its current phase's slot) ---

   No index, no bounds check: the slot was looked up once, at the phase
   change.  [~cycles] stays unboxed only because these inline into
   Engine, which needs a build without [-opaque]. *)

let[@inline] add_cycles s cycles =
  Array.unsafe_set s.cycles 0 (Array.unsafe_get s.cycles 0 +. cycles)

let[@inline] add_bundle s ~n ~loads ~stores ~cycles =
  s.insns <- s.insns + n;
  add_cycles s cycles;
  s.loads <- s.loads + loads;
  s.stores <- s.stores + stores

let[@inline] add_branch s ~mispredicted ~cycles =
  s.insns <- s.insns + 1;
  s.branches <- s.branches + 1;
  if mispredicted then s.branch_misses <- s.branch_misses + 1;
  add_cycles s cycles

let[@inline] add_cache_miss s ~cycles =
  s.cache_misses <- s.cache_misses + 1;
  add_cycles s cycles

(* --- queries --- *)

let phase t p : snapshot =
  let s = slot t (Phase.index p) in
  {
    insns = s.insns;
    cycles = Array.unsafe_get s.cycles 0;
    branches = s.branches;
    branch_misses = s.branch_misses;
    loads = s.loads;
    stores = s.stores;
    cache_misses = s.cache_misses;
  }

let total t =
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
