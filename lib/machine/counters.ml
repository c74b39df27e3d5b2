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

(* One slot per phase in each array, indexed by [Phase.index]. *)
type t = {
  insns : int array;
  cycles : float array;
  branches : int array;
  branch_misses : int array;
  loads : int array;
  stores : int array;
  cache_misses : int array;
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
  }

(* --- charging (Engine passes its cached Phase.index) ---

   The array accesses are bounds-checked: [i] comes from the caller.
   [~cycles] stays unboxed only because these inline into Engine, which
   needs a build without [-opaque]. *)

let[@inline] add_bundle_idx t i ~n ~loads ~stores ~cycles =
  t.insns.(i) <- t.insns.(i) + n;
  t.cycles.(i) <- t.cycles.(i) +. cycles;
  t.loads.(i) <- t.loads.(i) + loads;
  t.stores.(i) <- t.stores.(i) + stores

let[@inline] add_branch_idx t i ~mispredicted ~cycles =
  t.insns.(i) <- t.insns.(i) + 1;
  t.branches.(i) <- t.branches.(i) + 1;
  if mispredicted then t.branch_misses.(i) <- t.branch_misses.(i) + 1;
  t.cycles.(i) <- t.cycles.(i) +. cycles

let[@inline] add_cache_miss_idx t i ~cycles =
  t.cache_misses.(i) <- t.cache_misses.(i) + 1;
  t.cycles.(i) <- t.cycles.(i) +. cycles

(* --- queries --- *)

let phase t p : snapshot =
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
