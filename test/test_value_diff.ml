(** Differential and property tests for the allocation-free value fast
    paths: the immediate-tagged int/bool/nil representation and
    per-context frame pooling.

    The load-bearing test is the frame-pool differential: running the
    same benchmark with [frame_pool] on and off must produce
    BYTE-IDENTICAL simulated results — output, per-phase machine
    counters (cycles compared exactly), GC statistics and JIT log — in
    both VMs and under every JIT configuration.  The fast paths are
    host-side optimizations only; any divergence means a recycled frame
    leaked state into the simulation.  The immediate-identity properties
    pin the physical-equality contract documented in [value.mli], and
    the integral-float hash tests pin the [py_eq]/[py_hash] contract
    that dict lookups rely on. *)

module V = Mtj_rt.Value
module Ctx = Mtj_rt.Ctx
module Hstats = Mtj_rt.Hstats
module Apool = Mtj_rt.Apool
module Counters = Mtj_machine.Counters
module Engine = Mtj_machine.Engine
module Config = Mtj_core.Config
module Phase = Mtj_core.Phase
module B = Mtj_benchmarks.Registry
module Jitlog = Mtj_rjit.Jitlog

(* ---------- immediate int/bool/nil representation ---------- *)

let test_immediates () =
  (* EVERY int is an unboxed immediate now: physical equality always
     holds, not just inside a small intern window *)
  List.iter
    (fun i ->
      if not (V.of_int i == V.of_int i) then
        Alcotest.failf "of_int %d not an immediate" i;
      Alcotest.(check bool)
        (Printf.sprintf "%d is_int" i)
        true
        (V.is_int (V.of_int i));
      Alcotest.(check int)
        (Printf.sprintf "%d round-trips" i)
        i
        (V.to_int_unchecked (V.of_int i)))
    [ 0; 1; -1; 7; 255; 256; -257; 65_536; max_int; min_int ];
  (* shared singletons *)
  Alcotest.(check bool) "true_ shared" true (V.of_bool true == V.true_);
  Alcotest.(check bool) "false_ shared" true (V.of_bool false == V.false_);
  Alcotest.(check bool) "nil is nil" true (V.is_nil V.nil);
  Alcotest.(check bool) "true_ is bool" true (V.is_bool V.true_);
  Alcotest.(check bool) "nil not int" false (V.is_int V.nil);
  Alcotest.(check bool) "true_ not int" false (V.is_int V.true_);
  (* immediates never alias the boxed kinds *)
  let z = V.of_int 0 and o = V.of_int 1 in
  Alcotest.(check bool) "0 <> nil" false (V.is_nil z);
  Alcotest.(check bool) "0 <> false" false (V.is_bool z);
  Alcotest.(check bool) "1 <> true" false (V.is_bool o)

let prop_of_int =
  QCheck.Test.make ~name:"of_int views as Int for every int" ~count:2000
    (QCheck.make
       QCheck.Gen.(oneof [ int_range (-5000) 5000; int ]))
    (fun i ->
      let v = V.of_int i in
      (match V.view v with V.Int j -> j = i | _ -> false)
      && V.py_eq v (V.of_int i)
      && V.py_hash v = V.py_hash (V.of_int i)
      && V.of_int i == V.of_int i)

(* ---------- integral-float hash/equality contract ---------- *)

(* regression for the 1e15/1e16 threshold mismatch: integral floats in
   [1e15, 1e16) used to hash differently from their equal ints, so a
   dict keyed by 2e15 could not be probed with 2.0e15 *)
let test_float_hash_window () =
  List.iter
    (fun i ->
      let f = float_of_int i in
      Alcotest.(check bool)
        (Printf.sprintf "py_eq %d its float twin" i)
        true
        (V.py_eq (V.of_int i) (V.of_float f));
      Alcotest.(check int)
        (Printf.sprintf "py_hash %d = py_hash %g" i f)
        (V.py_hash (V.of_int i))
        (V.py_hash (V.of_float f)))
    [
      0; 1; -1; 42;
      999_999_999_999_999;           (* just below 1e15 *)
      1_000_000_000_000_000;         (* the old broken threshold *)
      1_000_000_000_000_001;
      3_000_000_000_000_000;         (* inside the historical window *)
      9_999_999_999_999_998;         (* just below 1e16 *)
      -3_000_000_000_000_000;
    ]

let prop_int_float_hash =
  (* |i| <= 9e15 < 2^53, so float_of_int is exact and py_eq holds;
     the hash must then agree — including across [1e15, 1e16) *)
  QCheck.Test.make ~name:"py_eq (Int i) (Float f) implies equal hashes"
    ~count:2000
    (QCheck.make
       QCheck.Gen.(
         oneof
           [
             int_range (-5000) 5000;
             int_range (-9_000_000_000_000_000) 9_000_000_000_000_000;
             int_range 900_000_000_000_000 9_000_000_000_000_000;
           ]))
    (fun i ->
      let f = float_of_int i in
      V.py_eq (V.of_int i) (V.of_float f)
      && V.py_hash (V.of_int i) = V.py_hash (V.of_float f))

(* ---------- array-pool reuse contract ---------- *)

let test_apool_reuse () =
  let stats = Hstats.create () in
  let pool = Apool.create ~enabled:true ~stats V.nil in
  let a = Apool.acquire pool 8 in
  a.(0) <- V.of_int 7;
  a.(7) <- V.of_str "x";
  Apool.release pool a;
  let b = Apool.acquire pool 8 in
  Alcotest.(check bool) "same array recycled" true (a == b);
  Alcotest.(check int) "reuse counted" 1 stats.Hstats.frame_pool_reuses;
  (* release refilled with the default: indistinguishable from fresh *)
  Array.iteri
    (fun i v ->
      if not (V.is_nil v) then Alcotest.failf "slot %d not cleared" i)
    b;
  (* different length = different bucket *)
  let c = Apool.acquire pool 9 in
  Alcotest.(check bool) "no cross-length reuse" false (b == c);
  Alcotest.(check int) "no extra reuse counted" 1
    stats.Hstats.frame_pool_reuses;
  (* oversize arrays are never pooled *)
  let big = Apool.acquire pool 1000 in
  Apool.release pool big;
  let big' = Apool.acquire pool 1000 in
  Alcotest.(check bool) "oversize not pooled" false (big == big');
  (* a disabled pool is plain allocation *)
  let off = Apool.create ~enabled:false ~stats:(Hstats.create ()) V.nil in
  let d = Apool.acquire off 8 in
  Apool.release off d;
  let d' = Apool.acquire off 8 in
  Alcotest.(check bool) "disabled pool never reuses" false (d == d')

(* ---------- frame-pool on/off differential ---------- *)

let snap_str (s : Counters.snapshot) =
  Printf.sprintf "i=%d c=%.17g b=%d bm=%d l=%d s=%d cm=%d" s.Counters.insns
    s.Counters.cycles s.Counters.branches s.Counters.branch_misses
    s.Counters.loads s.Counters.stores s.Counters.cache_misses

(* everything the simulation exposes about a run, EXCLUDING the host
   fast-path counters (those legitimately differ between pool modes) *)
let observe ~status ~output ~engine ~gc ~jitlog =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "status=%s\n" status);
  let counters = Engine.counters engine in
  List.iter
    (fun p ->
      let s = Counters.phase counters p in
      if s.Counters.insns <> 0 then
        Buffer.add_string buf
          (Printf.sprintf "%s: %s\n" (Phase.name p) (snap_str s)))
    Phase.all;
  Buffer.add_string buf ("total: " ^ snap_str (Counters.total counters) ^ "\n");
  let g : Mtj_rt.Gc_sim.stats = gc in
  Buffer.add_string buf
    (Printf.sprintf "gc: minor=%d major=%d objs=%d words=%d promoted=%d freed=%d\n"
       g.Mtj_rt.Gc_sim.minor_collections g.Mtj_rt.Gc_sim.major_collections
       g.Mtj_rt.Gc_sim.allocated_objects g.Mtj_rt.Gc_sim.allocated_words
       g.Mtj_rt.Gc_sim.promoted_objects g.Mtj_rt.Gc_sim.freed_objects);
  let (j : Jitlog.t) = jitlog in
  Buffer.add_string buf
    (Printf.sprintf "jit: traces=%d aborts=%d deopts=%d bridges=%d trans=%d\n"
       (List.length j.Jitlog.traces) j.Jitlog.aborts j.Jitlog.deopts
       j.Jitlog.bridges_attached j.Jitlog.translations);
  Buffer.add_string buf ("out=" ^ output);
  Buffer.contents buf

let status_of = function
  | Mtj_rjit.Driver.Completed _ -> "ok"
  | Mtj_rjit.Driver.Budget_exceeded -> "budget"
  | Mtj_rjit.Driver.Runtime_error e -> "failed: " ^ e

(* run a registry benchmark; returns the digest and the host fast-path
   counters (reported separately, not part of the digest) *)
let run_py ~config name =
  let b = B.find_exn ~lang:B.Py name in
  let vm = Mtj_pylite.Vm.create ~config () in
  let outcome = Mtj_pylite.Vm.run_source vm b.B.source in
  ( observe ~status:(status_of outcome)
      ~output:(Mtj_pylite.Vm.output vm)
      ~engine:(Mtj_pylite.Vm.engine vm)
      ~gc:(Mtj_rt.Gc_sim.stats (Ctx.gc (Mtj_pylite.Vm.rtc vm)))
      ~jitlog:(Mtj_pylite.Vm.jitlog vm),
    Ctx.hstats (Mtj_pylite.Vm.rtc vm) )

let run_rk ~config name =
  let b = B.find_exn ~lang:B.Rk name in
  let vm = Mtj_rklite.Kvm.create ~config () in
  let outcome = Mtj_rklite.Kvm.run_source vm b.B.source in
  ( observe ~status:(status_of outcome)
      ~output:(Mtj_rklite.Kvm.output vm)
      ~engine:(Mtj_rklite.Kvm.engine vm)
      ~gc:(Mtj_rt.Gc_sim.stats (Ctx.gc (Mtj_rklite.Kvm.rtc vm)))
      ~jitlog:(Mtj_rklite.Kvm.jitlog vm),
    Ctx.hstats (Mtj_rklite.Kvm.rtc vm) )

let check_pool_invariant ~label ~bench run base_config =
  let on = { base_config with Config.frame_pool = true } in
  let off = { base_config with Config.frame_pool = false } in
  let d_on, h_on = run ~config:on bench in
  let d_off, h_off = run ~config:off bench in
  Alcotest.(check string)
    (label ^ ": pool off = pool on") d_off d_on;
  (* liveness: the pool really recycled frames, and only when enabled *)
  Alcotest.(check bool)
    (label ^ ": pool-on run reused frames") true
    (h_on.Hstats.frame_pool_reuses > 0);
  Alcotest.(check int)
    (label ^ ": pool-off run reused nothing") 0
    h_off.Hstats.frame_pool_reuses;
  Alcotest.(check bool)
    (label ^ ": immediate fast path live in both modes") true
    (h_on.Hstats.imm_fast_path_hits > 0
    && h_off.Hstats.imm_fast_path_hits > 0);
  (* counter invariant: every typed op went one way or the other *)
  List.iter
    (fun (m, h) ->
      Alcotest.(check int)
        (label ^ ": imm + boxed = typed total (" ^ m ^ ")")
        h.Hstats.typed_ops_total
        (h.Hstats.imm_fast_path_hits + h.Hstats.boxed_slow_path_hits))
    [ ("on", h_on); ("off", h_off) ]

let budgeted base = Config.with_budget 2_000_000 base

let test_pool_diff_py_jit () =
  check_pool_invariant ~label:"binarytrees(py,jit)" ~bench:"binarytrees"
    run_py (budgeted Config.default)

let test_pool_diff_py_nojit () =
  check_pool_invariant ~label:"binarytrees(py,nojit)" ~bench:"binarytrees"
    run_py (budgeted Config.no_jit)

let test_pool_diff_py_2tier () =
  check_pool_invariant ~label:"binarytrees(py,2tier)" ~bench:"binarytrees"
    run_py (budgeted Config.two_tier)

let test_pool_diff_rk_jit () =
  (* rklite: exercises the tail-call release path in both dispatch tiers *)
  check_pool_invariant ~label:"binarytrees(rk,jit)" ~bench:"binarytrees"
    run_rk (budgeted Config.default)

let suite =
  [
    Alcotest.test_case "immediate representation identities" `Quick
      test_immediates;
    QCheck_alcotest.to_alcotest prop_of_int;
    Alcotest.test_case "integral-float hash window" `Quick
      test_float_hash_window;
    QCheck_alcotest.to_alcotest prop_int_float_hash;
    Alcotest.test_case "array pool reuse contract" `Quick test_apool_reuse;
    Alcotest.test_case "pool diff: py jit" `Quick test_pool_diff_py_jit;
    Alcotest.test_case "pool diff: py nojit" `Quick test_pool_diff_py_nojit;
    Alcotest.test_case "pool diff: py two-tier" `Quick
      test_pool_diff_py_2tier;
    Alcotest.test_case "pool diff: rk jit" `Quick test_pool_diff_rk_jit;
  ]
