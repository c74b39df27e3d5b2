(** Property tests for the allocation-free value fast path: the
    immediate-tagged int/bool/nil representation.

    The immediate-identity properties pin the physical-equality
    contract documented in [value.mli], the integral-float hash tests
    pin the [py_eq]/[py_hash] contract that dict lookups rely on, and
    the host-counter cases check, in both VMs and under every JIT
    configuration, that the immediate fast path fires and that its
    counters partition the typed-op total. *)

module V = Mtj_rt.Value
module Ctx = Mtj_rt.Ctx
module Hstats = Mtj_rt.Hstats
module Config = Mtj_core.Config
module B = Mtj_benchmarks.Registry

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

(* ---------- host fast-path counters ---------- *)

(* the host fast-path counters of a registry benchmark's run *)
let hstats_py ~config name =
  let b = B.find_exn ~lang:B.Py name in
  let vm = Mtj_pylite.Vm.create ~config () in
  ignore (Mtj_pylite.Vm.run_source vm b.B.source);
  Ctx.hstats (Mtj_pylite.Vm.rtc vm)

let hstats_rk ~config name =
  let b = B.find_exn ~lang:B.Rk name in
  let vm = Mtj_rklite.Kvm.create ~config () in
  ignore (Mtj_rklite.Kvm.run_source vm b.B.source);
  Ctx.hstats (Mtj_rklite.Kvm.rtc vm)

let check_counters ~label ~bench hstats config =
  let h = hstats ~config bench in
  Alcotest.(check bool)
    (label ^ ": immediate fast path live") true
    (h.Hstats.imm_fast_path_hits > 0);
  (* counter invariant: every typed op went one way or the other *)
  Alcotest.(check int)
    (label ^ ": imm + boxed = typed total")
    h.Hstats.typed_ops_total
    (h.Hstats.imm_fast_path_hits + h.Hstats.boxed_slow_path_hits)

let budgeted base = Config.with_budget 2_000_000 base

let test_counters_py_jit () =
  check_counters ~label:"binarytrees(py,jit)" ~bench:"binarytrees" hstats_py
    (budgeted Config.default)

let test_counters_py_nojit () =
  check_counters ~label:"binarytrees(py,nojit)" ~bench:"binarytrees"
    hstats_py (budgeted Config.no_jit)

let test_counters_py_2tier () =
  check_counters ~label:"binarytrees(py,2tier)" ~bench:"binarytrees"
    hstats_py (budgeted Config.two_tier)

let test_counters_rk_jit () =
  check_counters ~label:"binarytrees(rk,jit)" ~bench:"binarytrees" hstats_rk
    (budgeted Config.default)

let suite =
  [
    Alcotest.test_case "immediate representation identities" `Quick
      test_immediates;
    QCheck_alcotest.to_alcotest prop_of_int;
    Alcotest.test_case "integral-float hash window" `Quick
      test_float_hash_window;
    QCheck_alcotest.to_alcotest prop_int_float_hash;
    Alcotest.test_case "host counters: py jit" `Quick test_counters_py_jit;
    Alcotest.test_case "host counters: py nojit" `Quick
      test_counters_py_nojit;
    Alcotest.test_case "host counters: py two-tier" `Quick
      test_counters_py_2tier;
    Alcotest.test_case "host counters: rk jit" `Quick test_counters_rk_jit;
  ]
