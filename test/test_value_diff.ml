(** Property tests for the allocation-free value fast path: the
    immediate-tagged int/bool/nil representation.

    The immediate-identity properties pin the physical-equality
    contract documented in [value.mli], the integral-float hash tests
    pin the [py_eq]/[py_hash] contract that dict lookups rely on, the
    host-counter cases check, in both VMs and under every JIT
    configuration, that the run record holds no host fast-path counter,
    and the allocation case checks that small-int arithmetic stays on
    the immediate path, where it touches no host heap. *)

module V = Mtj_rt.Value
module Ctx = Mtj_rt.Ctx
module Rarith = Mtj_rt.Rarith
module Config = Mtj_core.Config
module B = Mtj_benchmarks.Registry
module Runner = Mtj_harness.Runner
module Json = Mtj_obs.Json

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

(* ---------- host counters stay out of the run record ---------- *)

(* The fast paths are invisible to the simulation, so the counters that
   once tallied them are not simulated state and no run record carries
   them. *)
let host_counters =
  [
    "charge_flushes";
    "fast_path_bundles";
    "imm_fast_path_hits";
    "boxed_slow_path_hits";
    "typed_ops_total";
  ]

(* Run a registry benchmark in one VM and configuration and build its
   run record as [Runner] does when a run ends; the record must
   validate, carry the engine's instruction total and hold none of the
   host counters. *)
let check_counters ~label ~lang ~bench config =
  let (module H : Mtj_harness.Hosted.VM) = Mtj_harness.Hosted.vm lang in
  let b = B.find_exn ~lang bench in
  let vm = H.create ~config () in
  let status = Runner.status_of (H.run_source vm b.B.source) in
  let rtc = H.rtc vm in
  let record =
    Mtj_obs.Metrics.run_json ~bench ~config:(Mtj_harness.Hosted.name lang)
      ~status:(Runner.status_name status) ~engine:(H.engine vm)
      ~jitlog:(H.jitlog vm)
      ~gc:(Mtj_rt.Gc_sim.stats (Ctx.gc rtc))
      ()
  in
  let doc = Mtj_obs.Metrics.document ~runs:[ record ] () in
  let reparsed =
    match Json.parse (Json.to_string doc) with
    | Ok j -> j
    | Error e -> Alcotest.failf "%s: record does not parse: %s" label e
  in
  (match Mtj_obs.Validate.metrics reparsed with
  | Ok n -> Alcotest.(check int) (label ^ ": one run record") 1 n
  | Error e -> Alcotest.failf "%s: record rejected: %s" label e);
  let run =
    match Option.bind (Json.member "runs" reparsed) Json.get_arr with
    | Some [ run ] -> run
    | _ -> Alcotest.failf "%s: run record missing" label
  in
  Alcotest.(check (option int))
    (label ^ ": insns is the engine's total")
    (Some (Mtj_machine.Engine.total_insns (H.engine vm)))
    (Option.bind (Json.member "insns" run) Json.get_int);
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (label ^ ": " ^ key ^ " is not exported")
        true
        (Json.member key run = None))
    host_counters

let budgeted base = Config.with_budget 2_000_000 base

let test_counters_py_jit () =
  check_counters ~label:"binarytrees(py,jit)" ~lang:B.Py
    ~bench:"binarytrees" (budgeted Config.default)

let test_counters_py_nojit () =
  check_counters ~label:"binarytrees(py,nojit)" ~lang:B.Py
    ~bench:"binarytrees" (budgeted Config.no_jit)

let test_counters_py_2tier () =
  check_counters ~label:"binarytrees(py,2tier)" ~lang:B.Py
    ~bench:"binarytrees" (budgeted Config.two_tier)

let test_counters_rk_jit () =
  check_counters ~label:"binarytrees(rk,jit)" ~lang:B.Rk
    ~bench:"binarytrees" (budgeted Config.default)

(* ---------- the immediate path allocates nothing ---------- *)

(* Small-int arithmetic takes [Rarith]'s immediate path: tag tests,
   native arithmetic and an [of_int] that is an identity cast, so a call
   leaves the host's minor heap untouched.  A path that round-trips its
   operands through [Value.view] allocates on every call. *)
let test_int_arith_alloc_free () =
  let ctx = Ctx.create () in
  let calls = 10_000 in
  let a i = V.of_int (i land 1023) and b i = V.of_int (1 + (i land 15)) in
  let per_call name f =
    for i = 0 to 999 do ignore (Sys.opaque_identity (f i)) done;
    let before = Gc.minor_words () in
    for i = 0 to calls - 1 do ignore (Sys.opaque_identity (f i)) done;
    let words = Gc.minor_words () -. before in
    if words <> 0.0 then
      Alcotest.failf "Rarith.%s allocated %.3f host words per call" name
        (words /. float_of_int calls)
  in
  per_call "add" (fun i -> Rarith.add ctx (a i) (b i));
  per_call "sub" (fun i -> Rarith.sub ctx (a i) (b i));
  per_call "mul" (fun i -> Rarith.mul ctx (a i) (b i));
  per_call "floordiv" (fun i -> Rarith.floordiv ctx (a i) (b i));
  per_call "modulo" (fun i -> Rarith.modulo ctx (a i) (b i));
  per_call "neg" (fun i -> Rarith.neg ctx (a i));
  per_call "lshift" (fun i -> Rarith.lshift ctx (a i) (i land 31));
  per_call "rshift" (fun i -> Rarith.rshift ctx (a i) (i land 63));
  per_call "compare_num" (fun i ->
      V.of_int (Rarith.compare_num ctx (a i) (b i)))

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
    Alcotest.test_case "int arithmetic allocates nothing" `Quick
      test_int_arith_alloc_free;
  ]
