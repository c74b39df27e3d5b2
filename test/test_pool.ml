(** Tests for the domain worker pool and the parallel runner path.

    The determinism test is the load-bearing one: it checks that filling
    the run cache from four worker domains produces bit-identical
    simulation results to running serially, which is the property the
    whole `-j N` harness rests on (see DESIGN.md, "Domain-safety
    audit"). *)

module P = Mtj_harness.Pool
module R = Mtj_harness.Runner

exception Boom of int

(* more jobs than workers: everything completes, results in order *)
let test_completion () =
  let t = P.create ~jobs:3 in
  let futs = List.init 50 (fun i -> P.submit t (fun () -> i * i)) in
  let results = List.map P.await futs in
  P.shutdown t;
  Alcotest.(check (list int))
    "squares in submission order"
    (List.init 50 (fun i -> i * i))
    results

(* a raising job propagates its exception to [await]; other jobs on the
   same pool are unaffected *)
let test_exception_propagation () =
  let t = P.create ~jobs:2 in
  let ok = P.submit t (fun () -> 41 + 1) in
  let bad = P.submit t (fun () -> raise (Boom 7)) in
  Alcotest.(check int) "healthy job unaffected" 42 (P.await ok);
  (match P.await bad with
  | n -> Alcotest.failf "expected Boom, got %d" n
  | exception Boom 7 -> ());
  P.shutdown t;
  (* submitting to a shut-down pool is an error, not a hang *)
  match P.submit t (fun () -> 0) with
  | _ -> Alcotest.fail "submit after shutdown should raise"
  | exception Invalid_argument _ -> ()

(* [map] drains every job even when one fails, then re-raises the first
   failure in list order *)
let test_map_exception () =
  let ran = Atomic.make 0 in
  match
    P.map ~jobs:4
      (fun i ->
        Atomic.incr ran;
        if i = 5 then raise (Boom i) else i)
      (List.init 12 Fun.id)
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 5 ->
      Alcotest.(check int) "every job still ran" 12 (Atomic.get ran)

(* shutdown is idempotent: a second call (the serving teardown path can
   reach one) must neither hang nor double-join the workers *)
let test_shutdown_twice () =
  let t = P.create ~jobs:2 in
  let futs = List.init 8 (fun i -> P.submit t (fun () -> i)) in
  ignore (List.map P.await futs);
  P.shutdown t;
  P.shutdown t;
  (* and the closed state still rejects new work *)
  match P.submit t (fun () -> 0) with
  | _ -> Alcotest.fail "submit after double shutdown should raise"
  | exception Invalid_argument _ -> ()

(* exceptions raised under contention (many failing jobs racing on few
   workers) each propagate to their own future with a usable backtrace,
   and never poison a neighbouring job *)
let test_exceptions_under_contention () =
  let t = P.create ~jobs:3 in
  let futs =
    List.init 64 (fun i ->
        ( i,
          P.submit t (fun () ->
              if i land 1 = 1 then raise (Boom i) else i * 3) ))
  in
  List.iter
    (fun (i, fut) ->
      if i land 1 = 1 then (
        Printexc.record_backtrace true;
        match P.await fut with
        | n -> Alcotest.failf "job %d: expected Boom, got %d" i n
        | exception Boom j -> Alcotest.(check int) "own payload" i j)
      else Alcotest.(check int) "healthy job result" (i * 3) (P.await fut))
    futs;
  P.shutdown t

(* burn a little CPU so job durations vary and workers interleave *)
let spin n =
  let acc = ref 0 in
  for i = 1 to 200 * (1 + (n land 31)) do
    acc := (!acc * 7919) + i
  done;
  !acc

let prop_map_matches_list_map =
  QCheck.Test.make ~name:"Pool.map = List.map on random job mixes"
    ~count:25
    QCheck.(pair (int_range 1 6) (small_list small_int))
    (fun (jobs, xs) ->
      let f x = (spin x lxor x) land 0xffff in
      P.map ~jobs f xs = List.map f xs)

(* the property the harness depends on: prefetching the cache from four
   worker domains yields exactly the results of serial runs *)
let sample_runs =
  [
    ("telco", R.Cpython);
    ("telco", R.Pypy_jit);
    ("richards", R.Pypy_jit);
    ("nbody", R.Pycket_jit);
  ]

let digest (r : R.result) =
  Printf.sprintf "%s/%s: %s insns=%d cycles=%.3f ticks=%d out=%S"
    r.R.bench_name
    (R.config_name r.R.config)
    (match r.R.status with
    | R.Ok_run -> "ok"
    | R.Hit_budget -> "budget"
    | R.Failed e -> "failed:" ^ e)
    r.R.insns r.R.cycles r.R.ticks r.R.output

let test_parallel_determinism () =
  let budget = 2_000_000 in
  R.clear_cache ();
  let serial =
    List.map (fun (b, c) -> digest (R.run ~budget b c)) sample_runs
  in
  R.clear_cache ();
  R.prefetch ~jobs:4 ~budget sample_runs;
  let parallel =
    List.map (fun (b, c) -> digest (R.run ~budget b c)) sample_runs
  in
  (* drop the small-budget entries so later suites see a clean slate *)
  R.clear_cache ();
  List.iter2
    (Alcotest.(check string) "parallel result = serial result")
    serial parallel

(* run_many returns results in request order, independent of worker
   scheduling, and tolerates duplicate keys *)
let test_run_many_order () =
  let budget = 2_000_000 in
  R.clear_cache ();
  let pairs = sample_runs @ [ List.hd sample_runs ] in
  let rs = R.run_many ~jobs:4 ~budget pairs in
  R.clear_cache ();
  Alcotest.(check (list string))
    "results line up with requests"
    (List.map fst pairs)
    (List.map (fun (r : R.result) -> r.R.bench_name) rs)

(* the memo cache is keyed by budget too: one pair run at two budgets in
   one process simulates twice, and each run stops at its own budget *)
let test_cache_keyed_by_budget () =
  R.clear_cache ();
  let small = R.run ~budget:300_000 "nbody" R.Pypy_jit in
  let large = R.run ~budget:600_000 "nbody" R.Pypy_jit in
  R.clear_cache ();
  Alcotest.(check bool) "small run stops at its budget" true
    (small.R.status = R.Hit_budget);
  Alcotest.(check bool) "larger budget runs further" true
    (small.R.insns < large.R.insns)

let suite =
  [
    Alcotest.test_case "50 jobs on 3 workers" `Quick test_completion;
    Alcotest.test_case "exception propagation" `Quick
      test_exception_propagation;
    Alcotest.test_case "map drains on failure" `Quick test_map_exception;
    Alcotest.test_case "shutdown is idempotent" `Quick test_shutdown_twice;
    Alcotest.test_case "exceptions under contention" `Quick
      test_exceptions_under_contention;
    QCheck_alcotest.to_alcotest prop_map_matches_list_map;
    Alcotest.test_case "parallel prefetch is deterministic" `Slow
      test_parallel_determinism;
    Alcotest.test_case "run_many preserves order" `Slow test_run_many_order;
    Alcotest.test_case "memo cache is keyed by budget" `Quick
      test_cache_keyed_by_budget;
  ]
