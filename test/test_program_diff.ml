(** One differential harness over whole programs.

    Each program runs through {!Run_digest} once per (config, dispatch
    mode), and every check that needs a run reads that one run.  The
    configuration matrix names what each axis preserves, and each axis
    is one alcotest suite ([dispatch-diff], [tier-diff],
    [jit-equivalence] and [jit-equivalence-rk], the names of the suites
    that held these checks before the harness):

    - {b dispatch mode} ([Config.threaded_interp]): the full digest is
      byte-identical; the threaded run translates code, the reference
      run translates nothing and never hits the threaded cache;
    - {b tier policy} (optimizing, baseline, adaptive): output and
      status agree across policies, and every JIT run's tier accounting
      holds: its metrics record passes {!Mtj_obs.Validate.metrics},
      optimizing never compiles at tier 1 nor promotes or demotes, and
      baseline never compiles at tier 2 nor promotes and keeps every
      trace at tier 1;
    - {b JIT off, the pass ablations and adaptive at tier-2 threshold
      5}, all at thresholds 9/3: the output equals the interpreter's;
    - {b budget cut points} (1,000, 10,000 and 100,000 insns): the full
      digest under both dispatch modes, for each policy.

    Programs come from one deterministic pool and one generator per
    language.  Generated programs end by construction and never on a
    runtime error.  A failure names the program (a pool name or a
    seed), its language, the config, the budget and the source.
    [QCHECK_LONG=1] runs each random property [long_factor] times its
    draws, a soak; [QCHECK_SEED=n] repeats a sweep. *)

module C = Mtj_core.Config
module D = Run_digest
module Jitlog = Mtj_rjit.Jitlog
module Ir = Mtj_rjit.Ir
module Driver = Mtj_rjit.Driver
module Hosted = Mtj_harness.Hosted
open Mtj_benchmarks.Registry

type prog = { name : string; lang : lang; src : string }

exception Diverged of string

let fail p (cname, (c : C.t)) fmt =
  Printf.ksprintf
    (fun msg ->
      raise
        (Diverged
           (Printf.sprintf "%s (%s), config %s, budget %d: %s\n--- program:\n%s"
              p.name (Hosted.name p.lang) cname c.C.insn_budget msg p.src)))
    fmt

let check p c ok what = if not ok then fail p c "%s" what

(* a QCheck verdict: [true], or the failure's report *)
let verdict f =
  match f () with () -> true | exception Diverged m -> QCheck.Test.fail_report m

let case name f =
  Alcotest.test_case name `Quick (fun () ->
      try f () with Diverged m -> Alcotest.fail m)

(* ---------- the axes ---------- *)

let threaded on (c : C.t) = { c with C.threaded_interp = on }

(* dispatch mode: one digest, and only the threaded run touches the
   threaded cache *)
let dispatch p ((_, config) as c) =
  let t, dt = D.run p.lang (threaded true config) p.src in
  let r, dr = D.run p.lang (threaded false config) p.src in
  if dt <> dr then
    fail p c "threaded and reference runs differ: %s" (D.diff ~expected:dr dt);
  check p c
    (t.D.jitlog.Jitlog.interp_translations > 0)
    "the threaded run translated no code";
  check p c
    (r.D.jitlog.Jitlog.interp_translations = 0)
    "the reference run translated code";
  check p c
    (r.D.jitlog.Jitlog.threaded_code_hits = 0)
    "the reference run hit the threaded cache";
  (t, r)

(* tier policy: the validator's accounting, then the policy's own rules *)
let accounting p ((_, config) as c) (run : D.t) =
  match run.D.record with
  | None -> ()
  | Some doc -> (
      (match Mtj_obs.Validate.metrics doc with
      | Ok _ -> ()
      | Error e -> fail p c "metrics record: %s" e);
      let jl = run.D.jitlog in
      match config.C.tier_policy with
      | C.Optimizing ->
          check p c
            (jl.Jitlog.tier1_compiles = 0 && jl.Jitlog.retiers = 0
           && jl.Jitlog.demotions = 0)
            "optimizing compiled at tier 1, promoted or demoted"
      | C.Baseline ->
          check p c
            (jl.Jitlog.tier2_compiles = 0 && jl.Jitlog.retiers = 0
            && List.for_all
                 (fun (tr : Ir.trace) -> tr.Ir.tier = 1)
                 (Jitlog.traces jl))
            "baseline compiled at tier 2, promoted, or left tier 1"
      | C.Adaptive -> ())

let same_output p c ~(expected : D.t) (run : D.t) =
  if run.D.status <> expected.D.status || run.D.output <> expected.D.output
  then
    fail p c "ended %s with output %S; the interpreter ended %s with %S"
      run.D.status run.D.output expected.D.status expected.D.output

let live p c (run : D.t) =
  check p c
    (not (String.starts_with ~prefix:"error" run.D.status))
    ("stopped on a runtime " ^ run.D.status)

(* one program under one config: both dispatch modes, or the threaded
   mode alone, each run's accounting checked *)
let both p c =
  let t, r = dispatch p c in
  accounting p c t;
  accounting p c r;
  (t, r)

let one p c =
  let t, _ = D.run ~sink:false p.lang (snd c) p.src in
  accounting p c t;
  t

(* the pool's runs, each pair made and checked on the dispatch and tier
   axes once per pass, by whichever case needs it first; the threaded
   run is kept for the checks that read it *)
let made = Hashtbl.create 128

let pair p c =
  let key = (p.lang, p.src, snd c) in
  match Hashtbl.find_opt made key with
  | Some t -> t
  | None ->
      let t = fst (both p c) in
      Hashtbl.add made key t;
      t

(* ---------- the deterministic pool ---------- *)

let pool =
  [
    (* hot loop, compiled trace, then a guard that starts failing:
       interpreter, tracing, jit and blackhole crossings *)
    {
      name = "py_deopt";
      lang = Py;
      src =
        "def f(n):\n\
        \    s = 0\n\
        \    for i in range(n):\n\
        \        if i < 1500:\n\
        \            s = s + i\n\
        \        else:\n\
        \            s = s + i * 2\n\
        \    return s\n\
         print(f(3000))\n";
    };
    {
      name = "py_calls";
      lang = Py;
      src =
        "def sq(x):\n\
        \    return x * x\n\
         def f(n):\n\
        \    s = 0\n\
        \    for i in range(n):\n\
        \        s = (s + sq(i)) % 9973\n\
        \    return s\n\
         print(f(2500))\n";
    };
    {
      name = "py_nested";
      lang = Py;
      src =
        "def f(n):\n\
        \    s = 0\n\
        \    for i in range(n):\n\
        \        for j in range(10):\n\
        \            s = s + i - j\n\
        \    return s\n\
         print(f(400))\n";
    };
    {
      name = "py_datatypes";
      lang = Py;
      src =
        "xs = []\n\
         for i in range(300):\n\
        \    xs = xs + [i * i]\n\
         d = {}\n\
         d[1] = len(xs)\n\
         print(d[1])\n\
         print(xs[299])\n";
    };
    (* a guard-stable hot loop: compiles at the baseline threshold and
       promotes cleanly under adaptive *)
    {
      name = "py_promote";
      lang = Py;
      src =
        "def f(n):\n\
        \    s = 0\n\
        \    for i in range(n):\n\
        \        s = s + i * 2\n\
        \    return s\n\
         print(f(3000))\n";
    };
    (* three biased branches in one loop: guards keep failing, bridges
       keep attaching, and a promoted loop demotes *)
    {
      name = "py_phases";
      lang = Py;
      src =
        "a = 0\n\
         b = 0\n\
         c = 0\n\
         for i in range(3000):\n\
        \    if i % 2 == 0:\n\
        \        a = a + 1\n\
        \    else:\n\
        \        a = a + 2\n\
        \    if i % 3 == 0:\n\
        \        b = b + 1\n\
        \    else:\n\
        \        b = b + 2\n\
        \    if i % 5 == 0:\n\
        \        c = c + 1\n\
        \    else:\n\
        \        c = c + 2\n\
         print(a + b + c)\n";
    };
    {
      name = "rk_tail";
      lang = Rk;
      src =
        "(define (loop i acc)\n\
        \  (if (< i 6000) (loop (+ i 1) (+ acc i)) acc))\n\
         (display (loop 0 0))\n\
         (newline)\n";
    };
    {
      name = "rk_deopt";
      lang = Rk;
      src =
        "(define (step i acc)\n\
        \  (if (< i 1500) (+ acc i) (+ acc (* i 2))))\n\
         (define (loop i acc)\n\
        \  (if (< i 3000) (loop (+ i 1) (step i acc)) acc))\n\
         (display (loop 0 0))\n\
         (newline)\n";
    };
    {
      name = "rk_lists";
      lang = Rk;
      src =
        "(define (build i acc)\n\
        \  (if (< i 400) (build (+ i 1) (cons i acc)) acc))\n\
         (define (sum xs acc)\n\
        \  (if (null? xs) acc (sum (cdr xs) (+ acc (car xs)))))\n\
         (display (sum (build 0 '()) 0))\n\
         (newline)\n";
    };
  ]

let pooled name = List.find (fun p -> p.name = name) pool
let nojit = ("nojit", C.no_jit)

let policies =
  [
    ("optimizing", C.default);
    ("baseline", C.baseline_tier);
    ("adaptive", C.two_tier);
  ]

let at budget (name, c) = (name, C.with_budget budget c)

(* the pool with the JIT off and under each policy: one digest per
   dispatch mode *)
let test_pool_configs () =
  List.iter
    (fun p ->
      List.iter (fun c -> ignore (pair p (at 30_000_000 c))) (nojit :: policies))
    pool

(* the same pairs: one output across the JIT off and the three policies *)
let test_pool_policies () =
  List.iter
    (fun p ->
      let interp = pair p (at 30_000_000 nojit) in
      List.iter
        (fun c ->
          let c = at 30_000_000 c in
          same_output p c ~expected:interp (pair p c))
        policies)
    pool

(* budgets that stop a run inside the interpreter, a trace, a bridge or
   a promotion must stop both dispatch modes at one instruction *)
let test_budgets configs () =
  List.iter
    (fun budget ->
      List.iter
        (fun p -> List.iter (fun c -> ignore (pair p (at budget c))) configs)
        pool)
    [ 1_000; 10_000; 100_000 ]

(* promote, grow bridges, demote, re-promote at a doubled threshold, and
   pin at tier 1 once max_demotions is spent *)
let lifecycle =
  ( "adaptive lifecycle",
    {
      C.default with
      C.jit_threshold = 7;
      bridge_threshold = 30;
      insn_budget = 100_000_000;
      tier_policy = C.Adaptive;
      tier2_threshold = 8;
      tier_stable_every = 0;
      demote_bridges = 2;
      max_demotions = 2;
    } )

let test_lifecycle () =
  let p = pooled "py_phases" and c = lifecycle in
  let t = pair p c in
  let jl = t.D.jitlog in
  check p c (t.D.output = "14900\n") "output is not 14900";
  check p c (jl.Jitlog.retiers >= 1) "no promotion";
  check p c (jl.Jitlog.demotions >= 1) "no demotion";
  check p c
    (jl.Jitlog.demotions <= (snd c).C.max_demotions + 1)
    "demotions exceed max_demotions + 1"

(* the baseline tier's lower threshold reaches compiled code before the
   optimizing tier does; adaptive starts as baseline *)
let test_first_entry () =
  let p = pooled "py_promote" in
  let first c =
    (pair p (at 30_000_000 c)).D.jitlog.Jitlog.first_entry_insns
  in
  match List.map first policies with
  | [ opt; base; adapt ] ->
      let c = at 30_000_000 (List.hd policies) in
      check p c (opt > 0) "optimizing entered no trace";
      check p c (base < opt)
        (Printf.sprintf "baseline entered at %d, not before %d" base opt);
      check p c (adapt = base)
        (Printf.sprintf "adaptive entered at %d, baseline at %d" adapt base)
  | _ -> assert false

let test_builtin_of_tag_bounds () =
  let module Builtin = Mtj_rjit.Builtin in
  let raises i =
    match Builtin.of_tag i with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative tag raises" true (raises (-1));
  Alcotest.(check bool) "huge tag raises" true (raises 100_000);
  (* every valid builtin round-trips through its tag *)
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Builtin.name b ^ " round-trips")
        true
        (Builtin.of_tag (Builtin.tag b) == b))
    Builtin.all

let test_stale_code_ref_fails_at_translation () =
  (* hand-patch a compiled program so an unreachable MAKE_FUNCTION
     carries a dangling code_ref.  The reference loop never executes the
     instruction and completes; the threaded translator validates every
     code_ref up front and must fail at translation, not mid-run. *)
  let patched ~on =
    (* each VM compiles its own copy: Vm.create resets the code table *)
    let vm = Mtj_pylite.Vm.create ~config:(threaded on C.default) () in
    let code =
      Mtj_pylite.Vm.compile
        "def g():\n\
        \    return 1\n\
         if 1 < 0:\n\
        \    def h():\n\
        \        return 2\n\
         print(g())\n"
    in
    (* retarget the MAKE_FUNCTION for h (on the dead branch) at a code
       id that was never registered *)
    let seen = ref 0 in
    Array.iteri
      (fun i instr ->
        match instr with
        | Mtj_pylite.Bytecode.MAKE_FUNCTION { fname = "h"; arity; _ } ->
            incr seen;
            code.Mtj_pylite.Bytecode.instrs.(i) <-
              Mtj_pylite.Bytecode.MAKE_FUNCTION
                { code_ref = 987_654; fname = "h"; arity }
        | _ -> ())
      code.Mtj_pylite.Bytecode.instrs;
    Alcotest.(check int) "patched the dead MAKE_FUNCTION" 1 !seen;
    (vm, code)
  in
  (* reference loop: the dangling ref is never reached, the run completes *)
  let vm, code = patched ~on:false in
  (match Mtj_pylite.Vm.run_code vm code with
  | Driver.Completed _ -> ()
  | o -> Alcotest.failf "reference run should complete, got %s" (D.status o));
  Alcotest.(check string) "program ran" "1\n" (Mtj_pylite.Vm.output vm);
  (* threaded loop: translating the toplevel code validates every ref *)
  let vm2, stale = patched ~on:true in
  match Mtj_pylite.Vm.run_code vm2 stale with
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        "translation error names the code_ref" true
        (String.length msg > 0);
      Alcotest.(check string)
        "nothing executed before the failure" "" (Mtj_pylite.Vm.output vm2)
  | o ->
      Alcotest.failf "threaded run should fail at translation, got %s"
        (D.status o)

(* ---------- one generator per language ---------- *)

let rand = Random.State.int
let pick r l = List.nth l (rand r (List.length l))
let sprintf = Printf.sprintf

(* pylite.  [work(n)] runs a random body [n] times over four ints, a
   float accumulator, a bignum and a list, and constructs an [Acc],
   whose [__init__] loops over its argument; hot top-level loops update
   three module globals; both call the helper [sq].  The program ends by
   re-initialising an [Acc] through a direct [__init__] call, so one
   loop is entered both from constructor frames, which drop their
   return value, and from a frame that keeps it.  Every loop counts
   to a constant.  [//] and [%] divide by nonzero constants, shifts are
   by constants below 8, and [&], [|], [^] see operands reduced below
   4096, inside the native int range they accept. *)

let divisor r = if rand r 3 = 0 then -(1 + rand r 7) else 1 + rand r 9

let fconst r =
  sprintf "%s%d.5" (if rand r 3 = 0 then "-" else "") (rand r 9)

let rec py_int r vars depth =
  let sub () = py_int r vars (depth - 1) in
  if depth = 0 || rand r 3 = 0 then
    match rand r 4 with
    | 0 -> string_of_int (rand r 100)
    | 1 -> pick r vars
    | 2 -> sprintf "(%s %% %d + %d)" (pick r vars) (2 + rand r 7) (rand r 5)
    | _ -> sprintf "sq(%s %% 50)" (pick r vars)
  else
    match rand r 10 with
    | 0 -> sprintf "(%s // %d)" (sub ()) (divisor r)
    | 1 -> sprintf "(%s %% %d)" (sub ()) (divisor r)
    | 2 -> sprintf "(%s %s %d)" (sub ()) (pick r [ ">>"; "<<" ]) (rand r 8)
    | 3 -> sprintf "(-%s)" (sub ())
    | 4 | 5 ->
        sprintf "((%s %% 4096) %s (%s %% 4096))" (sub ())
          (pick r [ "&"; "|"; "^" ])
          (sub ())
    | _ -> sprintf "(%s %s %s)" (sub ()) (pick r [ "+"; "-"; "*" ]) (sub ())

(* over the float [x], the bounded ints [a], [b], [i] and float
   constants; every assignment to [x] reduces it modulo a constant *)
let rec py_float r depth =
  let sub () = py_float r (depth - 1) in
  if depth = 0 || rand r 3 = 0 then
    match rand r 3 with
    | 0 -> "x"
    | 1 -> pick r [ "a"; "b"; "i" ]
    | _ -> fconst r
  else
    match rand r 6 with
    | 0 -> sprintf "(%s // %s)" (sub ()) (fconst r)
    | 1 -> sprintf "(%s %% %s)" (sub ()) (fconst r)
    | 2 -> sprintf "(-%s)" (sub ())
    | _ -> sprintf "(%s %s %s)" (sub ()) (pick r [ "+"; "-"; "*" ]) (sub ())

let work_vars = [ "a"; "b"; "c"; "d" ]

let rec py_stmt r pad depth =
  match rand r (if depth > 0 then 8 else 5) with
  | 0 -> sprintf "%s%s = %s\n" pad (pick r work_vars) (py_int r work_vars 2)
  | 1 ->
      sprintf "%s%s = %s + %s\n" pad (pick r work_vars) (pick r work_vars)
        (pick r work_vars)
  | 2 -> sprintf "%sacc = (acc + %s) %% 1000003\n" pad (py_int r work_vars 2)
  | 3 -> sprintf "%sx = %s %% 61.5\n" pad (py_float r 2)
  | 4 ->
      (* [m] holds -(2 ** 62): the product is a bignum for every
         multiplier but 0 and 1 *)
      sprintf "%sacc = (acc + (m * %s) %% 1009) %% 1000003\n" pad
        (pick r ("-1" :: "-3" :: work_vars))
  | 5 ->
      sprintf "%sif %s %s %s:\n%s%selse:\n%s" pad (pick r work_vars)
        (pick r [ "<"; "<="; ">"; ">="; "=="; "!=" ])
        (py_int r work_vars 1)
        (py_block r (pad ^ "    ") (depth - 1))
        pad
        (py_block r (pad ^ "    ") (depth - 1))
  | 6 ->
      sprintf "%sfor k in range(%d):\n%s" pad (1 + rand r 5)
        (py_block r (pad ^ "    ") (depth - 1))
  | _ ->
      sprintf "%sl[%d] = (l[%d] + %s) %% 256\n%sacc = acc + l[%d]\n" pad
        (rand r 8) (rand r 8) (pick r work_vars) pad (rand r 8)

and py_block r pad depth =
  String.concat "" (List.init (1 + rand r 3) (fun _ -> py_stmt r pad depth))

(* module level: statements over the globals [u], [v], [w], a third of
   them inside a hot loop; every assignment is reduced, so the globals
   stay small *)
let py_top r ~size =
  let globals = [ "u"; "v"; "w" ] in
  let stmt pad =
    match rand r 3 with
    | 0 ->
        sprintf "%s%s = %s %% 1000003\n" pad (pick r globals)
          (py_int r globals 2)
    | 1 ->
        sprintf
          "%sif %s < %s:\n%s    %s = %s %% 1000003\n%selse:\n%s    %s = %s\n"
          pad (pick r globals) (py_int r globals 1) pad (pick r globals)
          (py_int r globals 2) pad pad (pick r globals) (pick r globals)
    | _ ->
        sprintf "%sfor j in range(%d):\n%s    %s = %s + j\n" pad
          (2 + rand r 10) pad (pick r globals) (pick r globals)
  in
  String.concat ""
    (List.init (2 + rand r 4) (fun _ ->
         if rand r 3 = 0 then
           sprintf "for k in range(%d):\n%s"
             ((size / 2) + rand r (2 * size))
             (String.concat ""
                (List.init (1 + rand r 2) (fun _ -> stmt "    ")))
         else stmt ""))

let py_program ~size r =
  let fsum = py_float r 1 and fdiv = py_float r 1 and by = fconst r in
  let body = py_block r "        " 2 in
  let top = py_top r ~size in
  sprintf
    {|def sq(x):
    return x * x

class Acc:
    def __init__(self, n):
        self.t = 0
        for j in range(n):
            self.t = (self.t + j * j) %% 1009

def work(n):
    acc = 0
    a = 1
    b = 2
    c = 3
    d = 4
    x = 0.5
    m = -(2 ** 62)
    l = [0, 1, 2, 3, 4, 5, 6, 7]
    for i in range(n):
        a = (a + i) %% 97
        b = (b + a) %% 89
        x = (%s + %s // %s) %% 61.5
%s        acc = (acc + a + b + c + d) %% 1000003
        acc = (acc + Acc(b %% 9).t) %% 1000003
    return acc + x

u = 1
v = 2
w = 3
%sprint(work(%d))
print(work(%d))
o = Acc(2)
o.__init__(u %% 50 + 20)
print(u + v + w + o.t)
|}
    fsum fdiv by body top size
    ((size / 4) + 5)

(* rklite.  [work] runs a named-let loop [n] times whose accumulator
   steps through arithmetic, a vector, a cons pair and calls of the
   helper [f]; a toplevel tail-recursive [loop] changes its step at a
   flip point.  Products are reduced mod 97 and every loop counts to a
   constant. *)

let rec rk_int r vars depth =
  if depth = 0 || rand r 3 = 0 then
    match rand r 3 with
    | 0 -> string_of_int (rand r 100)
    | 1 -> pick r vars
    | _ -> sprintf "(modulo %s %d)" (pick r vars) (2 + rand r 9)
  else
    let op = pick r [ "+"; "-"; "*" ] in
    let sub () =
      let e = rk_int r vars (depth - 1) in
      if op = "*" then sprintf "(modulo %s 97)" e else e
    in
    sprintf "(%s %s %s)" op (sub ()) (sub ())

let loop_vars = [ "a"; "b"; "i" ]

let rk_step r =
  match rand r 5 with
  | 0 -> rk_int r loop_vars 2
  | 1 ->
      sprintf "(if (%s %s %s) %s %s)"
        (pick r [ "<"; "<="; ">"; ">="; "=" ])
        (pick r loop_vars) (rk_int r loop_vars 1) (rk_int r loop_vars 2)
        (rk_int r loop_vars 2)
  | 2 ->
      let k = rand r 8 in
      sprintf
        "(begin (vector-set! v %d (modulo (+ (vector-ref v %d) %s) 256)) \
         (vector-ref v %d))"
        k k (rk_int r loop_vars 1) k
  | 3 ->
      sprintf "(car (cons %s %s))" (rk_int r loop_vars 1)
        (rk_int r loop_vars 1)
  | _ -> sprintf "(f %s)" (rk_int r loop_vars 1)

let rk_program ~size r =
  let helper = rk_int r [ "x" ] 2 in
  let acc =
    List.fold_left
      (fun acc s -> sprintf "(modulo (+ %s %s) 1000003)" acc s)
      "acc"
      (List.init (1 + rand r 3) (fun _ -> rk_step r))
  in
  let iters = size + rand r (10 * size) in
  sprintf
    {|(define v (make-vector 8 3))
(define (f x) (modulo %s 1009))
(define (work n)
  (let loop ((i 0) (a 1) (b 2) (acc 0))
    (if (= i n) acc
        (let ((a (modulo (+ a i) 97))
              (b (modulo (+ b a) 89)))
          (loop (+ i 1) a b %s)))))
(define (loop i acc)
  (if (< i %d)
      (loop (+ i 1) (if (< i %d) (+ acc (* i %d)) (remainder (+ acc i) %d)))
      acc))
(display (work %d))
(newline)
(display (work %d))
(newline)
(display (loop 0 0))
(newline)
|}
    helper acc iters (rand r iters) (1 + rand r 5) (1 + rand r 97) size
    ((size / 4) + 5)

(* the equivalence axis runs a program under six configs; a dispatch
   draw runs a smaller one twice with a sink, whose hot loops still
   outlast the default threshold in most draws *)
let full = 120
let small = 80

let generated lang ~size seed =
  let r = Random.State.make [| seed |] in
  let src =
    match lang with Py -> py_program ~size r | Rk -> rk_program ~size r
  in
  { name = sprintf "seed %d" seed; lang; src }

(* ---------- the equivalence axis ---------- *)

(* thresholds 9/3, so a generated program's loops trace and bridge *)
let eager =
  {
    C.default with
    C.jit_threshold = 9;
    bridge_threshold = 3;
    insn_budget = 80_000_000;
  }

let interp = ("interp", { eager with C.jit_enabled = false })

let jits =
  [
    ("jit", eager);
    ( "jit-noopt",
      {
        eager with
        C.opt_fold = false;
        opt_guard_elim = false;
        opt_forward = false;
        opt_virtuals = false;
        opt_peel = false;
      } );
    ("jit-nopeel", { eager with C.opt_peel = false });
    ("jit-novirtuals", { eager with C.opt_virtuals = false });
    ( "jit-2tier",
      { eager with C.tier_policy = C.Adaptive; tier2_threshold = 5 } );
  ]

let equivalence p =
  let expected = one p interp in
  live p interp expected;
  List.iter (fun c -> same_output p c ~expected (one p c)) jits

(* the generators exercise the JIT: a generated program's hot loop
   compiles and its trace runs hot *)
let test_compile lang () =
  let p = generated lang ~size:full 1 and c = List.hd jits in
  let jl = (one p c).D.jitlog in
  check p c (Jitlog.num_traces jl >= 1) "no trace compiled";
  check p c
    (List.exists
       (fun (tr : Ir.trace) -> tr.Ir.exec_count > 100)
       (Jitlog.traces jl))
    "no trace ran 100 times"

let test_live lang () =
  for seed = 1 to 200 do
    let p = generated lang ~size:full seed in
    live p interp (one p interp)
  done

(* ---------- random draws ---------- *)

let prop ~count name f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~long_factor:30 ~name
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1_000_000))
       (fun seed -> verdict (fun () -> f seed)))

(* a small program under one of [configs], at a cut point a third of the
   time and otherwise to its end; with [~squeeze], half the draws get
   tier knobs squeezed so promotion and demotion fire *)
let prop_draws ~count ~salt ~squeeze configs name =
  prop ~count name (fun seed ->
      let r = Random.State.make [| seed; salt |] in
      let lang = if Random.State.bool r then Py else Rk in
      let p = generated lang ~size:small seed in
      let cname, config = pick r configs in
      let cname, config =
        if squeeze && Random.State.bool r then
          let every = rand r 3 in
          ( sprintf "%s, squeezed, stable every %d" cname every,
            {
              config with
              C.jit_threshold = 7;
              tier1_threshold = 5;
              tier2_threshold = 6;
              tier_stable_every = every;
              demote_bridges = 2;
            } )
        else (cname, config)
      in
      let budget =
        if rand r 3 = 0 then 2_000 + rand r 50_000 else 10_000_000
      in
      ignore (both p (at budget (cname, config))))

let prop_equivalence lang name =
  prop ~count:25 name (fun seed ->
      equivalence (generated lang ~size:full seed))

(* ---------- the suites, one per axis ---------- *)

let dispatch_suite =
  [
    case "deterministic programs x configs" test_pool_configs;
    case "budget exhaustion points" (test_budgets [ List.hd policies ]);
    Alcotest.test_case "Builtin.of_tag bounds" `Quick
      test_builtin_of_tag_bounds;
    Alcotest.test_case "stale code_ref fails at translation" `Quick
      test_stale_code_ref_fails_at_translation;
    prop_draws ~count:40 ~salt:0xD15C ~squeeze:false (nojit :: policies)
      "threaded dispatch is byte-identical on random programs";
  ]

let tier_suite =
  [
    case "deterministic programs x policies" test_pool_policies;
    case "budget exhaustion points x policies" (test_budgets policies);
    case "adaptive lifecycle is dispatch-identical" test_lifecycle;
    case "warmup: first compiled entry per policy" test_first_entry;
    prop_draws ~count:30 ~salt:0x71E2 ~squeeze:true policies
      "tier policies are dispatch-identical on random programs";
  ]

(* the seeded cases run seeds [base + 7919 i] *)
let equivalence_suite lang ~seeded:(n, base, label) ~random =
  List.init n (fun i ->
      case (sprintf "%s %d" label i) (fun () ->
          equivalence (generated lang ~size:full (base + (i * 7919)))))
  @ [
      case "generated programs compile" (test_compile lang);
      case "generated programs stay live" (test_live lang);
      prop_equivalence lang random;
    ]

let py_suite =
  equivalence_suite Py
    ~seeded:(12, 1000, "generated program")
    ~random:"random programs: interp = jit = ablated jits"

let rk_suite =
  equivalence_suite Rk
    ~seeded:(10, 2000, "generated scheme program")
    ~random:"random scheme programs: interp = all jits"
