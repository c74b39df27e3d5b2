(** CI wall-clock gate for the simulation hot paths.

    Compares two ["mtj-bench-timings/1"] documents (a committed baseline
    and the current build's run) and fails when any gated ratio
    regressed by more than the allowed fraction.

    Absolute wall-clock is meaningless across machines, so all four gates
    compare machine-independent RATIOS between config groups:

    - {b trace-executor gate}: JIT-config wall time (pypy / pypy-2tier /
      pycket — the configs that spend their time in the trace executor)
      over interpreter/native-config wall time (cpython / pypy-nojit /
      racket / c).  A trace-executor regression raises this ratio.
    - {b interpreter gate}: host nanoseconds per simulated instruction of
      the interpreter-dominated configs (cpython / pypy-nojit / racket)
      over ns-per-insn of the JIT configs.  A regression in the engine's
      charging fast path or the dispatch loops raises this ratio — and
      it cannot hide in the first gate, which such a regression would
      (misleadingly) LOWER.  Simulated insn counts are deterministic, so
      the rate quotient still cancels machine speed.
    - {b allocation gate}: host minor-heap words allocated per simulated
      instruction over the interpreter-dominated configs.  Both numbers
      are machine-independent (the allocation counter is monotonic and
      the simulation is deterministic), so this quotient needs no
      normalization; it catches regressions in the allocation-free value
      fast paths (the immediate-tagged value representation, the
      allocation-free charge path) that the wall-clock gates could
      absorb in noise.  A build with [-opaque] (dune's dev
      profile) fails it and the JIT allocation gate: the charge path's
      [~cycles] float boxes on every call.
    - {b JIT allocation gate}: the same quotient over the JIT configs
      (pypy / pypy-2tier / pycket), whose host allocation is the JIT's
      own: resume snapshots built while recording, optimizer rewrites
      and bridge entry.  None of it is instrumentation: each phase's,
      AOT function's and trace's annotation value is built once, and
      the listeners that read them keep array state.  It catches a lost
      sharing of resume snapshot frames (DESIGN.md §3n).

    A separate, self-contained mode gates the serving harness:

    - {b serving latency gate} ([--serve-gate FILE [UNSEEDED]]): FILE
      is an ["mtj-metrics/12"] document with a [serve] block from a
      session with the shared cache on.  The gate asserts the cache
      actually paid: warm (imported) requests must have a median
      latency no worse than cold (compiling) ones — machine-
      independent, since both medians come from the same host and
      workload.  With a second UNSEEDED file (the same session run with
      [--profile-seed off]), the gate additionally asserts profile
      seeding is not a warm-path pessimization: seeded warm p50 must
      not exceed unseeded warm p50 by more than 10% (the slack absorbs
      host noise between the two runs).

    Usage:
      bench_gate.exe BASELINE.json CURRENT.json [MAX_REGRESS]
      bench_gate.exe --update-baseline BASELINE.json CURRENT.json
      bench_gate.exe --serve-gate METRICS.json [UNSEEDED.json]

    [MAX_REGRESS] defaults to 0.15 (fail above +15%) and applies to all
    four gates; anything but a finite fraction >= 0 prints the usage and
    exits 2.  [--update-baseline] validates CURRENT and copies it over
    BASELINE instead of gating.

    Baseline refresh workflow (after an intentional perf change):
    {v
      dune exec bench/main.exe -- all --timings /tmp/BENCH_new.json
      dune exec test/bench_gate.exe -- bench/BENCH_after.json /tmp/BENCH_new.json
      # inspect the printed ratios; if the change is intended:
      dune exec test/bench_gate.exe -- --update-baseline \
          bench/BENCH_after.json /tmp/BENCH_new.json
      git add bench/BENCH_after.json   # commit with the change itself
    v} *)

open Mtj_obs

let jit_configs = [ "pypy"; "pypy-2tier"; "pycket" ]
let ref_configs = [ "cpython"; "pypy-nojit"; "racket"; "c" ]
let interp_configs = [ "cpython"; "pypy-nojit"; "racket" ]

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let load file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j =
    match Json.parse s with
    | Ok j -> j
    | Error e -> die "%s: parse error: %s" file e
  in
  (match Validate.timings j with
  | Ok _ -> ()
  | Error e -> die "%s: invalid timings document: %s" file e);
  j

type groups = {
  jit_wall : float;
  ref_wall : float;
  interp_wall : float;
  interp_insns : float;
  jit_insns : float;
  interp_minor_words : float;
  jit_minor_words : float;
}

let split file j =
  let jit_wall = ref 0.0 and ref_wall = ref 0.0 in
  let interp_wall = ref 0.0 and interp_insns = ref 0.0 in
  let jit_insns = ref 0.0 in
  let interp_minor_words = ref 0.0 and jit_minor_words = ref 0.0 in
  let runs =
    match Option.bind (Json.member "runs" j) Json.get_arr with
    | Some r -> r
    | None -> die "%s: no runs" file
  in
  List.iter
    (fun r ->
      let str k = Option.bind (Json.member k r) Json.get_str in
      let num k = Option.bind (Json.member k r) Json.get_num in
      match (str "config", num "wall_s", num "insns", num "minor_words") with
      | Some c, Some w, Some insns, Some mw ->
          if List.mem c jit_configs then begin
            jit_wall := !jit_wall +. w;
            jit_insns := !jit_insns +. insns;
            jit_minor_words := !jit_minor_words +. mw
          end
          else if List.mem c ref_configs then ref_wall := !ref_wall +. w;
          if List.mem c interp_configs then begin
            interp_wall := !interp_wall +. w;
            interp_insns := !interp_insns +. insns;
            interp_minor_words := !interp_minor_words +. mw
          end
      | _ -> die "%s: malformed run row" file)
    runs;
  if !jit_wall <= 0.0 then die "%s: no JIT-config runs" file;
  if !ref_wall <= 0.0 then die "%s: no reference-config runs" file;
  if !interp_insns <= 0.0 then die "%s: no interpreter-config insns" file;
  if !jit_insns <= 0.0 then die "%s: no JIT-config insns" file;
  if !interp_minor_words <= 0.0 then
    die "%s: no interpreter-config minor_words" file;
  if !jit_minor_words <= 0.0 then die "%s: no JIT-config minor_words" file;
  {
    jit_wall = !jit_wall;
    ref_wall = !ref_wall;
    interp_wall = !interp_wall;
    interp_insns = !interp_insns;
    jit_insns = !jit_insns;
    interp_minor_words = !interp_minor_words;
    jit_minor_words = !jit_minor_words;
  }

(* ns per simulated instruction of the interpreter rows, normalized by
   the same rate over the JIT rows *)
let interp_ratio g =
  (g.interp_wall /. g.interp_insns) /. (g.jit_wall /. g.jit_insns)

(* host minor-heap words allocated per simulated instruction over the
   interpreter rows; machine-independent, so gated without
   normalization *)
let alloc_ratio g = g.interp_minor_words /. g.interp_insns

(* the same over the JIT rows *)
let jit_alloc_ratio g = g.jit_minor_words /. g.jit_insns

let update_baseline ~baseline_file ~current_file =
  ignore (load current_file);
  let ic = open_in_bin current_file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin baseline_file in
  output_string oc s;
  close_out oc;
  Printf.printf "baseline %s updated from %s\n" baseline_file current_file

(* serving latency gate: on a shared-cache-on session, warm p50 must not
   exceed cold p50 — if importing a compiled bundle is not cheaper than
   compiling, the shared cache has regressed into pure overhead.  With a
   second (seed-off) session, seeded warm p50 must additionally not
   exceed unseeded warm p50 by more than the noise slack — profile
   seeding does host-side pre-translation on the warm path and must
   never turn that into a latency loss. *)
let load_serve_block file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j =
    match Json.parse s with
    | Ok j -> j
    | Error e -> die "%s: parse error: %s" file e
  in
  (match Validate.metrics j with
  | Ok _ -> ()
  | Error e -> die "%s: invalid metrics document: %s" file e);
  let serve =
    match Json.member "serve" j with
    | Some s -> s
    | None -> die "%s: no serve block" file
  in
  (match Json.member "shared_cache" serve with
  | Some (Json.Bool true) -> ()
  | _ -> die "%s: serve gate needs a shared-cache-on session" file);
  serve

let serve_p50 file serve name =
  let block =
    match Json.member name serve with
    | Some b -> b
    | None -> die "%s: serve block missing %s" file name
  in
  let p50 =
    match Option.bind (Json.member "p50_ms" block) Json.get_num with
    | Some v -> v
    | None -> die "%s: serve.%s.p50_ms missing" file name
  in
  let count =
    match Option.bind (Json.member "count" block) Json.get_int with
    | Some v -> v
    | None -> die "%s: serve.%s.count missing" file name
  in
  (p50, count)

(* warm-path slack for the seeded-vs-unseeded comparison: the two
   medians come from different host runs of the same workload *)
let seed_slack = 1.10

let serve_gate ?unseeded file =
  let serve = load_serve_block file in
  let cold_p50, cold_n = serve_p50 file serve "cold" in
  let warm_p50, warm_n = serve_p50 file serve "warm" in
  Printf.printf "serve gate: cold p50=%.3fms (%d requests)  warm p50=%.3fms (%d requests)\n"
    cold_p50 cold_n warm_p50 warm_n;
  if warm_n = 0 then die "%s: no warm requests — shared cache never hit" file;
  if cold_n = 0 then die "%s: no cold requests" file;
  if warm_p50 > cold_p50 then begin
    Printf.eprintf "FAIL: warm p50 %.3fms > cold p50 %.3fms\n" warm_p50
      cold_p50;
    exit 1
  end;
  (match unseeded with
  | None -> ()
  | Some ufile ->
      let userve = load_serve_block ufile in
      (match Json.member "profile_seed" serve with
      | Some (Json.Bool true) -> ()
      | _ -> die "%s: seeded-vs-unseeded gate needs profile_seed on" file);
      (match Json.member "profile_seed" userve with
      | Some (Json.Bool false) -> ()
      | _ -> die "%s: second file must be a profile-seed-off session" ufile);
      let u_warm_p50, u_warm_n = serve_p50 ufile userve "warm" in
      Printf.printf
        "serve gate: seeded warm p50=%.3fms vs unseeded warm p50=%.3fms \
         (%d requests, slack %.0f%%)\n"
        warm_p50 u_warm_p50 u_warm_n (100.0 *. (seed_slack -. 1.0));
      if u_warm_n = 0 then die "%s: no warm requests" ufile;
      if warm_p50 > u_warm_p50 *. seed_slack then begin
        Printf.eprintf
          "FAIL: seeded warm p50 %.3fms > unseeded warm p50 %.3fms x %.2f\n"
          warm_p50 u_warm_p50 seed_slack;
        exit 1
      end);
  print_endline "OK"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (match args with
  | [ "--serve-gate"; file ] ->
      serve_gate file;
      exit 0
  | [ "--serve-gate"; file; unseeded ] ->
      serve_gate ~unseeded file;
      exit 0
  | _ -> ());
  let update, args =
    match args with
    | "--update-baseline" :: rest -> (true, rest)
    | _ -> (false, args)
  in
  let usage () =
    die
      "usage: %s [--update-baseline] BASELINE.json CURRENT.json \
       [MAX_REGRESS]"
      Sys.argv.(0)
  in
  let baseline_file, current_file, max_regress =
    match args with
    | [ b; c ] -> (b, c, 0.15)
    | [ b; c; m ] when not update -> (
        (* nan would turn every gate off and a negative limit fail them
           all *)
        match float_of_string_opt m with
        | Some l when Float.is_finite l && l >= 0.0 -> (b, c, l)
        | _ ->
            Printf.eprintf
              "error: bad MAX_REGRESS %S (want a finite fraction >= 0)\n" m;
            usage ())
    | _ -> usage ()
  in
  if update then update_baseline ~baseline_file ~current_file
  else begin
    let b = split baseline_file (load baseline_file) in
    let c = split current_file (load current_file) in
    let failed = ref false in
    let gate name bval cval =
      let change = (cval -. bval) /. bval in
      Printf.printf "%s: baseline=%.4f current=%.4f change=%+.1f%% (limit +%.0f%%)\n"
        name bval cval (100.0 *. change) (100.0 *. max_regress);
      if change > max_regress then begin
        Printf.eprintf "FAIL: %s regressed past the limit\n" name;
        failed := true
      end
    in
    Printf.printf
      "baseline: jit=%.3fs ref=%.3fs interp=%.3fs\n\
       current:  jit=%.3fs ref=%.3fs interp=%.3fs\n"
      b.jit_wall b.ref_wall b.interp_wall c.jit_wall c.ref_wall c.interp_wall;
    gate "trace-executor wall ratio" (b.jit_wall /. b.ref_wall)
      (c.jit_wall /. c.ref_wall);
    gate "interpreter ns/insn ratio" (interp_ratio b) (interp_ratio c);
    gate "interpreter minor-words/insn" (alloc_ratio b) (alloc_ratio c);
    gate "JIT minor-words/insn" (jit_alloc_ratio b) (jit_alloc_ratio c);
    if !failed then exit 1;
    print_endline "OK"
  end
