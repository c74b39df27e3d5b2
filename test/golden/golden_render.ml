(* Golden-file generator for lib/harness/render.ml, the frontends and
   the optimizer.

   Renders small experiments over live (deterministic) simulated runs
   and digests every registry program's compiled bundle and a few runs'
   compiled traces; dune diffs the output byte-for-byte against the
   committed .expected files, so any drift in table layout,
   bar/sparkline rendering, number formatting, the frontends' bytecode,
   the optimizer's output or the simulation itself fails
   `dune runtest`.  After an intentional change, refresh with
   `dune promote`. *)

module R = Mtj_harness.Runner
module Rd = Mtj_harness.Render

let budget = 2_000_000
let benches = [ "nbody"; "richards" ]
let configs = [ R.Cpython; R.Pypy_nojit; R.Pypy_jit ]

let pairs =
  List.concat_map (fun b -> List.map (fun c -> (b, c)) configs) benches

(* experiment 1: the Table-I-style per-VM summary *)
let table () =
  R.prefetch ~jobs:2 ~budget pairs;
  Rd.heading "golden: per-VM cycle summary (2 M insn budget)";
  Rd.table
    ~header:[ "bench"; "vm"; "Mcycles"; "IPC"; "MPKI" ]
    ~rows:
      (List.map
         (fun (b, c) ->
           let r = R.run ~budget b c in
           [
             b;
             R.config_name c;
             Rd.f2 (R.mcycles r);
             Rd.f2 (R.ipc r);
             Rd.f1 (R.mpki r);
           ])
         pairs)

(* experiment 2: the Figure-2/5-style phase bars and warmup sparkline *)
let figures () =
  R.prefetch ~jobs:2 ~budget
    (List.map (fun b -> (b, R.Pypy_jit)) benches);
  Rd.heading "golden: phase mix and warmup (pypy)";
  List.iter
    (fun b ->
      let r = R.run ~budget b R.Pypy_jit in
      let parts =
        List.map (fun p -> (p, R.phase_fraction r p)) Mtj_core.Phase.all
      in
      Rd.pr "%-10s |%s|\n" b (Rd.stacked_bar ~width:40 parts))
    benches;
  Rd.pr "%s\n" Rd.phase_legend;
  Rd.subheading "dispatch-tick rate over time (nbody)";
  let r = R.run ~budget "nbody" R.Pypy_jit in
  let values = Array.map (fun (_, v) -> float_of_int v) r.R.samples in
  Rd.pr "|%s|\n" (Rd.sparkline values);
  Rd.pr "ticks total: %d   simple_bar(jit frac): |%s|\n" r.R.ticks
    (Rd.simple_bar ~width:30 (R.phase_fraction r Mtj_core.Phase.Jit))

(* experiment 3: the tier-policy extension — warmup latch, per-tier
   residency, and tier compile counts across the three policies *)
let tier_configs = Mtj_harness.Experiments.tierpolicy_configs

let tiers () =
  R.prefetch ~jobs:2 ~budget
    (List.concat_map
       (fun b -> List.map (fun (_, c) -> (b, c)) tier_configs)
       benches);
  Rd.heading "golden: tier policies (2 M insn budget)";
  Rd.table
    ~header:
      ("bench"
      :: List.concat_map
           (fun (n, _) -> [ n ^ " 1st (Ki)"; n ^ " t1/t2" ])
           tier_configs)
    ~rows:
      (List.map
         (fun b ->
           b
           :: List.concat_map
                (fun (_, c) ->
                  let r = R.run ~budget b c in
                  match r.R.jit with
                  | None -> [ "-"; "-" ]
                  | Some j ->
                      [
                        (if j.R.first_entry_insns < 0 then "never"
                         else
                           Rd.f1
                             (float_of_int j.R.first_entry_insns /. 1.0e3));
                        Printf.sprintf "%d/%d" j.R.tier1_compiles
                          j.R.tier2_compiles;
                      ])
                tier_configs)
         benches);
  Rd.subheading "adaptive tier residency";
  Rd.table
    ~header:
      [ "bench"; "t1 entries"; "t2 entries"; "t1 dyn-IR"; "t2 dyn-IR";
        "promoted"; "demoted" ]
    ~rows:
      (List.map
         (fun b ->
           let r = R.run ~budget b R.Pypy_tiered in
           match r.R.jit with
           | None -> [ b; "-"; "-"; "-"; "-"; "-"; "-" ]
           | Some j ->
               [
                 b;
                 string_of_int j.R.tier1_entries;
                 string_of_int j.R.tier2_entries;
                 string_of_int j.R.tier1_dynamic_ir;
                 string_of_int j.R.tier2_dynamic_ir;
                 string_of_int j.R.retiers;
                 string_of_int j.R.demotions;
               ])
         benches)

(* experiment 4: the mtj-metrics/12 document itself — built from a tiered
   run, validated (schema + tier invariants), round-tripped through the
   parser, and printed; any drift in the export format fails the diff *)
let metrics () =
  let module J = Mtj_obs.Json in
  let r = R.run ~budget "richards" R.Pypy_tiered in
  let doc =
    Mtj_obs.Metrics.document ~runs:[ Mtj_harness.Report.metrics_json r ] ()
  in
  (match Mtj_obs.Validate.metrics doc with
  | Ok n -> Rd.pr "validate: OK, %d run record(s)\n" n
  | Error e -> Rd.pr "validate: INVALID: %s\n" e);
  let printed = J.to_string ~indent:2 doc in
  (match J.parse printed with
  | Ok reparsed when J.to_string ~indent:2 reparsed = printed ->
      Rd.pr "round-trip: stable\n"
  | Ok _ -> Rd.pr "round-trip: UNSTABLE\n"
  | Error e -> Rd.pr "round-trip: PARSE ERROR: %s\n" e);
  print_string printed;
  print_newline ()

(* experiment 5: the frontends' output — one line per registry program
   with the MD5 of its marshalled compile bundle, taken on a fresh VM
   (whose create resets the code table) as a cold request compiles it;
   any change to the bytecode a frontend emits fails the diff *)
let frontend () =
  let module B = Mtj_benchmarks.Registry in
  let md5 bundle =
    Digest.to_hex
      (Digest.string (Marshal.to_string bundle [ Marshal.No_sharing ]))
  in
  List.iter
    (fun (b : B.bench) ->
      let lang, digest =
        match b.B.lang with
        | B.Py ->
            ignore (Mtj_pylite.Vm.create ());
            ("py", md5 (Mtj_pylite.Vm.compile_bundle b.B.source))
        | B.Rk ->
            ignore (Mtj_rklite.Kvm.create ());
            ("rk", md5 (Mtj_rklite.Kvm.compile_bundle b.B.source))
      in
      Rd.pr "%s %-20s %s\n" lang b.B.name digest)
    B.all

(* experiment 6: the optimizer's output — one line per (program, JIT
   config) with the trace count, the op count and the MD5 of a dump of
   every compiled trace: each op by [Ir.pp_op], each guard's id, and
   each guard's and merge point's resume by [Ir.pp_resume] (the frames'
   sources and the virtual descriptors); any change to what the
   optimizer emits fails the diff.  rklite binarytrees runs at 5 M
   instructions: at 2 M it does not reach the traces that read a value
   back out of a removed allocation. *)
let dump_trace b (tr : Mtj_rjit.Ir.trace) =
  let module Ir = Mtj_rjit.Ir in
  let resume r = Buffer.add_string b (Format.asprintf "%a" Ir.pp_resume r) in
  Printf.bprintf b "trace %d %s tier=%d entry=%d base=%d start=%d\n"
    tr.Ir.trace_id
    (match tr.Ir.kind with
    | Ir.Loop { loop_code; loop_pc } ->
        Printf.sprintf "loop %d@%d" loop_code loop_pc
    | Ir.Bridge { from_guard; loop_code; loop_pc } ->
        Printf.sprintf "bridge #%d %d@%d" from_guard loop_code loop_pc)
    tr.Ir.tier tr.Ir.entry_slots tr.Ir.loop_base tr.Ir.loop_start;
  Array.iter
    (fun (op : Ir.op) ->
      Buffer.add_string b (Format.asprintf "%a" Ir.pp_op op);
      (match op.Ir.opcode with
      | Ir.Guard g ->
          Printf.bprintf b " #%d" g.Ir.guard_id;
          resume g.Ir.resume
      | Ir.Debug_merge_point d ->
          Printf.bprintf b " @%d:%d" d.dmp_code d.dmp_pc;
          resume d.dmp_resume
      | _ -> ());
      Buffer.add_char b '\n')
    tr.Ir.ops

let traces () =
  let module B = Mtj_benchmarks.Registry in
  let row lang name budget vc =
    let (module V : Mtj_harness.Hosted.VM) = Mtj_harness.Hosted.vm lang in
    let b = B.find_exn ~lang name in
    let vm =
      V.create ~config:(R.config_of ~budget vc) ~profile:(R.profile_of vc) ()
    in
    ignore (V.run_source vm b.B.source);
    let trs = Mtj_rjit.Jitlog.traces (V.jitlog vm) in
    let buf = Buffer.create 65536 in
    List.iter (dump_trace buf) trs;
    Rd.pr "%s %-11s %-10s %3d traces %6d ops %s\n"
      (Mtj_harness.Hosted.name lang)
      name (R.config_name vc) (List.length trs)
      (List.fold_left
         (fun n (tr : Mtj_rjit.Ir.trace) -> n + Array.length tr.Mtj_rjit.Ir.ops)
         0 trs)
      (Digest.to_hex (Digest.string (Buffer.contents buf)))
  in
  List.iter
    (fun name ->
      List.iter (fun (_, vc) -> row B.Py name budget vc) tier_configs)
    [ "richards"; "nbody" ];
  row B.Rk "binarytrees" 5_000_000 R.Pycket_jit

let () =
  match Sys.argv with
  | [| _; "table" |] -> table ()
  | [| _; "figures" |] -> figures ()
  | [| _; "tiers" |] -> tiers ()
  | [| _; "metrics" |] -> metrics ()
  | [| _; "frontend" |] -> frontend ()
  | [| _; "traces" |] -> traces ()
  | _ ->
      prerr_endline
        "usage: golden_render.exe \
         (table|figures|tiers|metrics|frontend|traces)";
      exit 2
