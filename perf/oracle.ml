(* The output oracle under [perf/expected/] (see [regen.sh]):

   - [out/py/<program>.out]: python3's output for the pylite program
     (two programs, whose output python3 cannot reproduce, are pinned
     from this code instead); the c rows reuse the pylite program of the
     same name.  [out/rk/<program>.out]: pinned rklite outputs.
   - [paper.tsv]: per paper run (program, config), the simulated
     instruction count and a digest of the simulated state.
   - [serve.tsv]: per serve program and seeded flag, the same pair.

   A run or request fails the oracle when its status is [failed:*] or
   its output or digest differs from these files. *)

module R = Mtj_harness.Runner
module B = Mtj_benchmarks.Registry

type t = {
  outputs : (string, string) Hashtbl.t;  (* "py/<program>" -> output *)
  paper : (string * string, int * string) Hashtbl.t;
  serve : (string * string * bool, int * string) Hashtbl.t;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let tsv_rows path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (String.split_on_char '\t')

let bad path line = failwith (Printf.sprintf "%s: malformed row %S" path (String.concat "\t" line))

let load dir =
  let outputs = Hashtbl.create 64 in
  List.iter
    (fun lang ->
      let d = Filename.concat (Filename.concat dir "out") lang in
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".out" then
            Hashtbl.replace outputs
              (lang ^ "/" ^ Filename.chop_suffix f ".out")
              (read_file (Filename.concat d f)))
        (Sys.readdir d))
    [ "py"; "rk" ];
  let paper = Hashtbl.create 128 in
  let p = Filename.concat dir "paper.tsv" in
  List.iter
    (function
      | [ bench; config; insns; digest ] ->
          Hashtbl.replace paper (bench, config) (int_of_string insns, digest)
      | l -> bad p l)
    (tsv_rows p);
  let serve = Hashtbl.create 32 in
  let s = Filename.concat dir "serve.tsv" in
  List.iter
    (function
      | [ lang; bench; seeded; insns; digest ] ->
          Hashtbl.replace serve
            (lang, bench, bool_of_string seeded)
            (int_of_string insns, digest)
      | l -> bad s l)
    (tsv_rows s);
  { outputs; paper; serve }

(* which program's output a paper run must print *)
let output_key (vc : R.vm_config) bench =
  match vc with
  | R.Racket | R.Pycket_nojit | R.Pycket_jit -> "rk/" ^ bench
  | _ -> "py/" ^ bench

let run_digest (r : R.result) =
  let t = r.R.total and g = r.R.gc in
  let jit =
    match r.R.jit with
    | None -> "-"
    | Some j ->
        Printf.sprintf "%d.%d.%d.%d.%d.%d.%d" j.R.traces j.R.bridges j.R.deopts
          j.R.aborts j.R.translations j.R.tier1_compiles j.R.tier2_compiles
  in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%d|%.6f|%d.%d.%d.%d.%d|%d.%d.%d.%d|%s|%s"
          (Mtj_harness.Report.status_name r.R.status) r.R.insns r.R.cycles t.Mtj_machine.Counters.branches
          t.Mtj_machine.Counters.branch_misses t.Mtj_machine.Counters.loads
          t.Mtj_machine.Counters.stores t.Mtj_machine.Counters.cache_misses
          g.Mtj_rt.Gc_sim.minor_collections g.Mtj_rt.Gc_sim.major_collections
          g.Mtj_rt.Gc_sim.allocated_objects g.Mtj_rt.Gc_sim.allocated_words jit
          r.R.output))

(* [Some insns] when the run passes the oracle *)
let check_run o (r : R.result) =
  let config = R.config_name r.R.config in
  match
    ( r.R.status,
      Hashtbl.find_opt o.outputs (output_key r.R.config r.R.bench_name),
      Hashtbl.find_opt o.paper (r.R.bench_name, config) )
  with
  | R.Ok_run, Some out, Some (insns, d)
    when out = r.R.output && insns = r.R.insns && d = run_digest r ->
      Some insns
  | _ -> None

(* [Some insns] when the serve request passes the oracle *)
let check_request o (r : Mtj_harness.Serve.record) =
  if Lang.is_failed r.Mtj_harness.Serve.r_status then None
  else
    match
      Hashtbl.find_opt o.serve
        (r.Mtj_harness.Serve.r_lang, r.Mtj_harness.Serve.r_bench,
         r.Mtj_harness.Serve.r_seeded)
    with
    | Some (insns, d) when d = r.Mtj_harness.Serve.r_digest -> Some insns
    | _ -> None

(* --- pinning (regen.sh) --- *)

let tsv path header rows =
  write_file path
    (String.concat "\n" (header :: List.map (String.concat "\t") rows) ^ "\n")

let pin_paper ~dir (results : R.result list) =
  tsv (Filename.concat dir "paper.tsv") "# bench\tconfig\tinsns\tdigest"
    (List.sort compare
       (List.map
          (fun (r : R.result) ->
            [ r.R.bench_name; R.config_name r.R.config; string_of_int r.R.insns;
              run_digest r ])
          results))

let pin_serve ~dir rows =
  tsv (Filename.concat dir "serve.tsv") "# lang\tbench\tseeded\tinsns\tdigest"
    (List.sort compare rows)
