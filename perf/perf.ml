(* Host-performance benchmark of the simulator, end to end and layer by
   layer (see README.md in this directory).

     perf.exe bench --workload W --seed N --seconds N --trace 0|1 [--trace-dir DIR]
     perf.exe run [--seed N] [--out FILE] [--trace-dir DIR]
     perf.exe compare BASE.json CHANGE.json
     perf.exe once W --seed N [--small] [--setup-only]   (one timed child)
     perf.exe smoke                                      (the dune test)
     perf.exe programs | source LANG NAME | pin          (regen.sh)

   --expected DIR (default perf/expected) and --bounds FILE (default
   BENCHMARK.json) locate the oracle and the bounds. *)

module J = Mtj_obs.Json
module R = Mtj_harness.Runner
module B = Mtj_benchmarks.Registry

let usage () =
  prerr_endline
    "usage: perf.exe bench --workload W --seed N --seconds N --trace 0|1 [--trace-dir DIR]\n\
    \       perf.exe run [--seed N] [--out FILE] [--trace-dir DIR]\n\
    \       perf.exe compare BASE.json CHANGE.json\n\
    \       perf.exe once W --seed N [--small] [--setup-only]\n\
    \       perf.exe smoke | programs | source LANG NAME | pin\n\
     options: --expected DIR  --bounds FILE";
  Printf.eprintf "workloads: %s\n" (Workload.names ());
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

(* --- arguments --- *)

let paths = [ "--expected"; "--bounds" ]

(* the switches and the valued options each subcommand accepts *)
let options = function
  | "bench" -> Some ([], [ "--workload"; "--seed"; "--seconds"; "--trace"; "--trace-dir" ] @ paths)
  | "run" -> Some ([], [ "--seed"; "--out"; "--trace-dir"; "--expected" ])
  | "once" -> Some ([ "--small"; "--setup-only" ], [ "--seed"; "--expected" ])
  | "smoke" -> Some ([], paths)
  | "compare" -> Some ([], [ "--bounds" ])
  | "pin" -> Some ([], [ "--expected" ])
  | "programs" | "source" -> Some ([], [])
  | _ -> None

let parse cmd args =
  let switches, valued = match options cmd with Some o -> o | None -> usage () in
  let rec go flags pos = function
    | [] -> (flags, List.rev pos)
    | f :: rest when List.mem f switches -> go ((f, "") :: flags) pos rest
    | f :: v :: rest when List.mem f valued -> go ((f, v) :: flags) pos rest
    | f :: _ when String.length f > 1 && f.[0] = '-' -> die "bad option %S for %s" f cmd
    | p :: rest -> go flags (p :: pos) rest
  in
  go [] [] args

let flag flags f = List.assoc_opt f flags
let has flags f = List.mem_assoc f flags

let int_flag flags f ~default ~min =
  match flag flags f with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= min -> n
      | _ -> die "bad %s value %S" f v)

let seed flags = int_flag flags "--seed" ~default:42 ~min:0

let workload_of name =
  match Workload.find name with
  | Some w -> w
  | None -> die "unknown workload %S (known: %s)" name (Workload.names ())

let expected flags = Option.value ~default:"perf/expected" (flag flags "--expected")
let bounds_file flags = Option.value ~default:"BENCHMARK.json" (flag flags "--bounds")

(* the metric names BENCHMARK.json lists under [key] *)
let listed file key =
  match Compare.field [ key ] (Compare.load file) with
  | Some (J.Arr ms) -> List.filter_map (fun m -> Option.bind (J.member "name" m) J.get_str) ms
  | _ -> die "%s: no %s list" file key

(* the traced run of one workload, printed and, with [trace_dir],
   written as a Chrome trace.  It also reports the peak RSS and the p99
   latency of one timed child.  Both move with the seed too much to gate
   (peak RSS 10% over ten seeds on paper-jit, where the order of the runs
   shapes the heap; p99 up to 12% there, where it is the one slowest
   run, and 7% on serve-churn, where the seed picks which programs go
   cold), so they are listed with the per-layer metrics.  The per-layer
   times are not scaled; [host_slowdown] tells how fast the host ran. *)
let traced ~small ~seed ~expected ~oracle ~trace_dir (w : Workload.t) =
  let l, slices = Hostspeed.sample (fun () -> Layers.run ~small ~seed ~oracle w) in
  let _, fields = Reps.child (Reps.child_args ~small ~seed ~expected ~setup_only:false w) in
  let l =
    {
      l with
      Layers.metrics =
        l.Layers.metrics
        @ [
            ("peak_rss_mb", List.assoc "peak_rss_mb" fields, "MB");
            ("p99_ms", List.assoc "p99_ms" fields, "ms");
            ("host_slowdown", Hostspeed.slowdown slices, "ratio");
          ];
    }
  in
  if not small then Reps.print_layers w.Workload.name l;
  Option.iter
    (fun dir ->
      let rec mkdir d =
        if not (Sys.file_exists d) then begin
          mkdir (Filename.dirname d);
          Sys.mkdir d 0o755
        end
      in
      mkdir dir;
      J.write_file
        ~file:(Filename.concat dir ("trace-" ^ w.Workload.name ^ ".json"))
        (Spans.chrome_json ~label:w.Workload.name l.Layers.spans))
    trace_dir;
  l

(* --- bench: the BENCHMARK.json entry point --- *)

let result_line ~correct ~attempted ~failed metrics =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ]))
                metrics) );
       ])

let pick names available =
  List.map
    (fun n ->
      match List.find_opt (fun (m, _, _) -> m = n) available with
      | Some m -> m
      | None -> die "BENCHMARK.json names %S, which this benchmark does not measure" n)
    names

let bench flags =
  let w =
    workload_of (match flag flags "--workload" with Some n -> n | None -> die "--workload is required")
  in
  let seed = seed flags in
  let seconds = int_flag flags "--seconds" ~default:10 ~min:1 in
  let trace =
    match flag flags "--trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some v -> die "bad --trace value %S (want 0 or 1)" v
  in
  let expected = expected flags and bounds = bounds_file flags in
  (* fail before measuring when the oracle is missing *)
  let oracle = Oracle.load expected in
  if not trace then begin
    let names = listed bounds "end_to_end" in
    let samples = Reps.create_samples () in
    (* at least two reps; another only if it should end in time,
       judging by the last one.  On a loaded host a paper or serve-churn
       rep takes over 12 s, and three would overrun the run. *)
    let deadline = Unix.gettimeofday () +. float_of_int seconds in
    let reps = ref 0 and last = ref 0.0 in
    while !reps < 2 || Unix.gettimeofday () +. !last < deadline do
      let t = Unix.gettimeofday () in
      Reps.rep ~small:false ~seed ~expected samples w;
      last := Unix.gettimeofday () -. t;
      incr reps
    done;
    Reps.print_table w.Workload.name samples;
    let medians =
      List.map (fun (n, u) -> (n, Stats.median (Reps.values samples n), u)) Reps.metrics
    in
    let failed = Reps.failed samples in
    print_endline
      (result_line ~correct:(failed = 0) ~attempted:(Reps.attempted samples) ~failed
         (pick names medians))
  end
  else begin
    let names = listed bounds "per_layer" in
    let l = traced ~small:false ~seed ~expected ~oracle ~trace_dir:(flag flags "--trace-dir") w in
    let checks_failed = List.exists (fun (_, ok) -> not ok) l.Layers.checks in
    print_endline
      (result_line
         ~correct:(l.Layers.failed = 0 && not checks_failed)
         ~attempted:l.Layers.items ~failed:l.Layers.failed (pick names l.Layers.metrics))
  end

(* --- run: every workload, round-robin reps, then the traced run --- *)

(* enough for medians and quartiles that hold still from run to run *)
let reps = 11

let run_all ~small ~seed ~reps ~expected ~trace_dir =
  let oracle = Oracle.load expected in
  let samples = List.map (fun w -> (w, Reps.create_samples ())) Workload.all in
  for r = 1 to reps do
    List.iter
      (fun (w, s) ->
        if not small then Printf.eprintf "perf: rep %d/%d %s\n%!" r reps w.Workload.name;
        Reps.rep ~small ~seed ~expected s w)
      samples
  done;
  List.map
    (fun (w, s) ->
      if not small then begin
        Reps.print_table w.Workload.name s;
        Printf.eprintf "perf: traced run %s\n%!" w.Workload.name
      end;
      (w, s, traced ~small ~seed ~expected ~oracle ~trace_dir w))
    samples

let run_doc ~small ~seed ~reps results =
  Reps.document ~env:(Reps.env ~seed ~reps ~small)
    (List.map
       (fun ((w : Workload.t), samples, layers) ->
         (w.Workload.name, Reps.workload_json ~samples ~layers))
       results)

let run flags =
  let seed = seed flags in
  let results =
    run_all ~small:false ~seed ~reps ~expected:(expected flags)
      ~trace_dir:(flag flags "--trace-dir")
  in
  Option.iter
    (fun file -> J.write_file ~indent:1 ~file (run_doc ~small:false ~seed ~reps results))
    (flag flags "--out")

(* --- smoke: the dune test --- *)

let rec copy src dst =
  if Sys.is_directory src then begin
    Sys.mkdir dst 0o755;
    Array.iter (fun f -> copy (Filename.concat src f) (Filename.concat dst f)) (Sys.readdir src)
  end
  else Oracle.write_file dst (Oracle.read_file src)

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* whether a rep checked against [expected] with every paper digest
   zeroed reports a failure *)
let corrupted_digest_caught expected =
  let tmp = Filename.temp_dir "perf-smoke" "" in
  Fun.protect
    ~finally:(fun () -> remove tmp)
    (fun () ->
      let bad = Filename.concat tmp "expected" in
      copy expected bad;
      let paper = Filename.concat bad "paper.tsv" in
      Oracle.write_file paper
        (String.concat "\n"
           (List.map
              (fun line ->
                match String.split_on_char '\t' line with
                | b :: c :: i :: d :: rest when line.[0] <> '#' ->
                    String.concat "\t" (b :: c :: i :: String.map (fun _ -> '0') d :: rest)
                | _ -> line)
              (String.split_on_char '\n' (Oracle.read_file paper))));
      let s = Reps.create_samples () in
      Reps.rep ~small:true ~seed:42 ~expected:bad s (List.hd Workload.all);
      Reps.failed s > 0)

let smoke flags =
  let expected = expected flags and bounds = bounds_file flags in
  let results = run_all ~small:true ~seed:42 ~reps:1 ~expected ~trace_dir:None in
  let doc = run_doc ~small:true ~seed:42 ~reps:1 results in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let e2e = listed bounds "end_to_end" and layer = listed bounds "per_layer" in
  List.iter
    (fun (w : Workload.t) ->
      let get path = Compare.field ("workloads" :: w.Workload.name :: path) doc in
      List.iter
        (fun m -> if get [ "metrics"; m; "median" ] = None then fail "%s: no %s" w.Workload.name m)
        e2e;
      List.iter
        (fun m -> if get [ "layers"; m; "value" ] = None then fail "%s: no layer %s" w.Workload.name m)
        layer;
      if Option.bind (get [ "metrics"; "failed_frac"; "median" ]) J.get_num <> Some 0.0 then
        fail "%s: failed_frac is not 0" w.Workload.name;
      if get [ "traced_failed" ] <> Some (J.Int 0) then
        fail "%s: the traced run failed the oracle" w.Workload.name;
      match get [ "checks" ] with
      | Some (J.Obj cs) ->
          List.iter (fun (n, ok) -> if ok <> J.Bool true then fail "%s: check failed: %s" w.Workload.name n) cs
      | _ -> fail "%s: no checks" w.Workload.name)
    Workload.all;
  if not (corrupted_digest_caught expected) then
    fail "a corrupted expected digest was not reported";
  match !problems with
  | [] -> print_endline "perf smoke: ok"
  | ps ->
      List.iter (fun p -> prerr_endline ("perf smoke: " ^ p)) (List.rev ps);
      exit 1

(* --- oracle maintenance (regen.sh) --- *)

let programs () =
  List.iter
    (fun (b : B.bench) -> Printf.printf "%s %s\n" (Lang.name b.B.lang) b.B.name)
    B.all

let source = function
  | [ lang; name ] -> (
      match Option.bind (Lang.of_name lang) (fun lang -> B.find ~lang name) with
      | Some b -> print_string b.B.source
      | None -> die "no %s program %S" lang name)
  | _ -> usage ()

(* pylite programs whose output python3 cannot reproduce: json_bench
   calls the pylite builtin encode_json, and genshi_xml relies on
   py2-style str.translate with str keys *)
let pinned_py = [ "json_bench"; "genshi_xml" ]

let pin flags =
  let dir = expected flags in
  let pairs = Workload.paper_matrix () in
  let results = R.run_many ~jobs:Workload.jobs pairs in
  List.iter
    (fun (r : R.result) ->
      if r.R.status <> R.Ok_run then die "%s/%s did not complete" r.R.bench_name (R.config_name r.R.config);
      let key = Oracle.output_key r.R.config r.R.bench_name in
      let pinned =
        match r.R.config with
        | R.Racket -> true
        | R.Cpython -> List.mem r.R.bench_name pinned_py
        | _ -> false
      in
      if pinned then
        Oracle.write_file (Filename.concat (Filename.concat dir "out") (key ^ ".out")) r.R.output)
    results;
  Oracle.pin_paper ~dir results;
  let rows =
    List.concat_map
      (fun (lang, bench) ->
        let sess = Serve_replay.session ~capacity:0 () in
        List.map
          (fun req_id ->
            let o =
              Serve_replay.request sess
                { Mtj_harness.Serve.req_id; req_lang = lang; req_bench = bench }
            in
            [ Lang.name lang; bench; string_of_bool o.Serve_replay.o_seeded;
              string_of_int o.Serve_replay.o_insns; o.Serve_replay.o_digest ])
          [ 0; 1 ])
      Mtj_harness.Serve.default_corpus
  in
  Oracle.pin_serve ~dir rows

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] | ("help" | "-h" | "--help") :: _ -> usage ()
  | cmd :: rest -> (
      let flags, pos = parse cmd rest in
      match (cmd, pos) with
      | "bench", [] -> bench flags
      | "run", [] -> run flags
      | "once", [ name ] ->
          Workload.once ~small:(has flags "--small") ~seed:(seed flags)
            ~expected:(expected flags) ~setup_only:(has flags "--setup-only") (workload_of name)
      | "compare", [ base; change ] ->
          if Compare.run ~bounds_file:(bounds_file flags) base change > 0 then exit 1
      | "smoke", [] -> smoke flags
      | "programs", [] -> programs ()
      | "source", args -> source args
      | "pin", [] -> pin flags
      | _ -> usage ())
