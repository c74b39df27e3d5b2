(* Timed repetitions: each (workload, rep) runs in a fresh child process
   ([perf.exe once]), one child at a time, so every rep pays the same
   process start-up and reports its own peak RSS.  Set-up time runs from
   the parent spawning the child to the child's first timed call; extra
   set-up-only children, spawned right before the timed one, sample it
   more often, since it is short and jittery. *)

module J = Mtj_obs.Json

(* every metric a repetition reports, with its unit; BENCHMARK.json
   picks the ones it gates and fixes their bounds *)
let metrics =
  [
    ("wall_s", "s");
    ("sim_minsn_per_s", "Minsn/s");
    ("req_per_s", "req/s");
    ("p50_ms", "ms");
    ("p99_ms", "ms");
    ("p999_ms", "ms");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
    ("failed_frac", "fraction");
    ("raw_wall_s", "s");
    ("host_slowdown", "ratio");
  ]

let unit_of name = Option.value ~default:"?" (List.assoc_opt name metrics)

let setup_only_per_rep = 9

let child_args ~small ~seed ~expected ~setup_only (w : Workload.t) =
  [ "once"; w.Workload.name; "--seed"; string_of_int seed; "--expected"; expected ]
  @ (if small then [ "--small" ] else [])
  @ if setup_only then [ "--setup-only" ] else []

(* run one child; its last stdout line is a JSON object of floats *)
let child args =
  let exe = Sys.executable_name in
  let spawned = Unix.gettimeofday () in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
      match J.parse (List.nth lines (List.length lines - 1)) with
      | Ok (J.Obj fields) ->
          let num k = Option.bind (List.assoc_opt k fields) J.get_num in
          let start = Option.get (num "start") in
          ( start -. spawned,
            List.filter_map
              (fun (k, v) -> if k = "start" then None else Option.map (fun x -> (k, x)) (J.get_num v))
              fields )
      | _ -> failwith ("perf: unreadable child output: " ^ out))
  | _ -> failwith ("perf: child failed: " ^ String.concat " " args)

(* samples of one workload, metric -> values in rep order *)
type samples = (string, float list) Hashtbl.t

let create_samples () : samples = Hashtbl.create 16

let push (t : samples) k v =
  Hashtbl.replace t k (Option.value ~default:[] (Hashtbl.find_opt t k) @ [ v ])

let values (t : samples) k = Option.value ~default:[] (Hashtbl.find_opt t k)

(* one timed rep plus its set-up-only siblings *)
let rep ~small ~seed ~expected (t : samples) w =
  let setups =
    List.init setup_only_per_rep (fun _ ->
        fst (child (child_args ~small ~seed ~expected ~setup_only:true w)))
  in
  let setup, fields = child (child_args ~small ~seed ~expected ~setup_only:false w) in
  List.iter (fun (k, v) -> push t k v) fields;
  (* one setup_s sample per rep: the median of its set-ups, scaled to
     the reference host speed like the rep's times *)
  push t "setup_s" (Stats.median (setup :: setups) /. List.assoc "host_slowdown" fields)

let attempted t = int_of_float (Stats.sum (values t "items"))
let failed t = int_of_float (Stats.sum (values t "failed"))

(* --- result documents (schema mtj-perf/1) --- *)

let schema = "mtj-perf/1"

let commit () =
  let read f = try Some (String.trim (Oracle.read_file f)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some c -> c
      | None -> (
          match read ".git/packed-refs" with
          | Some packed ->
              List.fold_left
                (fun acc line ->
                  match String.split_on_char ' ' line with
                  | [ c; name ] when name = r -> c
                  | _ -> acc)
                "unknown" (String.split_on_char '\n' packed)
          | None -> "unknown"))
  | Some c -> c
  | None -> "unknown"

let env ~seed ~reps ~small =
  J.Obj
    [
      ("commit", J.Str (commit ()));
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("jobs", J.Int Workload.jobs);
      ("reps", J.Int reps);
      ("seed", J.Int seed);
      ("small", J.Bool small);
    ]

let summary_json name vs =
  let q1, med, q3 = Stats.quartiles vs in
  J.Obj
    [
      ("unit", J.Str (unit_of name));
      ("median", J.Float med);
      ("q1", J.Float q1);
      ("q3", J.Float q3);
      ("samples", J.Arr (List.map (fun v -> J.Float v) vs));
    ]

let workload_json ~(samples : samples) ~(layers : Layers.result) =
  let summaries =
    List.filter_map
      (fun (n, _) ->
        match values samples n with [] -> None | vs -> Some (n, summary_json n vs))
      metrics
  in
  J.Obj
    [
      ("attempted", J.Int (attempted samples));
      ("failed", J.Int (failed samples));
      ("metrics", J.Obj summaries);
      ("traced_items", J.Int layers.Layers.items);
      ("traced_failed", J.Int layers.Layers.failed);
      ( "layers",
        J.Obj
          (List.map
             (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ]))
             layers.Layers.metrics) );
      ("checks", J.Obj (List.map (fun (n, ok) -> (n, J.Bool ok)) layers.Layers.checks));
    ]

let document ~env workloads =
  J.Obj
    [
      ("schema", J.Str schema);
      ("env", env);
      ("workloads", J.Obj workloads);
    ]

(* --- printing --- *)

let print_table name (samples : samples) =
  Printf.printf "%s  (%d items, %d failed)\n" name (attempted samples) (failed samples);
  List.iter
    (fun (n, u) ->
      match values samples n with
      | [] -> ()
      | vs ->
          let q1, med, q3 = Stats.quartiles vs in
          Printf.printf "  %-16s %14.6g %-9s [q1 %.6g, q3 %.6g, n=%d]\n" n med u q1 q3
            (List.length vs))
    metrics

let print_layers name (l : Layers.result) =
  Printf.printf "%s  per-layer (traced run)\n" name;
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %14.6g %s\n" n v u) l.Layers.metrics;
  List.iter
    (fun (n, ok) -> Printf.printf "  check: %-52s %s\n" n (if ok then "ok" else "FAILED"))
    l.Layers.checks;
  List.iter
    (fun (n, (count, total, self)) ->
      Printf.printf "  span %-20s n=%-6d total %10.3f ms  self %10.3f ms\n" n count
        (total *. 1e3) (self *. 1e3))
    (Spans.by_name l.Layers.spans)
