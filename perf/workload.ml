(* The four workloads and one timed repetition of each.

   Every workload is a closed loop with one worker ([jobs]): it takes
   the next item (a paper run, or a serve request) when it finishes the
   previous one.  One worker, not two, because the host-speed scaling
   ({!Hostspeed}) must share the thread with the work, and on the
   calling domain [Runner.run_many] and [Serve.serve] execute their
   items back to back in order. *)

module R = Mtj_harness.Runner
module E = Mtj_harness.Experiments
module S = Mtj_harness.Serve
module J = Mtj_obs.Json

type kind =
  | Paper of { jit : bool }
  | Serve of { zipf_s : float; capacity : int }

(* why each workload was chosen: README.md and BENCHMARK.json *)
type t = { name : string; kind : kind }

let jobs = 1

let all =
  [
    { name = "paper-interp"; kind = Paper { jit = false } };
    { name = "paper-jit"; kind = Paper { jit = true } };
    { name = "serve-zipf"; kind = Serve { zipf_s = 1.1; capacity = 0 } };
    { name = "serve-churn"; kind = Serve { zipf_s = 0.6; capacity = 2 } };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let names () = String.concat ", " (List.map (fun w -> w.name) all)

(* --- inputs --- *)

let is_jit_config = function
  | R.Pypy_jit | R.Pypy_tiered | R.Pypy_baseline | R.Pycket_jit -> true
  | R.Cpython | R.Pypy_nojit | R.Racket | R.Pycket_nojit | R.Native_c -> false

(* the run matrix [bench/main.exe all] prefetches, first occurrence
   first *)
let paper_matrix () =
  let seen = Hashtbl.create 128 in
  List.filter
    (fun k ->
      (not (Hashtbl.mem seen k))
      && begin
           Hashtbl.replace seen k ();
           true
         end)
    (List.concat_map (fun (e : E.experiment) -> e.E.ex_runs ()) E.registry)

(* smoke-test sizes: two cheap programs under two configs of each side *)
let small_pairs ~jit =
  let programs, configs =
    if jit then ([ "fannkuch"; "richards" ], [ R.Pypy_jit; R.Pypy_baseline ])
    else ([ "genshi_xml"; "eparse" ], [ R.Cpython; R.Pypy_nojit ])
  in
  List.concat_map (fun p -> List.map (fun c -> (p, c)) configs) programs

let paper_pairs ~small ~jit =
  if small then small_pairs ~jit
  else List.filter (fun (_, vc) -> is_jit_config vc = jit) (paper_matrix ())

(* Execution order: the seed swaps neighbours in the matrix order, pair
   by pair.  The order moves, but what ran before each run barely does,
   so the heap each run inherits (and with it peak RSS) stays close from
   seed to seed.  Results do not depend on the order. *)
let order ~seed pairs =
  let a = Array.of_list pairs in
  let st = Random.State.make [| seed |] in
  for i = 0 to (Array.length a / 2) - 1 do
    if Random.State.bool st then begin
      let x = a.(2 * i) in
      a.(2 * i) <- a.((2 * i) + 1);
      a.((2 * i) + 1) <- x
    end
  done;
  Array.to_list a

let serve_requests ~small = if small then 200 else 10_000

(* --- one timed repetition --- *)

type sample = {
  t0 : float;  (* when the timed call started *)
  wall_s : float;
  items : int;  (* runs or requests *)
  failed : int;  (* items that failed or disagree with the oracle *)
  sim_insns : float;
  durs : float array;  (* per item, in execution order, in seconds *)
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* [prepare] does the set-up and returns the timed call, which also
   checks the outputs once the clock has stopped *)
let prepare ~small ~seed oracle w : unit -> sample =
  match w.kind with
  | Paper { jit } ->
      let pairs = order ~seed (paper_pairs ~small ~jit) in
      fun () ->
        let t0 = Unix.gettimeofday () in
        let results = R.run_many ~jobs pairs in
        let wall = Unix.gettimeofday () -. t0 in
        let walls = Hashtbl.create 128 in
        List.iter
          (fun (t : R.run_timing) -> Hashtbl.replace walls (t.R.rt_bench, t.R.rt_config) t.R.rt_wall_s)
          (R.run_timings ());
        let checked = List.map (Oracle.check_run oracle) results in
        {
          t0;
          wall_s = wall;
          items = List.length results;
          failed = List.length (List.filter Option.is_none checked);
          sim_insns =
            float_of_int (List.fold_left (fun a r -> a + r.R.insns) 0 results);
          durs = Array.of_list (List.map (Hashtbl.find walls) pairs);
        }
  | Serve { zipf_s; capacity } ->
      let requests = serve_requests ~small in
      fun () ->
        let t0 = Unix.gettimeofday () in
        let sv = S.serve ~jobs ~requests ~zipf_s ~seed ~cache_capacity:capacity () in
        let wall = Unix.gettimeofday () -. t0 in
        let checked = Array.map (Oracle.check_request oracle) sv.S.sv_records in
        {
          t0;
          wall_s = wall;
          items = Array.length sv.S.sv_records;
          failed =
            Array.fold_left (fun n c -> if c = None then n + 1 else n) 0 checked;
          sim_insns =
            Array.fold_left
              (fun a c -> a +. float_of_int (Option.value ~default:0 c))
              0.0 checked;
          durs = Array.map (fun r -> r.S.r_wall_s) sv.S.sv_records;
        }

(* the child's high-water resident set, in MB *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        0.0
        (String.split_on_char '\n' s)

(* one repetition's metrics, before set-up time (which the parent adds:
   it knows when it spawned the child).  Times and rates are scaled to
   the reference host speed; [raw_wall_s] and [host_slowdown] show what
   the scaling undid. *)
let rep_metrics (s : sample) slices =
  let wall, durs = Hostspeed.scale ~t0:s.t0 ~t1:(s.t0 +. s.wall_s) slices s.durs in
  let lat_ms = Array.map (fun d -> d *. 1e3) durs in
  let p q = Stats.percentile lat_ms q in
  [
    ("wall_s", wall);
    ("sim_minsn_per_s", Stats.ratio (s.sim_insns /. 1e6) wall);
    ("req_per_s", Stats.ratio (float_of_int s.items) wall);
    ("p50_ms", p 50.0);
    ("p99_ms", p 99.0);
    ("p999_ms", p 99.9);
    ("peak_rss_mb", peak_rss_mb ());
    ("failed_frac", Stats.ratio (float_of_int s.failed) (float_of_int s.items));
    ("raw_wall_s", s.wall_s);
    ("host_slowdown", Hostspeed.slowdown slices);
  ]

(* [perf.exe once]: set up, print the start time, run once, print the
   metrics; the parent reads the single JSON line *)
let once ~small ~seed ~expected ~setup_only w =
  let oracle = Oracle.load expected in
  let go = prepare ~small ~seed oracle w in
  let start = Unix.gettimeofday () in
  let fields =
    if setup_only then []
    else
      let s, slices = Hostspeed.sample go in
      ("items", float_of_int s.items) :: ("failed", float_of_int s.failed)
      :: rep_metrics s slices
  in
  print_endline
    (J.to_string
       (J.Obj
          (("start", J.Float start)
          :: List.map (fun (k, v) -> (k, J.Float v)) fields)))
