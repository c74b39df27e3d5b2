(** One whole-program run and what it leaves to compare.

    [run] drives a program through {!Mtj_harness.Hosted.vm}, with a
    {!Mtj_obs.Sink} attached unless [~sink:false], and returns two
    things.  The {!t} is what a
    check reads from one run: status, output, instruction count, the
    jitlog and, for a JIT run, its [mtj-metrics] document.  The
    {!digest} is what two runs must share to be indistinguishable to
    the simulation: status and output, per-phase counters and engine
    totals, the sink's event stream and counter samples, and the
    jitlog's counters with its tier accounting.  Only the threaded
    interpreter's own cache counters ([interp_translations],
    [threaded_code_hits]) stay out of it, and without a sink so do the
    events and samples.  The sink hears every dispatch tick, which
    triples the host time of an interpreted run, so a run that no
    digest is compared for goes without.

    Digests compare structurally, so cycle counts compare exactly; they
    are rendered, at [%.17g], only to show where two of them part. *)

module Engine = Mtj_machine.Engine
module Counters = Mtj_machine.Counters
module Phase = Mtj_core.Phase
module Config = Mtj_core.Config
module Sink = Mtj_obs.Sink
module Metrics = Mtj_obs.Metrics
module Jitlog = Mtj_rjit.Jitlog
module Driver = Mtj_rjit.Driver

let snap_str (s : Counters.snapshot) =
  Printf.sprintf "i=%d c=%.17g b=%d bm=%d l=%d s=%d cm=%d" s.Counters.insns
    s.Counters.cycles s.Counters.branches s.Counters.branch_misses
    s.Counters.loads s.Counters.stores s.Counters.cache_misses

let status = function
  | Driver.Completed _ -> "ok"
  | Driver.Budget_exceeded -> "budget"
  | Driver.Runtime_error e -> "error: " ^ e

type t = {
  status : string;  (** ["ok"], ["budget"] or ["error: <message>"] *)
  output : string;
  insns : int;
  jitlog : Jitlog.t;
  record : Mtj_obs.Json.t option;
      (** a JIT run's [mtj-metrics] document, for {!Mtj_obs.Validate} *)
}

type digest = {
  d_status : string;
  d_output : string;
  phases : Counters.snapshot list;  (** {!Phase.all}, then the total *)
  engine : int * float;
  events : Sink.event array;
  samples : Sink.sample list;
  jit : string;
}

let jit_line (jl : Jitlog.t) =
  let t1e, t2e, t1d, t2d = Jitlog.tier_residency jl in
  Printf.sprintf
    "traces=%d aborts=%d deopts=%d bridges=%d blacklisted=%d retiers=%d \
     translations=%d cache_hits=%d ir=%d dyn_ir=%d t1c=%d t2c=%d dem=%d \
     first=%d res=%d,%d,%d,%d"
    (Jitlog.num_traces jl) jl.Jitlog.aborts jl.Jitlog.deopts
    jl.Jitlog.bridges_attached jl.Jitlog.blacklisted jl.Jitlog.retiers
    jl.Jitlog.translations jl.Jitlog.code_cache_hits
    (Jitlog.total_ir_compiled jl)
    (Jitlog.total_dynamic_ir jl)
    jl.Jitlog.tier1_compiles jl.Jitlog.tier2_compiles jl.Jitlog.demotions
    jl.Jitlog.first_entry_insns t1e t2e t1d t2d

let run ?(sink = true) lang (config : Config.t) src =
  let (module V : Mtj_harness.Hosted.VM) = Mtj_harness.Hosted.vm lang in
  let vm = V.create ~config () in
  let eng = V.engine vm in
  let sink =
    if sink then Some (Sink.attach ~capacity:(1 lsl 16) ~counter_window:256 eng)
    else None
  in
  let status = status (V.run_source vm src) in
  Option.iter Sink.finalize sink;
  let output = V.output vm and jitlog = V.jitlog vm in
  let c = Engine.counters eng in
  let t =
    {
      status;
      output;
      insns = Engine.total_insns eng;
      jitlog;
      record =
        (if config.Config.jit_enabled then
           Some
             (Metrics.document
                ~runs:
                  [
                    Metrics.run_json ~bench:"program"
                      ~config:
                        (Config.tier_policy_name config.Config.tier_policy)
                      ~status ~engine:eng ~jitlog ();
                  ]
                ())
         else None);
    }
  and d =
    {
      d_status = status;
      d_output = output;
      phases = List.map (Counters.phase c) Phase.all @ [ Counters.total c ];
      engine = (Engine.total_insns eng, Engine.total_cycles eng);
      events = Option.fold ~none:[||] ~some:Sink.events sink;
      samples = Option.fold ~none:[] ~some:Sink.samples sink;
      jit = jit_line jitlog;
    }
  in
  (* everything above is read out of the run: the next VM on this domain
     may take the engine's tables *)
  Engine.release eng;
  (t, d)

let lines d =
  let kind = function
    | Sink.Phase_begin p -> "push:" ^ Phase.name p
    | Sink.Phase_end p -> "pop:" ^ Phase.name p
    | Sink.Trace_enter id -> Printf.sprintf "trace_enter:%d" id
    | Sink.Trace_exit id -> Printf.sprintf "trace_exit:%d" id
    | Sink.Guard_fail id -> Printf.sprintf "guard_fail:%d" id
    | Sink.Trace_compile id -> Printf.sprintf "trace_compile:%d" id
    | Sink.Trace_abort cr -> Printf.sprintf "trace_abort:%d" cr
    | Sink.Marker n -> Printf.sprintf "marker:%d" n
  in
  let insns, cycles = d.engine in
  (("status " ^ d.d_status) :: String.split_on_char '\n' d.d_output)
  @ List.map2
      (fun name s -> name ^ ": " ^ snap_str s)
      (List.map Phase.name Phase.all @ [ "total" ])
      d.phases
  @ [ Printf.sprintf "eng i=%d cy=%.17g" insns cycles ]
  @ Array.to_list
      (Array.map
         (fun (e : Sink.event) ->
           Printf.sprintf "%s@%d cy=%.17g" (kind e.Sink.kind) e.Sink.at_insns
             e.Sink.at_cycles)
         d.events)
  @ List.map
      (fun (s : Sink.sample) ->
        Printf.sprintf "sample @%d cy=%.17g ticks=%d %s" s.Sink.s_insns
          s.Sink.s_cycles s.Sink.s_ticks (snap_str s.Sink.s_counters))
      d.samples
  @ [ d.jit ]

(* the first line where two digests part, with its neighbours *)
let diff ~expected actual =
  let a = Array.of_list (lines expected) and b = Array.of_list (lines actual) in
  let n = min (Array.length a) (Array.length b) in
  let rec first i = if i < n && a.(i) = b.(i) then first (i + 1) else i in
  let i = first 0 in
  let show name l =
    String.concat ""
      (List.init 3 (fun k ->
           let j = i - 1 + k in
           if j >= 0 && j < Array.length l then
             Printf.sprintf "  %s %d: %s\n" name j l.(j)
           else ""))
  in
  Printf.sprintf "digests part at line %d of %d/%d\n%s%s" i (Array.length a)
    (Array.length b) (show "expected" a) (show "actual  " b)
