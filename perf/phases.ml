(* Host cost per simulated phase, by the paper's own method: the VM
   annotates phase changes (the [Phase_push]/[Phase_pop] stream the
   engine delivers to listeners), and a listener attached through the
   public [Engine.add_listener] intercepts them, reading the host clock
   and [Gc.minor_words] at each one and charging the interval to the
   phase being left.  The listener allocates nothing per event. *)

module Engine = Mtj_machine.Engine
module Phase = Mtj_core.Phase

type cells = {
  ns : float array;  (* host nanoseconds per phase index *)
  words : float array;  (* minor-heap words per phase index *)
  insns : int array;  (* simulated instructions per phase index *)
}

let create () =
  { ns = Array.make Phase.count 0.0; words = Array.make Phase.count 0.0;
    insns = Array.make Phase.count 0 }

let add_into acc c =
  for i = 0 to Phase.count - 1 do
    acc.ns.(i) <- acc.ns.(i) +. c.ns.(i);
    acc.words.(i) <- acc.words.(i) +. c.words.(i);
    acc.insns.(i) <- acc.insns.(i) + c.insns.(i)
  done

(* the phase groups reported: both GC phases count as "gc", and the
   native phase (statically compiled kernels, never pushed by the two
   language VMs) is folded into "interp" *)
let groups =
  [
    ("interp", [ Phase.Interpreter; Phase.Native ]);
    ("tracing", [ Phase.Tracing ]);
    ("jit", [ Phase.Jit ]);
    ("jit_call", [ Phase.Jit_call ]);
    ("blackhole", [ Phase.Blackhole ]);
    ("gc", [ Phase.Gc_minor; Phase.Gc_major ]);
  ]

type probe = { cells : cells; last : float array (* time, words *); mutable last_insns : int }

(* reads the clock itself so the readings stay unboxed *)
let charge p i ~insns =
  let now = Unix.gettimeofday () in
  let words = Gc.minor_words () in
  let c = p.cells in
  c.ns.(i) <- c.ns.(i) +. ((now -. p.last.(0)) *. 1e9);
  c.words.(i) <- c.words.(i) +. (words -. p.last.(1));
  c.insns.(i) <- c.insns.(i) + insns - p.last_insns;
  p.last.(0) <- now;
  p.last.(1) <- words;
  p.last_insns <- insns

(* Attach a probe to a fresh engine.  [start] stores the caller's clock
   and minor-words readings taken right before the run; [close] charges
   the last interval and returns the closing readings, so the per-phase
   words sum exactly to the run's [Gc.minor_words] delta and the
   per-phase time to its wall. *)
let attach cells eng =
  let p = { cells; last = [| 0.0; 0.0 |]; last_insns = Engine.total_insns eng } in
  Engine.add_listener eng (fun ~insns a ->
      match a with
      | Mtj_core.Annot.Phase_push _ ->
          charge p (Phase.index (Engine.current_phase eng)) ~insns
      | Mtj_core.Annot.Phase_pop left -> charge p (Phase.index left) ~insns
      | _ -> ());
  p

let start p ~now ~words =
  p.last.(0) <- now;
  p.last.(1) <- words

let close p eng =
  charge p (Phase.index (Engine.current_phase eng)) ~insns:(Engine.total_insns eng);
  (p.last.(0), p.last.(1))

let sum_ns c = Array.fold_left ( +. ) 0.0 c.ns
let sum_words c = Array.fold_left ( +. ) 0.0 c.words
let sum_insns c = Array.fold_left ( + ) 0 c.insns

(* per group: [<g>.ns_per_insn], [<g>.words_per_insn], [<g>.host_frac],
   [<g>.sim_insns] *)
let metrics c =
  let total_ns = sum_ns c in
  List.concat_map
    (fun (g, phases) ->
      let pick f = List.fold_left (fun acc p -> acc +. f (Phase.index p)) 0.0 phases in
      let ns = pick (fun i -> c.ns.(i)) and words = pick (fun i -> c.words.(i)) in
      let insns = pick (fun i -> float_of_int c.insns.(i)) in
      [
        (g ^ ".ns_per_insn", Stats.ratio ns insns);
        (g ^ ".words_per_insn", Stats.ratio words insns);
        (g ^ ".host_frac", Stats.ratio ns total_ns);
        (g ^ ".sim_insns", insns);
      ])
    groups
