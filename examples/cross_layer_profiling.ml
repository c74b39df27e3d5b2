(* Cross-layer profiling walkthrough (the paper's Sec. IV methodology):
   annotate events at the application level, intercept them — together
   with the framework's own annotations — at the instruction-stream
   level, and measure warmup with the interpreter-level work counter.

   The program is rklite (Scheme); the instrumentation is identical for
   every hosted language because it lives below the VM.

     dune exec examples/cross_layer_profiling.exe *)

let app =
  {|
;; phase 1: build a table (annotate 1)
(annotate 1)
(define table (make-vector 400 0))
(let fill ((i 0))
  (when (< i 400)
    (vector-set! table i (modulo (* i 2654435761) 100003))
    (fill (+ i 1))))

;; phase 2: hot numeric loop over the table (annotate 2)
(annotate 2)
(define (score n)
  (let loop ((i 0) (s 0))
    (if (< i n)
        (loop (+ i 1)
              (modulo (+ s (* (vector-ref table (modulo i 400)) 31)) 99991))
        s)))
(display (score 120000)) (newline)

;; phase 3: string building (annotate 3)
(annotate 3)
(define (dashes n)
  (let loop ((i 0) (acc ""))
    (if (< i n) (loop (+ i 1) (string-append acc "-")) acc)))
(display (string-length (dashes 400))) (newline)
|}

let () =
  let config = Mtj_core.Config.with_budget 150_000_000 Mtj_core.Config.default in
  let vm = Mtj_rklite.Kvm.create ~config () in
  let engine = Mtj_rklite.Kvm.engine vm in
  (* application-level markers, intercepted at the instruction stream;
     a listener names the annotation kinds it reads, and the engine
     delivers it only those *)
  let markers = ref [] in
  Mtj_machine.Engine.add_listener ~kinds:[ Mtj_core.Annot.Markers ] engine
    (fun ~insns a ->
      match a with
      | Mtj_core.Annot.App_marker n -> markers := (n, insns) :: !markers
      | _ -> ());
  let tracker = Mtj_pintool.Phase_tracker.attach ~bucket_insns:100_000 engine in
  let sampler = Mtj_pintool.Rate_sampler.attach ~window:100_000 engine in
  (match Mtj_rklite.Kvm.run_source vm app with
  | Mtj_rjit.Driver.Completed _ -> ()
  | _ -> failwith "run failed");
  Mtj_pintool.Phase_tracker.finalize tracker;
  Mtj_pintool.Rate_sampler.finalize sampler;
  print_string (Mtj_rklite.Kvm.output vm);
  print_endline "\napplication markers seen in the instruction stream:";
  List.iter
    (fun (n, insns) ->
      Printf.printf "  marker %d at instruction %d\n" n insns)
    (List.rev !markers);
  print_endline "\nphase timeline (dominant phase per 100k instructions):";
  let letters =
    Array.map
      (fun bucket ->
        let p, _ =
          Array.fold_left
            (fun (bp, bf) (p, f) -> if f > bf then (p, f) else (bp, bf))
            (Mtj_core.Phase.Interpreter, 0.0) bucket
        in
        match p with
        | Mtj_core.Phase.Interpreter -> 'I'
        | Tracing -> 'T'
        | Jit -> 'J'
        | Jit_call -> 'C'
        | Gc_minor | Gc_major -> 'G'
        | Blackhole -> 'B'
        | Native -> 'N')
      (Mtj_pintool.Phase_tracker.timeline tracker)
  in
  Printf.printf "  %s\n" (String.init (Array.length letters) (Array.get letters));
  print_endline "\ncumulative work (dispatch ticks) at each 100k instructions:";
  Array.iter
    (fun (insns, ticks) ->
      if insns mod 500_000 = 0 then
        Printf.printf "  %8d insns -> %8d bytecodes\n" insns ticks)
    (Mtj_pintool.Rate_sampler.samples sampler);
  Printf.printf "\ntotal work: %d dispatch ticks over %d instructions\n"
    (Mtj_pintool.Rate_sampler.ticks sampler)
    (Mtj_machine.Engine.total_insns engine)
