(* Host-speed scaling of the timed repetitions.

   On a shared virtual machine the host's speed moves by tens of percent
   within seconds (frequency steps, the neighbours' load): unscaled, the
   time metrics of ten runs of identical code spread by 5-27%.  So
   while a timed call runs, a timer signal interrupts it
   every [period] seconds and runs a fixed kernel on the same thread.
   How long the kernel takes is the host's speed at that moment, sampled
   in step with the work.  Each timed item is then scaled to the
   reference speed, at which one kernel slice takes [reference_s], by
   the slices taken while it ran.

   The kernel is half an integer loop and half hashtable probes, by
   time.  When the host is loaded the integer loop slows more than the
   simulator and the probes slow less, so the mix follows the simulator
   more closely than either (README.md has the measurements).

   The kernel belongs to the benchmark, not to the code under test, so a
   change to the simulator cannot move it.  It has to share the thread
   with the work: on another domain its time would include the work's
   stop-the-world collections. *)

let period = 0.02

(* about the kernel's time on a quiet 2-vCPU virtual machine *)
let reference_s = 200e-6

let loop_iterations = 55_000
let probes = 2_200

(* the probed table: its keys are all present, so neither [find] nor
   [replace] allocates *)
let table =
  let t = Hashtbl.create 512 in
  for k = 0 to 255 do
    Hashtbl.replace t k 0
  done;
  t

let kernel () =
  let s = ref 0 in
  for i = 1 to loop_iterations do
    s := !s + (i * i mod 7)
  done;
  for i = 1 to probes do
    Hashtbl.replace table (i land 255) (Hashtbl.find table (i * 7 land 255) + i)
  done;
  !s

type slice = { at : float; dur : float }

(* room for the slices of a three-minute call *)
let capacity = 16_384

(* [f ()] with the kernel interleaved; the slices in time order.  The
   handler allocates nothing, so the work's heap, and with it its peak
   RSS, does not depend on when the signals land. *)
let sample f =
  let at = Array.make capacity 0.0 and dur = Array.make capacity 0.0 and n = ref 0 in
  let handler _ =
    if !n < capacity then begin
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (kernel ()));
      dur.(!n) <- Unix.gettimeofday () -. t0;
      at.(!n) <- t0;
      incr n
    end
  in
  let timer p =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = p; it_value = p })
  in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle handler) in
  timer period;
  let x =
    Fun.protect f ~finally:(fun () ->
        timer 0.0;
        Sys.set_signal Sys.sigalrm old)
  in
  (x, Array.init !n (fun i -> { at = at.(i); dur = dur.(i) }))

let total slices = Array.fold_left (fun a s -> a +. s.dur) 0.0 slices

(* the mean slice over the reference: above 1, the host ran slow *)
let slowdown slices =
  if slices = [||] then 1.0
  else total slices /. float_of_int (Array.length slices) /. reference_s

(* [scale ~t0 ~t1 slices durs]: the timed call ran from [t0] to [t1]
   and executed items of durations [durs] back to back, in order, on
   the sampled thread.  Each item is scaled by the mean of the slices
   taken within one period of it; the call's wall, less the slices, by
   the items' mean scale.  Returns (scaled wall, scaled durations). *)
let scale ~t0 ~t1 slices durs =
  let slices = Array.of_list (List.filter (fun s -> s.at >= t0 && s.at < t1) (Array.to_list slices)) in
  let busy = Array.fold_left ( +. ) 0.0 durs in
  let wall = t1 -. t0 -. total slices in
  let n = Array.length slices in
  if n = 0 || busy = 0.0 then (wall, durs)
  else begin
    (* the gaps between items are spread over them evenly *)
    let stretch = (t1 -. t0) /. busy in
    let first = ref 0 and start = ref t0 in
    let scaled =
      Array.map
        (fun d ->
          let lo = !start -. period and hi = !start +. (d *. stretch) +. period in
          while !first < n - 1 && slices.(!first).at < lo do incr first done;
          let sum = ref 0.0 and k = ref 0 and j = ref !first in
          while !j < n && slices.(!j).at <= hi do
            sum := !sum +. slices.(!j).dur;
            incr k;
            incr j
          done;
          (* no slice that close (a call shorter than a period): the
             nearest one *)
          let local = if !k = 0 then slices.(!first).dur else !sum /. float_of_int !k in
          start := !start +. (d *. stretch);
          d *. reference_s /. local)
        durs
    in
    (wall *. Array.fold_left ( +. ) 0.0 scaled /. busy, scaled)
  end
