open Mtj_core
module Engine = Mtj_machine.Engine

type t = {
  window : int;
  mutable ticks : int;
  mutable next_mark : int;
  mutable rev_samples : (int * int) list;
  engine : Engine.t;
  mutable finalized : bool;
}

(* [insns] is the engine's exact total after the last charged bundle,
   so sample marks land on precise boundaries *)
let tick t ~insns =
  t.ticks <- t.ticks + 1;
  while insns >= t.next_mark do
    t.rev_samples <- (t.next_mark, t.ticks) :: t.rev_samples;
    t.next_mark <- t.next_mark + t.window
  done

let attach ?window engine =
  let window =
    match window with
    | Some w -> w
    | None -> (Engine.config engine).Config.sample_window
  in
  let t =
    {
      window;
      ticks = 0;
      (* the first window boundary past the attach point: a sampler
         attached after the engine has run records no marks it never
         saw *)
      next_mark = ((Engine.total_insns engine / window) + 1) * window;
      rev_samples = [];
      engine;
      finalized = false;
    }
  in
  Engine.add_listener ~kinds:[ Annot.Ticks ] engine (fun ~insns _ ->
      tick t ~insns);
  t

let finalize t =
  if not t.finalized then begin
    let insns = Engine.total_insns t.engine in
    t.rev_samples <- (insns, t.ticks) :: t.rev_samples;
    t.finalized <- true
  end

let ticks t = t.ticks
let samples t = Array.of_list (List.rev t.rev_samples)

let interpolate s insns =
  let n = Array.length s in
  if n = 0 then 0
  else if insns <= fst s.(0) then
    (* interpolate from origin *)
    let i0, k0 = s.(0) in
    if i0 = 0 then k0 else insns * k0 / i0
  else if insns >= fst s.(n - 1) then snd s.(n - 1)
  else begin
    (* binary search for the bracketing pair *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if fst s.(mid) <= insns then lo := mid else hi := mid
    done;
    let i0, k0 = s.(!lo) and i1, k1 = s.(!hi) in
    if i1 = i0 then k0 else k0 + ((insns - i0) * (k1 - k0) / (i1 - i0))
  end

let ticks_at t insns = interpolate (samples t) insns

let break_even t ~against =
  let theirs = samples against in
  Array.find_map
    (fun (insns, k) ->
      if k >= interpolate theirs insns && k > 0 then Some insns else None)
    (samples t)
