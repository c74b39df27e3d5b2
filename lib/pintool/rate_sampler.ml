open Mtj_core
module Engine = Mtj_machine.Engine

type t = {
  window : int;
  base : int;  (* the engine's tick count at attach *)
  mutable next_mark : int;
  mutable rev_samples : (int * int) list;
  engine : Engine.t;
  mutable finalized : bool;
}

let ticks t = Engine.ticks t.engine - t.base

(* called at the first tick at or past [next_mark]; [insns] is the
   engine's exact total after the last charged bundle, so sample marks
   land on precise boundaries, and one tick records every mark it
   crossed *)
let on_mark t ~insns ~ticks =
  let k = ticks - t.base in
  while insns >= t.next_mark do
    t.rev_samples <- (t.next_mark, k) :: t.rev_samples;
    t.next_mark <- t.next_mark + t.window
  done;
  t.next_mark

let attach ?window engine =
  let window =
    match window with
    | Some w -> w
    | None -> (Engine.config engine).Config.sample_window
  in
  let t =
    {
      window;
      base = Engine.ticks engine;
      (* the first window boundary past the attach point: a sampler
         attached after the engine has run records no marks it never
         saw *)
      next_mark = ((Engine.total_insns engine / window) + 1) * window;
      rev_samples = [];
      engine;
      finalized = false;
    }
  in
  Engine.add_mark_listener engine ~mark:t.next_mark (on_mark t);
  t

let finalize t =
  if not t.finalized then begin
    let insns = Engine.total_insns t.engine in
    t.rev_samples <- (insns, ticks t) :: t.rev_samples;
    t.finalized <- true
  end

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
