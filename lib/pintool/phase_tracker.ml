open Mtj_core
module Engine = Mtj_machine.Engine
module Counters = Mtj_machine.Counters

type t = {
  engine : Engine.t;
  bucket_insns : int;
  totals : int array;
  mutable buckets : int array;  (* Phase.count cells per bucket, bucket
                                   [b] from [b * Phase.count]; doubled
                                   when full, so a new bucket allocates
                                   nothing until then *)
  mutable cur : int;                 (* index of the current bucket *)
  mutable bucket_base : int;         (* insns at start of current bucket *)
  mutable last_insns : int;
  mutable cur_phase : Phase.t;
  mutable finalized : bool;
}

let next_bucket t =
  let len = Array.length t.buckets in
  if (t.cur + 2) * Phase.count > len then begin
    let grown = Array.make (2 * len) 0 in
    Array.blit t.buckets 0 grown 0 len;
    t.buckets <- grown
  end;
  t.cur <- t.cur + 1

(* Attribute [last_insns .. now) to the current phase, spilling across
   bucket boundaries. *)
let rec account t now =
  let last = t.last_insns in
  if last < now then begin
    let bucket_end = t.bucket_base + t.bucket_insns in
    let upto = if now < bucket_end then now else bucket_end in
    let i = Phase.index t.cur_phase in
    let c = (t.cur * Phase.count) + i in
    t.buckets.(c) <- t.buckets.(c) + (upto - last);
    t.totals.(i) <- t.totals.(i) + (upto - last);
    t.last_insns <- upto;
    if upto = bucket_end && upto < now then begin
      next_bucket t;
      t.bucket_base <- bucket_end
    end;
    account t now
  end

let attach ?(bucket_insns = 50_000) engine =
  let t =
    {
      engine;
      bucket_insns;
      totals = Array.make Phase.count 0;
      buckets = Array.make (64 * Phase.count) 0;
      cur = 0;
      bucket_base = 0;
      last_insns = 0;
      cur_phase = Phase.Interpreter;
      finalized = false;
    }
  in
  (* what the engine ran before this attach, booked phase by phase as
     its counters hold it, in [Phase.all] order (they keep no order
     within the prefix); the accounting then continues from the
     engine's count in its current phase *)
  let counters = Engine.counters engine in
  List.iter
    (fun p ->
      t.cur_phase <- p;
      account t (t.last_insns + (Counters.phase counters p).Counters.insns))
    Phase.all;
  t.cur_phase <- Engine.current_phase engine;
  Engine.add_listener ~kinds:[ Annot.Phases ] engine (fun ~insns annot ->
      account t insns;
      match annot with
      | Annot.Phase_push p -> t.cur_phase <- p
      | _ ->
          (* a pop: the engine has already restored the parent phase
             when the annotation is delivered *)
          t.cur_phase <- Engine.current_phase engine);
  t

let finalize t =
  if not t.finalized then begin
    account t (Engine.total_insns t.engine);
    t.finalized <- true
  end

let phase_insns t p = t.totals.(Phase.index p)
let total_insns t = Array.fold_left ( + ) 0 t.totals

let fraction t p =
  let total = total_insns t in
  if total = 0 then 0.0
  else float_of_int (phase_insns t p) /. float_of_int total

(* the completed buckets, and after [finalize] the last, partial one *)
let timeline t =
  let n = if t.finalized then t.cur + 1 else t.cur in
  Heap_array.init ~dummy:[||] n (fun b ->
      let cell p = t.buckets.((b * Phase.count) + Phase.index p) in
      let total = List.fold_left (fun acc p -> acc + cell p) 0 Phase.all in
      if total = 0 then [||]
      else
        Phase.all
        |> List.filter_map (fun p ->
               let n = cell p in
               if n = 0 then None
               else Some (p, float_of_int n /. float_of_int total))
        |> Array.of_list)

let bucket_insns t = t.bucket_insns
