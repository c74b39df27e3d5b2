open Mtj_core

type t = {
  engine : Mtj_machine.Engine.t;
  bucket_insns : int;
  totals : int array;
  mutable buckets : int array list;  (* newest first; one per-phase array each *)
  mutable cur_bucket : int array;
  mutable bucket_base : int;         (* insns at start of current bucket *)
  mutable last_insns : int;
  mutable cur_phase : Phase.t;
  mutable finalized : bool;
}

(* Attribute [last_insns .. now) to the current phase, spilling across
   bucket boundaries. *)
let account t now =
  let rec go last =
    if last < now then begin
      let bucket_end = t.bucket_base + t.bucket_insns in
      let upto = min now bucket_end in
      let i = Phase.index t.cur_phase in
      t.cur_bucket.(i) <- t.cur_bucket.(i) + (upto - last);
      t.totals.(i) <- t.totals.(i) + (upto - last);
      if upto = bucket_end && upto < now then begin
        t.buckets <- t.cur_bucket :: t.buckets;
        t.cur_bucket <- Array.make Phase.count 0;
        t.bucket_base <- bucket_end
      end;
      go upto
    end
  in
  go t.last_insns;
  t.last_insns <- now

let attach ?(bucket_insns = 50_000) engine =
  let t =
    {
      engine;
      bucket_insns;
      totals = Array.make Phase.count 0;
      buckets = [];
      cur_bucket = Array.make Phase.count 0;
      bucket_base = 0;
      last_insns = 0;
      cur_phase = Phase.Interpreter;
      finalized = false;
    }
  in
  Mtj_machine.Engine.add_listener engine (fun ~insns annot ->
      match annot with
      | Annot.Phase_push p ->
          account t insns;
          t.cur_phase <- p
      | Annot.Phase_pop _ ->
          account t insns;
          t.cur_phase <- Mtj_machine.Engine.current_phase engine
          (* the engine has already restored the parent phase when the
             pop annotation is delivered *)
      | Annot.Dispatch_tick | Annot.Aot_enter _ | Annot.Aot_exit _
      | Annot.Trace_enter _ | Annot.Trace_exit _ | Annot.Trace_compile _
      | Annot.Trace_abort _ | Annot.Guard_fail _ | Annot.App_marker _ ->
          ());
  t

let finalize t =
  if not t.finalized then begin
    account t (Mtj_machine.Engine.total_insns t.engine);
    t.buckets <- t.cur_bucket :: t.buckets;
    t.finalized <- true
  end

let phase_insns t p = t.totals.(Phase.index p)
let total_insns t = Array.fold_left ( + ) 0 t.totals

let fraction t p =
  let total = total_insns t in
  if total = 0 then 0.0
  else float_of_int (phase_insns t p) /. float_of_int total

let timeline t =
  let buckets = Array.of_list (List.rev t.buckets) in
  Array.map
    (fun bucket ->
      let total = Array.fold_left ( + ) 0 bucket in
      if total = 0 then [||]
      else
        Phase.all
        |> List.filter_map (fun p ->
               let n = bucket.(Phase.index p) in
               if n = 0 then None
               else Some (p, float_of_int n /. float_of_int total))
        |> Array.of_list)
    buckets

let bucket_insns t = t.bucket_insns
