open Mtj_core
module Engine = Mtj_machine.Engine

(* AOT ids are dense from 0, so the per-function tables are int arrays
   indexed by id, grown when a larger id first shows up *)
type t = {
  engine : Engine.t;
  mutable insns : int array;  (* by fn id: instructions booked *)
  mutable calls : int array;  (* by fn id: outermost calls from JIT code *)
  mutable booked : bool array;  (* by fn id: an interval was booked *)
  mutable stack_ids : int array;  (* the open calls, outermost first *)
  mutable stack_entries : int array;  (* insns at each open call's entry *)
  mutable depth : int;
}

let grow a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let ensure_id t id =
  let len = Array.length t.insns in
  if id >= len then begin
    let len = max (2 * len) (id + 1) in
    t.insns <- grow t.insns len 0;
    t.calls <- grow t.calls len 0;
    t.booked <- grow t.booked len false
  end

let enter t id ~insns =
  (* only track entries made from JIT-compiled code: the engine is
     already in Jit_call phase when the annotation fires *)
  if
    t.depth > 0
    || Phase.equal (Engine.current_phase t.engine) Phase.Jit_call
  then begin
    ensure_id t id;
    let d = t.depth in
    if d = 0 then t.calls.(id) <- t.calls.(id) + 1;
    if d = Array.length t.stack_ids then begin
      t.stack_ids <- grow t.stack_ids (2 * d) 0;
      t.stack_entries <- grow t.stack_entries (2 * d) 0
    end;
    t.stack_ids.(d) <- id;
    t.stack_entries.(d) <- insns;
    t.depth <- d + 1
  end

let leave t id ~insns =
  let d = t.depth - 1 in
  if d >= 0 && t.stack_ids.(d) = id then begin
    t.depth <- d;
    (* inclusive attribution: only the outermost frame books the
       interval *)
    if d = 0 then begin
      t.insns.(id) <- t.insns.(id) + (insns - t.stack_entries.(0));
      t.booked.(id) <- true
    end
  end

let attach engine =
  let t =
    {
      engine;
      insns = Array.make 64 0;
      calls = Array.make 64 0;
      booked = Array.make 64 false;
      stack_ids = Array.make 16 0;
      stack_entries = Array.make 16 0;
      depth = 0;
    }
  in
  Engine.add_listener ~kinds:[ Annot.Aot_calls ] engine (fun ~insns annot ->
      match annot with
      | Annot.Aot_enter id -> enter t id ~insns
      | Annot.Aot_exit id -> leave t id ~insns
      | _ -> ());
  t

let insns_of t id = if id < Array.length t.insns then t.insns.(id) else 0
let calls_of t id = if id < Array.length t.calls then t.calls.(id) else 0

let top t ~n =
  let booked = ref [] in
  for id = Array.length t.insns - 1 downto 0 do
    if t.booked.(id) then booked := (id, t.insns.(id)) :: !booked
  done;
  !booked
  |> List.sort (fun (a, x) (b, y) ->
         if x <> y then Int.compare y x else Int.compare a b)
  |> List.filteri (fun i _ -> i < n)

let total_attributed t = Array.fold_left ( + ) 0 t.insns
