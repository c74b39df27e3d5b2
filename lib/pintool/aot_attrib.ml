open Mtj_core

type t = {
  insns : (int, int) Hashtbl.t;
  calls : (int, int) Hashtbl.t;
  mutable stack : (int * int) list;  (* (fn_id, insns at entry) *)
}

let bump tbl key n =
  let cur = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (cur + n)

let attach engine =
  let t = { insns = Hashtbl.create 64; calls = Hashtbl.create 64; stack = [] } in
  Mtj_machine.Engine.add_listener engine (fun ~insns annot ->
      match annot with
      | Annot.Aot_enter id ->
          (* only track entries made from JIT-compiled code: the engine is
             already in Jit_call phase when the annotation fires *)
          let in_jit_call =
            Phase.equal
              (Mtj_machine.Engine.current_phase engine)
              Phase.Jit_call
          in
          if in_jit_call || t.stack <> [] then begin
            if t.stack = [] then bump t.calls id 1;
            t.stack <- (id, insns) :: t.stack
          end
      | Annot.Aot_exit id -> begin
          match t.stack with
          | (top_id, entry) :: rest when top_id = id ->
              t.stack <- rest;
              (* inclusive attribution: only the outermost frame books
                 the interval *)
              if rest = [] then bump t.insns id (insns - entry)
          | _ -> ()
        end
      | Annot.Phase_push _ | Annot.Phase_pop _ | Annot.Dispatch_tick
      | Annot.Trace_enter _ | Annot.Trace_exit _ | Annot.Trace_compile _
      | Annot.Trace_abort _ | Annot.Guard_fail _ | Annot.App_marker _ ->
          ());
  t

let insns_of t id = Option.value ~default:0 (Hashtbl.find_opt t.insns id)
let calls_of t id = Option.value ~default:0 (Hashtbl.find_opt t.calls id)

let top t ~n =
  Hashtbl.fold (fun id insns acc -> (id, insns) :: acc) t.insns []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
  |> List.filteri (fun i _ -> i < n)

let total_attributed t = Hashtbl.fold (fun _ n acc -> acc + n) t.insns 0
