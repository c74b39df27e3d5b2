open Mtj_core
module Engine = Mtj_machine.Engine

type src = R | L | C | I | M

type fn = {
  id : int;
  name : string;
  src : src;
  enter : Annot.t;  (* [Aot_enter id] and [Aot_exit id], built once at *)
  exit : Annot.t;   (* registration so a call allocates neither *)
}

let registry : (string, fn) Hashtbl.t = Hashtbl.create 64
let by_id : (int, fn) Hashtbl.t = Hashtbl.create 64
let next_id = ref 0

(* The registry is written during module initialization (every runtime
   module registers its functions at load time) and then frozen by the
   harness before any worker domain starts.  After [freeze], the tables
   are read-only and may be consulted from any domain without taking
   [lock]; a registration of a genuinely new name after the freeze is a
   programming error and raises. *)
let lock = Mutex.create ()
let frozen = ref false

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let freeze () = frozen := true
let is_frozen () = !frozen

let register ~name ~src =
  match Hashtbl.find_opt registry name with
  | Some fn -> fn
  | None when !frozen ->
      invalid_arg
        ("Aot.register: registry is frozen but " ^ name
       ^ " was never registered during startup")
  | None ->
      with_lock (fun () ->
          match Hashtbl.find_opt registry name with
          | Some fn -> fn
          | None ->
              let id = !next_id in
              let fn =
                {
                  id;
                  name;
                  src;
                  enter = Annot.Aot_enter id;
                  exit = Annot.Aot_exit id;
                }
              in
              incr next_id;
              Hashtbl.replace registry name fn;
              Hashtbl.replace by_id fn.id fn;
              fn)

let id fn = fn.id
let name fn = fn.name
let src fn = fn.src

let src_letter = function
  | R -> "R"
  | L -> "L"
  | C -> "C"
  | I -> "I"
  | M -> "M"

let find i = Hashtbl.find_opt by_id i

(* call/return overhead of leaving JIT-compiled code for an AOT function:
   argument shuffling, spills, the call itself (the paper's Fig. 9 shows
   call-class IR nodes costing 15+ x86 instructions) *)
let call_overhead = Cost.make ~alu:3 ~load:3 ~store:4 ~other:5 ()

(* the end of an AOT call, however [body] ended: the exit annotation,
   then the [Jit_call] pop when the call came from JIT code *)
let leave eng fn ~from_jit =
  Engine.annot eng fn.exit;
  if from_jit then Engine.pop_phase eng

let call ctx fn body =
  let eng = Ctx.engine ctx in
  let from_jit =
    Phase.equal (Engine.current_phase eng) Phase.Jit
  in
  Engine.emit eng call_overhead;
  Engine.branch_indirect eng ~site:(700_000 + fn.id) ~target:fn.id;
  if from_jit then Engine.push_phase eng Phase.Jit_call;
  Engine.annot eng fn.enter;
  match body () with
  | v ->
      leave eng fn ~from_jit;
      v
  | exception e ->
      leave eng fn ~from_jit;
      raise e
