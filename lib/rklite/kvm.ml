(** The rklite virtual machine.

    With the JIT enabled on the RPython profile this models Pycket; under
    the custom-JIT profile with the JIT disabled it models the reference
    Racket VM (Table II's two Racket-language configurations). *)

open Mtj_rt
open Mtj_rjit

module Lang : Threaded.LANG with type code = Kbytecode.code = struct
  type code = Kbytecode.code

  let code_ref (c : code) = c.Kbytecode.id
  let lookup_code = Kcode_table.lookup
  let nlocals (c : code) = c.Kbytecode.nlocals
  let stack_size (c : code) = c.Kbytecode.stacksize
  let loop_header (c : code) pc = c.Kbytecode.headers.(pc)
  let opcode_at (c : code) pc = Kbytecode.tag c.Kbytecode.instrs.(pc)
  let name (c : code) = c.Kbytecode.name

  module Step = Kinterp.Step

  (* the threaded-dispatch tier (Config.threaded_interp) *)
  let headers (c : code) = c.Kbytecode.headers
  let threaded_code = Kinterp.threaded_code
  let lookup_threaded = Kcode_table.lookup_threaded
  let store_threaded = Kcode_table.store_threaded
end

(* the pair "struct": rklite's cons cells are 2-field instances, so car
   and cdr trace to plain getfield_gc nodes and non-escaping pairs are
   removed by the JIT's escape analysis *)
let install_pair_class rtc globals =
  let cls =
    Gc_sim.obj (Ctx.gc rtc)
      (Value.Class
         {
           Value.cls_id = -2;
           cls_name = "pair";
           layout = [| "car"; "cdr" |];
           attrs = [];
           parent = None;
         })
  in
  Globals.define globals "%pair" cls

include
  Lang_vm.Make (Lang) (Kcode_table)
    (struct
      let compile = Kcompiler.compile_source
      let install_globals = install_pair_class
    end)
