(** The pylite virtual machine.

    Wires the language into the meta-tracing framework: with the JIT
    enabled and the RPython profile this models PyPy; with the JIT
    disabled it models "PyPy w/o JIT"; under the CPython profile (and no
    JIT) it models the reference CPython interpreter (Table I's three
    configurations). *)

open Mtj_rt
open Mtj_rjit

module Lang : Threaded.LANG with type code = Bytecode.code = struct
  type code = Bytecode.code

  let code_ref (c : code) = c.Bytecode.id
  let lookup_code = Code_table.lookup
  let nlocals (c : code) = c.Bytecode.nlocals
  let stack_size (c : code) = c.Bytecode.stacksize
  let loop_header (c : code) pc = c.Bytecode.headers.(pc)
  let opcode_at (c : code) pc = Bytecode.tag c.Bytecode.instrs.(pc)
  let name (c : code) = c.Bytecode.name

  module Step = Interp.Step

  (* the threaded-dispatch tier (Config.threaded_interp) *)
  let headers (c : code) = c.Bytecode.headers
  let threaded_code = Interp.threaded_code
  let lookup_threaded = Code_table.lookup_threaded
  let store_threaded = Code_table.store_threaded
end

(* names exposed as module-level globals *)
let global_builtins =
  Builtin.
    [ Len; Range2; Abs; Min2; Max2; Ord; Chr; To_int; To_float; To_str;
      Repr; Print; Sorted; Hashf; Sio_new; Annotate; Bigint_of; Powf;
      Encode_json ]

let bind_builtins rtc globals =
  List.iter
    (fun b ->
      Globals.define globals (Builtin.name b) (Builtins_impl.builtin_value rtc b))
    global_builtins;
  (* the math module is modelled as a class object with builtin attrs *)
  let math_attrs =
    [ ("sqrt", Builtin.Sqrt); ("sin", Builtin.Sin); ("cos", Builtin.Cos);
      ("floor", Builtin.Floor_f); ("pow", Builtin.Powf) ]
  in
  let math =
    Gc_sim.obj (Ctx.gc rtc)
      (Value.Class
         {
           Value.cls_id = -1;
           cls_name = "math";
           layout = [||];
           attrs =
             List.map
               (fun (n, b) -> (n, Builtins_impl.builtin_value rtc b))
               math_attrs;
           parent = None;
         })
  in
  Globals.define globals "math" math

include
  Lang_vm.Make (Lang) (Code_table)
    (struct
      let compile = Compiler.compile_source
      let install_globals = bind_builtins
    end)
