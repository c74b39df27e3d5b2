type t =
  | Phase_push of Phase.t
  | Phase_pop of Phase.t
  | Dispatch_tick
  | Aot_enter of int
  | Aot_exit of int
  | Trace_enter of int
  | Trace_exit of int
  | Trace_compile of int
  | Trace_abort of int
  | Guard_fail of int
  | App_marker of int

let to_string = function
  | Phase_push p -> "phase_push:" ^ Phase.name p
  | Phase_pop p -> "phase_pop:" ^ Phase.name p
  | Dispatch_tick -> "dispatch_tick"
  | Aot_enter id -> Printf.sprintf "aot_enter:%d" id
  | Aot_exit id -> Printf.sprintf "aot_exit:%d" id
  | Trace_enter id -> Printf.sprintf "trace_enter:%d" id
  | Trace_exit id -> Printf.sprintf "trace_exit:%d" id
  | Trace_compile id -> Printf.sprintf "trace_compile:%d" id
  | Trace_abort code -> Printf.sprintf "trace_abort:%d" code
  | Guard_fail id -> Printf.sprintf "guard_fail:%d" id
  | App_marker id -> Printf.sprintf "app_marker:%d" id

let pp fmt t = Format.pp_print_string fmt (to_string t)
