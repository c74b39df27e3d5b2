type t =
  | Phase_push of Phase.t
  | Phase_pop of Phase.t
  | Aot_enter of int
  | Aot_exit of int
  | Trace_enter of int
  | Trace_exit of int
  | Trace_compile of int
  | Trace_abort of int
  | Guard_fail of int
  | App_marker of int

type kind = Phases | Aot_calls | Traces | Markers

let[@inline] kind = function
  | Phase_push _ | Phase_pop _ -> Phases
  | Aot_enter _ | Aot_exit _ -> Aot_calls
  | Trace_enter _ | Trace_exit _ | Trace_compile _ | Trace_abort _
  | Guard_fail _ ->
      Traces
  | App_marker _ -> Markers

let kinds = [ Phases; Aot_calls; Traces; Markers ]

let[@inline] kind_index = function
  | Phases -> 0
  | Aot_calls -> 1
  | Traces -> 2
  | Markers -> 3

let to_string = function
  | Phase_push p -> "phase_push:" ^ Phase.name p
  | Phase_pop p -> "phase_pop:" ^ Phase.name p
  | Aot_enter id -> Printf.sprintf "aot_enter:%d" id
  | Aot_exit id -> Printf.sprintf "aot_exit:%d" id
  | Trace_enter id -> Printf.sprintf "trace_enter:%d" id
  | Trace_exit id -> Printf.sprintf "trace_exit:%d" id
  | Trace_compile id -> Printf.sprintf "trace_compile:%d" id
  | Trace_abort code -> Printf.sprintf "trace_abort:%d" code
  | Guard_fail id -> Printf.sprintf "guard_fail:%d" id
  | App_marker id -> Printf.sprintf "app_marker:%d" id

let pp fmt t = Format.pp_print_string fmt (to_string t)
