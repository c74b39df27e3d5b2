(* The public VM surface the benchmark drives, shared by pylite ([Vm])
   and rklite ([Kvm]) so the bare runs and the serve replay are written
   once for both languages. *)

module B = Mtj_benchmarks.Registry

module type S = sig
  type t
  type code
  type bundle

  val lang : B.lang
  val create : ?config:Mtj_core.Config.t -> ?profile:Mtj_core.Profile.t -> unit -> t
  val compile : string -> code
  val run_code : t -> code -> Mtj_rjit.Driver.outcome
  val compile_bundle : string -> bundle
  val import_bundle : t -> bundle -> unit
  val run_bundle : t -> bundle -> Mtj_rjit.Driver.outcome
  val bundle_size : bundle -> int
  val export_profile : t -> Mtj_rjit.Traceprofile.t
  val seed_profile : t -> Mtj_rjit.Traceprofile.t -> unit
  val output : t -> string
  val rtc : t -> Mtj_rt.Ctx.t
  val engine : t -> Mtj_machine.Engine.t
  val jitlog : t -> Mtj_rjit.Jitlog.t
end

module Py : S = struct
  include Mtj_pylite.Vm

  type code = Mtj_pylite.Bytecode.code

  let lang = B.Py
end

module Rk : S = struct
  include Mtj_rklite.Kvm

  type code = Mtj_rklite.Kbytecode.code

  let lang = B.Rk
end

let name = function B.Py -> "py" | B.Rk -> "rk"
let of_name = function "py" -> Some B.Py | "rk" -> Some B.Rk | _ -> None
let get = function B.Py -> (module Py : S) | B.Rk -> (module Rk : S)

let status = function
  | Mtj_rjit.Driver.Completed _ -> "ok"
  | Mtj_rjit.Driver.Budget_exceeded -> "budget"
  | Mtj_rjit.Driver.Runtime_error e -> "failed:" ^ e

let is_failed status = String.starts_with ~prefix:"failed" status
