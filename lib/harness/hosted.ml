(** The hosted-language VMs the harness drives, pylite and rklite,
    behind one signature, so the runner, the serving harness and the
    CLI each write their path once for both languages. *)

module B = Mtj_benchmarks.Registry

module type VM = sig
  type t
  type bundle

  (* the language's shared-cache entry; an entry of the other language
     never matches it *)
  type Mtj_rjit.Sharedcache.entry += Bundle of bundle

  val create :
    ?config:Mtj_core.Config.t -> ?profile:Mtj_core.Profile.t -> unit -> t

  val run_source : t -> string -> Mtj_rjit.Driver.outcome
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

module Py : VM = struct
  include Mtj_pylite.Vm

  type Mtj_rjit.Sharedcache.entry += Bundle of bundle
end

module Rk : VM = struct
  include Mtj_rklite.Kvm

  type Mtj_rjit.Sharedcache.entry += Bundle of bundle
end

let vm : B.lang -> (module VM) = function
  | B.Py -> (module Py)
  | B.Rk -> (module Rk)

let name = function B.Py -> "py" | B.Rk -> "rk"
