(** A hosted language's virtual machine, written once for every
    language: per-VM context, globals and JIT driver; compile and run;
    compiled-program bundles for the shared serving cache; trace-profile
    export and seeding.  A language supplies its {!Threaded.LANG}
    accessors, its {!Code_registry} instance, its compiler and the
    globals every program starts with ([Mtj_pylite.Vm],
    [Mtj_rklite.Kvm]). *)

open Mtj_core
open Mtj_rt

module Make
    (L : Threaded.LANG)
    (Codes : Code_registry.S with type code = L.code)
    (F : sig
      val compile : string -> L.code
      (** raises the frontend's syntax or compile error *)

      val install_globals : Ctx.t -> Globals.t -> unit
      (** define the language's predefined globals in a fresh VM *)
    end) =
struct
  module D = Driver.Make (L)

  type t = { rtc : Ctx.t; driver : D.t }

  let create ?(config = Config.default) ?(profile = Profile.rpython_interp) ()
      =
    (* fresh per-VM code-id sequence: simulated behaviour must not
       depend on what compiled before us on this domain (see
       Code_registry) *)
    Codes.reset ();
    let rtc = Ctx.create ~config () in
    let globals = Globals.create () in
    F.install_globals rtc globals;
    { rtc; driver = D.create ~profile rtc globals }

  let rtc t = t.rtc
  let engine t = Ctx.engine t.rtc
  let jitlog t = D.jitlog t.driver
  let globals t = D.globals t.driver
  let output t = Buffer.contents (Ctx.out t.rtc)
  let compile = F.compile
  let run_code t code : Driver.outcome = D.run t.driver code
  let run_source t src = run_code t (compile src)

  (* --- compiled-program bundles (the shared serving cache) ---

     A bundle is everything one source string compiles to: the entry
     code object, every code object it registered, and the id
     watermark.  All of it is immutable bytecode with scalar constants,
     so a bundle is context-free and may be published to {!Sharedcache}
     and imported by a VM on any domain.  Importing reproduces exactly
     the registry state a fresh compile would have built (ids restart
     per VM), so a warm request's simulated behaviour is byte-identical
     to a cold one's: compilation itself charges nothing to the
     simulated machine, only host wall time. *)

  type bundle = {
    b_entry : L.code;
    b_codes : L.code list;  (* sorted by id; includes [b_entry] *)
    b_next_id : int;
  }

  let bundle_size b = List.length b.b_codes

  let compile_bundle src =
    let entry = compile src in
    let codes, next_id = Codes.export_bundle () in
    { b_entry = entry; b_codes = codes; b_next_id = next_id }

  (* must run after [create] (which reset the registry) and before the
     VM executes anything that resolves a code_ref *)
  let import_bundle (_ : t) b =
    Codes.import_bundle b.b_codes ~next_id:b.b_next_id

  let run_bundle t b : Driver.outcome = run_code t b.b_entry

  (* trace-profile seeding (DESIGN.md §3m): export after an unseeded
     run, seed a fresh importer before it executes anything *)
  let export_profile t = D.export_profile t.driver
  let seed_profile t p = D.seed_profile t.driver p

  let run ?config ?profile src =
    let t = create ?config ?profile () in
    let outcome = run_source t src in
    (outcome, t)
end
