(** A hosted language's registry of compiled code objects, resolving the
    [code_ref]s carried by function values and resume snapshots.  Each
    language applies {!Make} once ([Mtj_pylite.Code_table],
    [Mtj_rklite.Kcode_table]), and each application owns its store.

    The store is domain-local: a VM is created, compiled and run on one
    domain, and resolves only its own code objects, so domains never
    share entries (and never race).  {!S.reset} — called from the VM's
    [create] — restarts the id sequence at the language's [first_id],
    which matters because code ids feed branch-predictor site hashes in
    the driver: with a per-VM id sequence, a run's simulated behaviour
    is independent of whatever ran before it, on any domain.  Entries of
    a previous VM on the same domain are dropped by the reset; they are
    unreachable by then (a VM only resolves code_refs while it runs). *)

module type CODE = sig
  type code

  val id : code -> int
  val first_id : int
  (** where the id sequence (re)starts; ids of different languages are
      disjoint, and the sequence feeds predictor site hashes, so it is
      part of the simulated behaviour *)

  val lang : string
  (** the language's name, for error messages *)
end

module type S = sig
  type code

  type threaded = (Direct_ops.t, code) Threaded.step array
  (** a code object's threaded-dispatch translation (see {!Threaded}) *)

  val reset : unit -> unit
  val fresh_id : unit -> int
  val register : code -> unit

  val lookup : int -> code
  (** raises [Invalid_argument] for a code_ref this domain's store does
      not hold *)

  val lookup_threaded : code -> threaded option
  val store_threaded : code -> threaded -> unit

  val export_bundle : unit -> code list * int
  (** every registered code object, sorted by id, and the id watermark *)

  val import_bundle : code list -> next_id:int -> unit
  (** replace the store's contents with an exported bundle *)
end

module Make (C : CODE) : S with type code = C.code = struct
  type code = C.code
  type threaded = (Direct_ops.t, code) Threaded.step array

  type store = {
    table : (int, code) Hashtbl.t;
    threaded : (int, threaded) Hashtbl.t;
        (* translate-once cache, keyed by code id.  Step closures bind
           the translating VM's engine and context, so this cache MUST
           be dropped whenever the id sequence restarts — [reset] clears
           it together with the code table. *)
    mutable next_id : int;
  }

  let store_key : store Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        { table = Hashtbl.create 256; threaded = Hashtbl.create 64;
          next_id = C.first_id })

  let reset () =
    let s = Domain.DLS.get store_key in
    Hashtbl.reset s.table;
    Hashtbl.reset s.threaded;
    s.next_id <- C.first_id

  let fresh_id () =
    let s = Domain.DLS.get store_key in
    let id = s.next_id in
    s.next_id <- id + 1;
    id

  let register c = Hashtbl.replace (Domain.DLS.get store_key).table (C.id c) c

  let lookup id =
    match Hashtbl.find_opt (Domain.DLS.get store_key).table id with
    | Some c -> c
    | None -> invalid_arg (Printf.sprintf "unknown %s code_ref %d" C.lang id)

  let lookup_threaded c =
    Hashtbl.find_opt (Domain.DLS.get store_key).threaded (C.id c)

  let store_threaded c s =
    Hashtbl.replace (Domain.DLS.get store_key).threaded (C.id c) s

  (* --- compiled-program bundles (the shared serving cache) ---

     Bytecode is immutable and its constants are immediate scalars, so a
     freshly compiled program's store contents — every code object plus
     the id watermark — form a context-free artifact that can cross
     domains.  [export_bundle] snapshots them right after a fresh
     reset+compile; [import_bundle] rebuilds an identical store on any
     domain, so a warm request resolves the very same code_refs a cold
     compile would have produced (ids are deterministic because the
     sequence always restarts at [first_id]).  The threaded cache is
     dropped on import for the usual reason: step closures bind the
     translating VM's context and must never be reused across VMs. *)

  let export_bundle () =
    let s = Domain.DLS.get store_key in
    let codes = Hashtbl.fold (fun _ c acc -> c :: acc) s.table [] in
    (List.sort (fun a b -> compare (C.id a) (C.id b)) codes, s.next_id)

  let import_bundle codes ~next_id =
    let s = Domain.DLS.get store_key in
    Hashtbl.reset s.table;
    Hashtbl.reset s.threaded;
    List.iter (fun c -> Hashtbl.replace s.table (C.id c) c) codes;
    s.next_id <- next_id
end
