(** Registry of compiled rklite code objects (see
    {!Mtj_rjit.Code_registry}).  Ids start at 1_000_000, disjoint from
    pylite ids. *)

include Mtj_rjit.Code_registry.Make (struct
  type code = Kbytecode.code

  let id (c : code) = c.Kbytecode.id
  let first_id = 1_000_000
  let lang = "rklite"
end)
