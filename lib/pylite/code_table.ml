(** Registry of compiled pylite code objects (see
    {!Mtj_rjit.Code_registry}); ids start at zero. *)

include Mtj_rjit.Code_registry.Make (struct
  type code = Bytecode.code

  let id (c : code) = c.Bytecode.id
  let first_id = 0
  let lang = "pylite"
end)
