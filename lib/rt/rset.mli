(** Set operations over dict-backed set storage (PyPy's set strategies).

    [meteor_contest] in Table III spends >55% of its time in
    [BytesSetStrategy_difference_unwrapped] and
    [BytesSetStrategy_issubset_unwrapped]; these are those functions. *)

val create : Ctx.t -> Value.t list -> Value.obj
val length : Value.dict -> int
val add : Ctx.t -> Value.obj -> Value.t -> unit
val contains : Ctx.t -> Value.dict -> Value.t -> bool
val remove : Ctx.t -> Value.obj -> Value.t -> bool
val difference : Ctx.t -> Value.obj -> Value.obj -> Value.obj
val union : Ctx.t -> Value.obj -> Value.obj -> Value.obj
val intersection : Ctx.t -> Value.obj -> Value.obj -> Value.obj
val issubset : Ctx.t -> Value.obj -> Value.obj -> bool
val elements : Value.dict -> Value.t list
val of_obj : Value.obj -> Value.dict
