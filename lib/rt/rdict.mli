(** Insertion-ordered hash dictionary (RPython's [rordereddict]).

    A dense entries array preserving insertion order plus an
    open-addressing index table, as in PyPy/CPython 3.6+.  The probe loop
    is the paper's [rordereddict.ll_call_lookup_function] — the single
    most commonly significant AOT function in Table III.  Every probe
    step touches the cache model and emits a comparison branch, so
    dict-heavy workloads (django, genshi, bm_mdp) show the memory-bound,
    call-heavy profile the paper reports.

    Sets reuse this storage with a dummy value (as CPython/PyPy do not —
    they specialize — but our set strategies charge their own costs). *)

val lookup_fn : Aot.fn
(** The registered [rordereddict.ll_call_lookup_function] handle. *)

val create : Ctx.t -> Value.dict
(** Fresh empty dictionary storage (8 entries, 16 index slots). *)

val length : Value.dict -> int

val get : Ctx.t -> Value.dict -> Value.t -> Value.t option
val set : Ctx.t -> Value.obj -> Value.dict -> Value.t -> Value.t -> unit
(** [set ctx owner d k v]: insert or update.  [owner] is the heap object
    holding [d], needed for the GC write barrier and resize accounting. *)

val delete : Ctx.t -> Value.dict -> Value.t -> bool
(** Remove a key; returns whether it was present. *)

val contains : Ctx.t -> Value.dict -> Value.t -> bool

val iter : Value.dict -> (Value.t -> Value.t -> unit) -> unit
(** In insertion order, live entries only. *)

val keys : Value.dict -> Value.t list
(** In insertion order. *)

val nth_live : Value.dict -> int -> (Value.t * Value.t) option
(** [nth_live d i]: the [i]-th live entry in insertion order (used by
    dict iterators). *)
