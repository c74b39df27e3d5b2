(** Shared, domain-safe cache of context-free compiled artifacts: the
    cross-context tier behind the multi-tenant serving harness.

    Sharded-lock hash map, first-writer-wins publication (of bundles
    and of the {!Traceprofile.t} a publisher attaches after its run),
    optional per-shard LRU eviction against a global capacity, and
    per-tenant publication quotas.  Statistics are per-shard fields
    mutated under the shard lock and summed lock-by-lock at read time,
    so {!stats} snapshots are never torn by concurrent publishes.  Only
    immutable, context-free artifacts may be published — see DESIGN.md
    §3k for the protocol and the domain-safety argument, §3m for
    profile seeding and eviction. *)

type entry = ..
(** Extensible payload type; language layers add their bundle
    constructors (e.g. a compiled-program bundle of immutable bytecode
    objects). *)

type t

type stats = {
  shared_hits : int;   (** hits on entries published by another context *)
  local_hits : int;    (** hits on entries the looking-up context published *)
  misses : int;
  publications : int;  (** first-writer-wins successes *)
  invalidations : int;
  evictions : int;     (** LRU victims of over-capacity publications *)
  requeues : int;      (** publications of previously evicted keys *)
  quota_rejections : int;
      (** publications refused because the tenant was at its quota *)
  profile_publications : int;  (** trace profiles attached to entries *)
  seeded_imports : int;
      (** {!find_with_profile} hits that also returned a profile *)
  contention : int;    (** shard locks found held (try_lock failed) *)
}

type pub_result =
  | Published       (** this call bound the key *)
  | Exists          (** the key was already bound (first writer won) *)
  | Quota_rejected  (** the tenant is at its live-entry quota *)

val create : ?shards:int -> ?capacity:int -> ?tenant_quota:int -> unit -> t
(** Fresh cache with [shards] lock shards (rounded up to a power of
    two; default 16).  [capacity] bounds the total entry count
    (0 = unbounded, the default): it is distributed over the shards and
    each shard LRU-evicts within its slice, so the global size never
    exceeds [capacity]; when [capacity] is smaller than the shard
    count, the shard count is lowered so every shard holds at least one
    entry.  [tenant_quota] bounds the live entries any one tenant may
    hold (0 = unbounded).  Raises [Invalid_argument] on negative
    [capacity] or [tenant_quota]. *)

val key : lang:string -> program:string -> config_digest:string -> string
(** The publication key: artifacts are valid only for the exact
    (language, program, configuration) triple that produced them. *)

val find_with_profile :
  t -> ctx_uid:int -> string -> (entry * Traceprofile.t option) option
(** Look up a key and its attached trace profile (if any).  Counts a
    shared or local hit depending on whether [ctx_uid] is the publisher,
    or a miss; a hit that carries a profile is also counted as a seeded
    import.  A hit refreshes the entry's LRU position. *)

val publish : t -> ctx_uid:int -> ?tenant:string -> string -> entry -> pub_result
(** Bind a key to an artifact unless it is already bound (first writer
    wins).  Concurrent cold requests may race here — exactly one wins,
    and every later reader sees that artifact.  On a bounded cache a
    publication into a full shard first evicts the shard's
    least-recently-used entry; re-publication of a previously evicted
    key additionally counts a requeue.  With a [tenant] and a nonzero
    quota, a tenant at its live-entry quota gets [Quota_rejected]. *)

val attach_profile : t -> string -> Traceprofile.t -> bool
(** Attach a trace profile to a published entry (first writer wins;
    returns whether this call attached).  No-op when the key is absent
    or already profiled; empty profiles are never attached.  Only
    {e unseeded} runs may export the profile they attach — their
    execution is a deterministic function of the key, so every
    candidate profile is byte-identical and the race is benign. *)

val invalidate : t -> string -> unit
(** Drop a key (counted in {!stats}); no-op when absent.  Releases the
    publishing tenant's quota slot. *)

val size : t -> int

val recency : t -> string list list
(** Per-shard keys ordered most-recently-used first, in shard-index
    order — test introspection for the LRU fixture. *)

val stats : t -> stats
(** Consistent snapshot of the counters (summed shard by shard under
    each shard's lock). *)
