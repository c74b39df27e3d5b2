(** The shared, domain-safe JIT artifact cache behind the serving
    harness (ROADMAP item 1: tenant N amortizes tenant 1's warmup).

    A sharded-lock hash map from publication keys to {e context-free}
    compiled artifacts.  Languages extend {!entry} with their bundle
    types (pylite/rklite publish whole compiled-program bundles: the
    immutable bytecode objects a source string compiles to, plus the
    code-id watermark).  Alongside each bundle the publisher may attach
    a {!Traceprofile.t} — the hotness it learned about the program —
    which warm importers use to seed their own drivers.  The
    publication/invalidation protocol is specified in DESIGN.md §3k;
    profile seeding and eviction in §3m.

    Domain-safety rests on two rules enforced at the publication sites:

    - {b only immutable, context-free values are published.}  Bytecode
      (instruction arrays, scalar constants, header bitmaps) and trace
      profiles (sorted code_ref/pc integer lists) qualify; trace step
      closures and threaded interpreter step arrays do NOT — they close
      over the translating context's engine/GC, so sharing them would
      leak simulated state across requests (the same audit that made
      {!Mtj_rt.Ctx.code_cache} per-context).
    - {b first writer wins} — for bundles AND profiles.  A key's
      artifact is never overwritten, so concurrent readers always
      observe the same artifact; a profile is attached at most once,
      and only unseeded runs export profiles, so every candidate
      profile for a key is byte-identical and the race is benign.

    The cache is optionally {b bounded}: a global [capacity] is
    distributed over the shards and each shard evicts its
    least-recently-used entry when a publication would overflow its
    slice (a per-shard LRU approximates a global one without a global
    lock).  Re-publication of a previously evicted key is counted as a
    requeue.  Per-tenant publication quotas bound how many live entries
    any one tenant may hold; an over-quota publication is rejected and
    counted.

    Statistics are per-shard plain fields mutated under the shard lock
    and summed lock-by-lock at read time, so a {!stats} snapshot is
    never a torn multi-field read against a concurrent publish. *)

type entry = ..
(* extensible so language layers can publish without this module (or
   the context) depending on them; mirrors [Mtj_rt.Ctx.code] *)

type slot = {
  publisher : int;  (* Ctx.uid of the publishing context *)
  tenant : string;  (* quota owner of this entry *)
  payload : entry;
  mutable profile : Traceprofile.t option;
      (* attached after the publisher's (unseeded) run finished *)
  mutable stamp : int;  (* per-shard LRU clock value of the last touch *)
}

type shard = {
  lock : Mutex.t;
  tbl : (string, slot) Hashtbl.t;
  evicted : (string, unit) Hashtbl.t;
      (* keys this shard has evicted at least once — requeue detection *)
  cap : int;  (* this shard's slice of the global capacity; 0 = unbounded *)
  mutable clock : int;
  (* statistics: mutated under [lock] only, so a reader holding the
     lock sees a consistent snapshot (never a torn multi-field read) *)
  mutable c_shared_hits : int;
  mutable c_local_hits : int;
  mutable c_misses : int;
  mutable c_publications : int;
  mutable c_invalidations : int;
  mutable c_evictions : int;
  mutable c_requeues : int;
  mutable c_quota_rejections : int;
  mutable c_profile_publications : int;
  mutable c_seeded_imports : int;
  mutable c_contention : int;
}

type t = {
  shards : shard array;
  mask : int;
  quota : int;  (* max live entries per tenant; 0 = unbounded *)
  tlock : Mutex.t;
      (* guards [tenants]; lock order is shard lock first, then
         [tlock], everywhere — never the reverse *)
  tenants : (string, int) Hashtbl.t;  (* live entries per tenant *)
}

(* --- statistics --- *)

type stats = {
  shared_hits : int;      (** hits on entries published by another context *)
  local_hits : int;       (** hits on entries this context published *)
  misses : int;
  publications : int;     (** first-writer-wins successes *)
  invalidations : int;
  evictions : int;        (** LRU victims of over-capacity publications *)
  requeues : int;         (** publications of previously evicted keys *)
  quota_rejections : int; (** publications refused by the tenant quota *)
  profile_publications : int;  (** trace profiles attached to entries *)
  seeded_imports : int;   (** hits that also returned a trace profile *)
  contention : int;       (** shard locks found held (try_lock failed) *)
}

(* --- the map --- *)

let create ?(shards = 16) ?(capacity = 0) ?(tenant_quota = 0) () =
  if capacity < 0 then invalid_arg "Sharedcache.create: capacity < 0";
  if tenant_quota < 0 then invalid_arg "Sharedcache.create: tenant_quota < 0";
  (* power of two so [land mask] shards *)
  let n = max 1 shards in
  let n =
    let rec up p = if p >= n then p else up (p * 2) in
    up 1
  in
  (* a bounded cache never uses more shards than it has capacity, so
     every shard's slice holds at least one entry *)
  let n =
    if capacity = 0 then n
    else
      let rec down p = if p <= capacity then p else down (p / 2) in
      down n
  in
  let shard_cap i =
    if capacity = 0 then 0
    else (capacity / n) + (if i < capacity mod n then 1 else 0)
  in
  {
    shards =
      Array.init n (fun i ->
          {
            lock = Mutex.create ();
            tbl = Hashtbl.create 32;
            evicted = Hashtbl.create 8;
            cap = shard_cap i;
            clock = 0;
            c_shared_hits = 0;
            c_local_hits = 0;
            c_misses = 0;
            c_publications = 0;
            c_invalidations = 0;
            c_evictions = 0;
            c_requeues = 0;
            c_quota_rejections = 0;
            c_profile_publications = 0;
            c_seeded_imports = 0;
            c_contention = 0;
          });
    mask = n - 1;
    quota = tenant_quota;
    tlock = Mutex.create ();
    tenants = Hashtbl.create 16;
  }

let shard_of t key = t.shards.(Hashtbl.hash key land t.mask)

(* lock a shard, counting contention when the lock is already held —
   the serving harness exports this as its cache-contention counter.
   The count itself is bumped under the lock, like every other field. *)
let with_shard (s : shard) f =
  if not (Mutex.try_lock s.lock) then begin
    Mutex.lock s.lock;
    s.c_contention <- s.c_contention + 1
  end;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

let with_tenants t f =
  Mutex.lock t.tlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.tlock) f

let stats t =
  (* per-shard snapshot under each shard's lock, summed in index order:
     a concurrent publish can interleave BETWEEN shards (the counters
     keep counting) but never tear one shard's multi-field read *)
  let z =
    ref
      {
        shared_hits = 0; local_hits = 0; misses = 0; publications = 0;
        invalidations = 0; evictions = 0; requeues = 0;
        quota_rejections = 0; profile_publications = 0; seeded_imports = 0;
        contention = 0;
      }
  in
  Array.iter
    (fun s ->
      with_shard s (fun () ->
          let a = !z in
          z :=
            {
              shared_hits = a.shared_hits + s.c_shared_hits;
              local_hits = a.local_hits + s.c_local_hits;
              misses = a.misses + s.c_misses;
              publications = a.publications + s.c_publications;
              invalidations = a.invalidations + s.c_invalidations;
              evictions = a.evictions + s.c_evictions;
              requeues = a.requeues + s.c_requeues;
              quota_rejections = a.quota_rejections + s.c_quota_rejections;
              profile_publications =
                a.profile_publications + s.c_profile_publications;
              seeded_imports = a.seeded_imports + s.c_seeded_imports;
              contention = a.contention + s.c_contention;
            }))
    t.shards;
  !z

(** [key ~lang ~program ~config_digest] — the publication key: artifacts
    are valid only for the exact (language, program, configuration)
    triple that produced them. *)
let key ~lang ~program ~config_digest =
  Printf.sprintf "%s:%s:%s" lang program config_digest

let touch (s : shard) (sl : slot) =
  s.clock <- s.clock + 1;
  sl.stamp <- s.clock

(** Look up a key and its attached trace profile (if any).  Counts a
    shared or local hit depending on whether [ctx_uid] is the publisher,
    or a miss; a hit that carries a profile is also counted as a seeded
    import, and refreshes the entry's LRU position. *)
let find_with_profile t ~ctx_uid k : (entry * Traceprofile.t option) option =
  let s = shard_of t k in
  with_shard s (fun () ->
      match Hashtbl.find_opt s.tbl k with
      | Some sl ->
          if sl.publisher = ctx_uid then s.c_local_hits <- s.c_local_hits + 1
          else s.c_shared_hits <- s.c_shared_hits + 1;
          if sl.profile <> None then
            s.c_seeded_imports <- s.c_seeded_imports + 1;
          touch s sl;
          Some (sl.payload, sl.profile)
      | None ->
          s.c_misses <- s.c_misses + 1;
          None)

type pub_result = Published | Exists | Quota_rejected

(* drop the shard's least-recently-used slot (smallest stamp); caller
   holds the shard lock *)
let evict_lru t (s : shard) =
  let victim = ref None in
  Hashtbl.iter
    (fun k (sl : slot) ->
      match !victim with
      | Some (_, best) when best.stamp <= sl.stamp -> ()
      | _ -> victim := Some (k, sl))
    s.tbl;
  match !victim with
  | None -> ()
  | Some (k, sl) ->
      Hashtbl.remove s.tbl k;
      Hashtbl.replace s.evicted k ();
      s.c_evictions <- s.c_evictions + 1;
      with_tenants t (fun () ->
          match Hashtbl.find_opt t.tenants sl.tenant with
          | Some n when n > 1 -> Hashtbl.replace t.tenants sl.tenant (n - 1)
          | Some _ -> Hashtbl.remove t.tenants sl.tenant
          | None -> ())

(** First writer wins: publishing under a key that is already bound
    leaves the existing entry in place and returns [Exists].  Concurrent
    cold requests for the same program may race here; exactly one
    publication succeeds and every later reader sees that artifact.

    On a bounded cache, a publication into a full shard first evicts the
    shard's least-recently-used entry (counted); re-publication of a
    previously evicted key additionally counts a requeue.  When the
    tenant already holds [tenant_quota] live entries the publication is
    rejected ([Quota_rejected], counted) and the cache is unchanged. *)
let publish t ~ctx_uid ?(tenant = "") k (payload : entry) : pub_result =
  let s = shard_of t k in
  with_shard s (fun () ->
      if Hashtbl.mem s.tbl k then Exists
      else begin
        let admitted =
          t.quota = 0 || tenant = ""
          || with_tenants t (fun () ->
                 let n =
                   Option.value ~default:0 (Hashtbl.find_opt t.tenants tenant)
                 in
                 if n >= t.quota then false
                 else begin
                   Hashtbl.replace t.tenants tenant (n + 1);
                   true
                 end)
        in
        if not admitted then begin
          s.c_quota_rejections <- s.c_quota_rejections + 1;
          Quota_rejected
        end
        else begin
          if s.cap > 0 then
            while Hashtbl.length s.tbl >= s.cap do
              evict_lru t s
            done;
          let sl = { publisher = ctx_uid; tenant; payload; profile = None;
                     stamp = 0 } in
          touch s sl;
          Hashtbl.replace s.tbl k sl;
          s.c_publications <- s.c_publications + 1;
          if Hashtbl.mem s.evicted k then begin
            Hashtbl.remove s.evicted k;
            s.c_requeues <- s.c_requeues + 1
          end;
          Published
        end
      end)

(** Attach a trace profile to a published entry (first writer wins;
    returns whether this call attached).  No-op when the key is absent
    (it may have been evicted between the publication and the end of
    the publisher's run) or already profiled.  Empty profiles are not
    attached — a seeded import must have something to seed. *)
let attach_profile t k (p : Traceprofile.t) : bool =
  if Traceprofile.is_empty p then false
  else
    let s = shard_of t k in
    with_shard s (fun () ->
        match Hashtbl.find_opt s.tbl k with
        | Some sl when sl.profile = None ->
            sl.profile <- Some p;
            s.c_profile_publications <- s.c_profile_publications + 1;
            true
        | Some _ | None -> false)

(** Drop a key (counted).  The serving harness invalidates a program's
    entry when a request for it fails, so a corrupt artifact cannot be
    served to later tenants.  The tenant's live count is released. *)
let invalidate t k =
  let s = shard_of t k in
  with_shard s (fun () ->
      match Hashtbl.find_opt s.tbl k with
      | Some sl ->
          Hashtbl.remove s.tbl k;
          s.c_invalidations <- s.c_invalidations + 1;
          with_tenants t (fun () ->
              match Hashtbl.find_opt t.tenants sl.tenant with
              | Some n when n > 1 ->
                  Hashtbl.replace t.tenants sl.tenant (n - 1)
              | Some _ -> Hashtbl.remove t.tenants sl.tenant
              | None -> ())
      | None -> ())

let size t =
  Array.fold_left
    (fun acc s -> acc + with_shard s (fun () -> Hashtbl.length s.tbl))
    0 t.shards

(** Per-shard keys ordered most-recently-used first — test introspection
    for the LRU fixture; one list per shard, in shard-index order. *)
let recency t =
  Array.to_list
    (Array.map
       (fun s ->
         with_shard s (fun () ->
             let rows =
               Hashtbl.fold (fun k (sl : slot) acc -> (sl.stamp, k) :: acc)
                 s.tbl []
             in
             List.map snd
               (List.sort (fun (a, _) (b, _) -> compare b a) rows)))
       t.shards)
