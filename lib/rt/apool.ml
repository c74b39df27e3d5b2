(** Array pool: free lists of equal-length arrays, bucketed by exact
    length.

    Backs the per-context frame pools — interpreter frames die in LIFO
    order at a very high rate, and their locals/stack arrays are the
    dominant host allocation of the dispatch loop.  Buckets are keyed by
    EXACT length (not a size class rounded up) because frame code relies
    on [Array.length f.locals = nlocals] to recover the local count.

    Reuse contract: {!release} re-fills the array with the pool's
    default element before shelving it, so an acquired array is
    indistinguishable from a fresh [Array.make n default] — no stale
    values leak between frames, and the host GC cannot be kept from
    collecting values the simulation has dropped.  Callers must not
    touch an array after releasing it.

    A disabled pool ([enabled = false]) degrades to plain allocation:
    {!acquire} is [Array.make] and {!release} a no-op, so call sites
    stay unconditional and the disabled mode exercises the exact same
    code path minus the free lists.  Production always enables the
    pool; [Config.frame_pool = false] selects the disabled mode as the
    oracle the differential suites compare against. *)

type 'a t = {
  default : 'a;
  max_len : int;  (* lengths above this are never pooled *)
  buckets : 'a array list array;  (* index = array length, 0..max_len *)
  enabled : bool;
  stats : Hstats.t;
}

let create ?(max_len = 64) ~enabled ~stats default =
  { default; max_len; buckets = Array.make (max_len + 1) []; enabled; stats }

let enabled t = t.enabled

let acquire t n =
  if t.enabled && n <= t.max_len then
    match t.buckets.(n) with
    | arr :: rest ->
        t.buckets.(n) <- rest;
        t.stats.Hstats.frame_pool_reuses <-
          t.stats.Hstats.frame_pool_reuses + 1;
        arr
    | [] -> Array.make n t.default
  else Array.make n t.default

let release t arr =
  if t.enabled then begin
    let n = Array.length arr in
    if n <= t.max_len then begin
      Array.fill arr 0 n t.default;
      t.buckets.(n) <- arr :: t.buckets.(n)
    end
  end
