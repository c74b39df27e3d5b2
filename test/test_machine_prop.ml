(** Property-based tests for the machine models.

    Random access/branch streams drive the data-cache, the branch
    predictor and the engine counters, checking the invariants every
    downstream table relies on: conservation (hits + misses = accesses,
    per-phase counters sum to the totals), monotonicity under more work,
    rates staying inside [0, 1], and the predictor actually learning a
    fully-biased branch stream. *)

module M = Mtj_machine
module Counters = M.Counters
module Phase = Mtj_core.Phase

let seeded_rng seed = Random.State.make [| seed; 0x6d74 |]

(* --- dcache --- *)

let prop_dcache_conservation =
  QCheck.Test.make ~count:100 ~name:"dcache: hits + misses = accesses"
    QCheck.(pair small_int (list small_int))
    (fun (seed, addrs) ->
      let rng = seeded_rng seed in
      let c = M.Dcache.create () in
      let n = ref 0 in
      List.iter
        (fun a ->
          (* mix a few hot lines with cold sweeps *)
          let addr =
            if Random.State.bool rng then a land 0xff
            else (a * 6151) + Random.State.int rng 1_000_000
          in
          ignore (M.Dcache.access c ~addr);
          incr n)
        addrs;
      let hits = M.Dcache.hits c and misses = M.Dcache.misses c in
      let rate =
        if !n = 0 then 0.0 else float_of_int hits /. float_of_int !n
      in
      hits >= 0 && misses >= 0
      && hits + misses = !n
      && rate >= 0.0 && rate <= 1.0)

let prop_dcache_rehit =
  QCheck.Test.make ~count:100 ~name:"dcache: immediate re-access hits"
    QCheck.(list small_int)
    (fun addrs ->
      let c = M.Dcache.create () in
      List.for_all
        (fun a ->
          ignore (M.Dcache.access c ~addr:a);
          M.Dcache.access c ~addr:a)
        addrs)

(* --- predictor --- *)

let prop_predictor_biased =
  QCheck.Test.make ~count:50
    ~name:"predictor: fully-biased stream mispredicts <1%"
    QCheck.(pair small_int bool)
    (fun (site, taken) ->
      let p = M.Predictor.create () in
      let n = 10_000 in
      let miss = ref 0 in
      for _ = 1 to n do
        if not (M.Predictor.conditional p ~site ~taken) then incr miss
      done;
      (* warmup only: the 2-bit counters and the global history settle
         within a few tens of branches *)
      !miss * 100 < n)

let prop_predictor_btb_stable =
  QCheck.Test.make ~count:50
    ~name:"predictor: monomorphic indirect target locks in"
    QCheck.(pair small_int small_int)
    (fun (site, target) ->
      let p = M.Predictor.create () in
      (* warm up: the BTB index mixes in global history, which converges
         to a fixed point under a constant target stream *)
      for _ = 1 to 100 do
        ignore (M.Predictor.indirect p ~site ~target)
      done;
      let ok = ref true in
      for _ = 1 to 100 do
        if not (M.Predictor.indirect p ~site ~target) then ok := false
      done;
      !ok)

(* An independent predictor, written from the rules predictor.ml
   documents, with its default sizes: a local-history (PAg) conditional
   predictor whose per-site histories (1024 entries of 10 bits) index
   one table of 2^14 two-bit counters, each starting weakly taken, and a
   2^11-entry BTB indexed by site and the last 7 bits of a 12-bit global
   path history.  A conditional branch shifts its outcome into the
   global history, an indirect branch the low 3 bits of its target.  It
   keeps counters in an int array and saturates them with Stdlib's
   [min] and [max], so it shares no code with the library's update. *)
module Ref_predictor = struct
  type t = {
    counters : int array;
    local : int array;
    btb : int array;
    mutable global : int;
  }

  let create () =
    {
      counters = Array.make (1 lsl 14) 2;
      local = Array.make 1024 0;
      btb = Array.make (1 lsl 11) (-1);
      global = 0;
    }

  let hash site = (site * 2654435761) land max_int

  let conditional r ~site ~taken =
    let h = hash site in
    let l = h mod 1024 in
    let i = (h lxor (r.local.(l) * 7919)) mod (1 lsl 14) in
    let c = r.counters.(i) in
    r.counters.(i) <- (if taken then min 3 (c + 1) else max 0 (c - 1));
    let bit = if taken then 1 else 0 in
    r.local.(l) <- ((r.local.(l) * 2) + bit) mod 1024;
    r.global <- ((r.global * 2) + bit) mod (1 lsl 12);
    (c >= 2) = taken

  let indirect r ~site ~target =
    let i = (hash site lxor ((r.global mod 128) * 31)) mod (1 lsl 11) in
    let correct = r.btb.(i) = target in
    r.btb.(i) <- target;
    r.global <- ((r.global * 8) + (target land 7)) mod (1 lsl 12);
    correct
end

type branch = Cond of int * bool | Ind of int * int

(* runs of one outcome, up to 24 long, so the counters a site's
   all-taken and all-not-taken histories select saturate at 3 and 0,
   mixed with indirect branches over a few sites and targets *)
let branches_gen =
  QCheck.Gen.(
    map List.concat
      (list_size (int_range 0 120)
         (frequency
            [
              ( 3,
                map3
                  (fun site taken n -> List.init n (fun _ -> Cond (site, taken)))
                  (int_bound 5) bool (int_range 1 24) );
              (2, map2 (fun site target -> [ Ind (site, target) ]) (int_bound 5)
                    (int_bound 11));
            ])))

let print_branch = function
  | Cond (site, taken) -> Printf.sprintf "C%d%c" site (if taken then 'T' else 'N')
  | Ind (site, target) -> Printf.sprintf "I%d>%d" site target

(* After the stream, each site in turn: 24 taken, then four rounds of 10
   taken and 1 not taken, whose not-taken branch meets the counter the
   24 saturated; then the same with the directions swapped. *)
let probe_sequence =
  List.concat_map
    (fun site ->
      let run taken n = List.init n (fun _ -> Cond (site, taken)) in
      let rounds taken =
        run taken 24
        @ List.concat (List.init 4 (fun _ -> run taken 10 @ run (not taken) 1))
      in
      rounds true @ rounds false @ [ Ind (site, site); Ind (site, site) ])
    [ 0; 1; 2; 3; 4; 5 ]

let prop_predictor_reference =
  QCheck.Test.make ~count:200
    ~name:"predictor: every prediction matches an independent reference"
    (QCheck.make branches_gen ~print:(fun bs ->
         String.concat " " (List.map print_branch bs)))
    (fun bs ->
      let p = M.Predictor.create () and r = Ref_predictor.create () in
      List.for_all
        (function
          | Cond (site, taken) ->
              M.Predictor.conditional p ~site ~taken
              = Ref_predictor.conditional r ~site ~taken
          | Ind (site, target) ->
              M.Predictor.indirect p ~site ~target
              = Ref_predictor.indirect r ~site ~target)
        (bs @ probe_sequence))

(* --- engine counters --- *)

type work = Emit of int | Branch of bool | Mem of int * bool

let work_gen =
  QCheck.Gen.(
    list_size (int_range 0 300)
      (oneof
         [
           map (fun n -> Emit (1 + (n mod 7))) small_nat;
           map (fun b -> Branch b) bool;
           map2 (fun a w -> Mem (a, w)) small_nat bool;
         ]))

let arb_work =
  QCheck.make work_gen
    ~print:(fun ws -> Printf.sprintf "<%d work items>" (List.length ws))

let apply_work eng w =
  match w with
  | Emit n -> M.Engine.emit eng (Mtj_core.Cost.make ~alu:n ())
  | Branch taken -> M.Engine.branch eng ~site:3 ~taken
  | Mem (addr, write) -> M.Engine.mem_access eng ~addr ~write

let prop_counters_conserved =
  QCheck.Test.make ~count:100
    ~name:"engine: totals = sum of charges, phases sum to total" arb_work
    (fun ws ->
      let eng = M.Engine.create () in
      (* spread the work over two phases so the per-phase sum is
         non-trivial *)
      let i = ref 0 in
      let expected_insns = ref 0 in
      let expected_branches = ref 0 in
      let expected_mem = ref 0 in
      List.iter
        (fun w ->
          incr i;
          (match w with
          | Emit n -> expected_insns := !expected_insns + n
          | Branch _ ->
              incr expected_branches;
              incr expected_insns
          | Mem _ ->
              incr expected_mem;
              incr expected_insns);
          if !i mod 2 = 0 then
            M.Engine.in_phase eng Phase.Jit (fun () -> apply_work eng w)
          else apply_work eng w)
        ws;
      let t = Counters.total (M.Engine.counters eng) in
      let sum f =
        List.fold_left
          (fun acc p -> acc + f (Counters.phase (M.Engine.counters eng) p))
          0 Phase.all
      in
      t.Counters.insns = !expected_insns
      && t.Counters.insns = M.Engine.total_insns eng
      && t.Counters.branches = !expected_branches
      && t.Counters.branch_misses <= t.Counters.branches
      && t.Counters.loads + t.Counters.stores = !expected_mem
      && sum (fun s -> s.Counters.insns) = t.Counters.insns
      && sum (fun s -> s.Counters.branches) = t.Counters.branches
      && sum (fun s -> s.Counters.cache_misses) = t.Counters.cache_misses
      && Counters.ipc t >= 0.0
      && Counters.branch_miss_rate t >= 0.0
      && Counters.branch_miss_rate t <= 1.0)

let prop_counters_monotone =
  QCheck.Test.make ~count:100
    ~name:"engine: every counter is monotone under more work" arb_work
    (fun ws ->
      let eng = M.Engine.create () in
      let prev = ref (Counters.total (M.Engine.counters eng)) in
      List.for_all
        (fun w ->
          apply_work eng w;
          let c = Counters.total (M.Engine.counters eng) in
          let ok =
            c.Counters.insns >= !prev.Counters.insns
            && c.Counters.cycles >= !prev.Counters.cycles
            && c.Counters.branches >= !prev.Counters.branches
            && c.Counters.branch_misses >= !prev.Counters.branch_misses
            && c.Counters.loads >= !prev.Counters.loads
            && c.Counters.stores >= !prev.Counters.stores
            && c.Counters.cache_misses >= !prev.Counters.cache_misses
            && M.Engine.total_cycles eng >= 0.0
          in
          prev := c;
          ok)
        ws)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_dcache_conservation;
      prop_dcache_rehit;
      prop_predictor_biased;
      prop_predictor_btb_stable;
      prop_predictor_reference;
      prop_counters_conserved;
      prop_counters_monotone;
    ]
