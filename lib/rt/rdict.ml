open Mtj_core
module Engine = Mtj_machine.Engine

let lookup_fn = Aot.register ~name:"rordereddict.ll_call_lookup_function" ~src:Aot.R
let resize_fn = Aot.register ~name:"rordereddict.ll_dict_resize" ~src:Aot.R

let free_slot = -1
let tombstone = -2

let create _ctx : Value.dict =
  {
    Value.entries =
      Array.init 8 (fun _ ->
          { Value.key = Value.nil; dval = Value.nil; khash = 0; live = false });
    num_entries = 0;
    num_live = 0;
    index = Array.make 16 free_slot;
    index_mask = 15;
  }

let length (d : Value.dict) = d.Value.num_live

(* The probe loop: CPython/PyPy-style perturbed open addressing.  Returns
   [`Found slot] or [`Free index_position].  Charges one index load per
   probe and a key-comparison branch on collisions. *)
(* per-probe charge records, interned once (the probe loop is the
   hottest dict path) *)
let probe_index_cost = Cost.make ~alu:3 ~load:1 ()
let probe_entry_cost = Cost.make ~load:2 ~alu:2 ()

let probe ctx (d : Value.dict) key khash =
  let eng = Ctx.engine ctx in
  let mask = d.Value.index_mask in
  let rec go j perturb first_tomb =
    Engine.emit eng probe_index_cost;
    let slot = d.Value.index.(j) in
    if slot = free_slot then begin
      Engine.branch eng ~site:910_001 ~taken:false;
      `Free (Option.value ~default:j first_tomb)
    end
    else if slot = tombstone then begin
      Engine.branch eng ~site:910_001 ~taken:true;
      let first_tomb = Some (Option.value ~default:j first_tomb) in
      go (((5 * j) + 1 + perturb) land mask) (perturb lsr 5) first_tomb
    end
    else begin
      let e = d.Value.entries.(slot) in
      (* touch the entry for the cache model *)
      Engine.emit eng probe_entry_cost;
      let hit = e.Value.khash = khash && Value.py_eq e.Value.key key in
      Engine.branch eng ~site:910_002 ~taken:hit;
      if hit && e.Value.live then `Found slot
      else go (((5 * j) + 1 + perturb) land mask) (perturb lsr 5) first_tomb
    end
  in
  go (khash land mask) khash None

let lookup ctx d key khash =
  Aot.call ctx lookup_fn (fun () -> probe ctx d key khash)

let get ctx (d : Value.dict) key =
  match lookup ctx d key (Value.py_hash key) with
  | `Found slot -> Some d.Value.entries.(slot).Value.dval
  | `Free _ -> None

let contains ctx d key = Option.is_some (get ctx d key)

let grow_index ctx (owner : Value.obj) (d : Value.dict) =
  Aot.call ctx resize_fn @@ fun () ->
  let eng = Ctx.engine ctx in
  (* compact the entries array, dropping dead entries *)
  let live =
    Array.of_list
      (List.filter
         (fun (e : Value.entry) -> e.Value.live)
         (Array.to_list (Array.sub d.Value.entries 0 d.Value.num_entries)))
  in
  let nlive = Array.length live in
  let cap = max 8 (nlive * 2) in
  let entries =
    Array.init cap (fun i ->
        if i < nlive then live.(i)
        else
          { Value.key = Value.nil; dval = Value.nil; khash = 0; live = false })
  in
  let isize =
    let rec go n = if n >= 3 * cap then n else go (n * 2) in
    go 16
  in
  let index = Array.make isize free_slot in
  let mask = isize - 1 in
  Array.iteri
    (fun slot (e : Value.entry) ->
      let rec place j perturb =
        if index.(j) = free_slot then index.(j) <- slot
        else place (((5 * j) + 1 + perturb) land mask) (perturb lsr 5)
      in
      place (e.Value.khash land mask) e.Value.khash)
    (Array.sub entries 0 nlive);
  d.Value.entries <- entries;
  d.Value.num_entries <- nlive;
  d.Value.index <- index;
  d.Value.index_mask <- mask;
  Engine.emit eng (Cost.make ~alu:(4 * nlive) ~load:(2 * nlive) ~store:(2 * nlive) ());
  Gc_sim.grow (Ctx.gc ctx) owner

let rec set ctx (owner : Value.obj) (d : Value.dict) key v =
  let khash = Value.py_hash key in
  (match lookup ctx d key khash with
  | `Found slot ->
      let e = d.Value.entries.(slot) in
      e.Value.dval <- v;
      Engine.mem_access (Ctx.engine ctx) ~addr:(Gc_sim.addr owner ~field:slot)
        ~write:true
  | `Free pos ->
      if d.Value.num_entries >= Array.length d.Value.entries then begin
        grow_index ctx owner d;
        set_fresh ctx owner d key v khash
      end
      else begin
        let slot = d.Value.num_entries in
        let e = d.Value.entries.(slot) in
        e.Value.key <- key;
        e.Value.dval <- v;
        e.Value.khash <- khash;
        e.Value.live <- true;
        d.Value.num_entries <- slot + 1;
        d.Value.num_live <- d.Value.num_live + 1;
        d.Value.index.(pos) <- slot;
        Engine.mem_access (Ctx.engine ctx)
          ~addr:(Gc_sim.addr owner ~field:slot) ~write:true;
        (* keep the index sparse enough for short probe sequences *)
        if 3 * d.Value.num_entries > 2 * Array.length d.Value.index then
          grow_index ctx owner d
      end);
  Gc_sim.write_barrier (Ctx.gc ctx) ~parent:owner ~child:key;
  Gc_sim.write_barrier (Ctx.gc ctx) ~parent:owner ~child:v

and set_fresh ctx _owner d key v khash =
  (* insert after a resize: the probe must be redone on the new index *)
  match lookup ctx d key khash with
  | `Found slot -> d.Value.entries.(slot).Value.dval <- v
  | `Free pos ->
      let slot = d.Value.num_entries in
      let e = d.Value.entries.(slot) in
      e.Value.key <- key;
      e.Value.dval <- v;
      e.Value.khash <- khash;
      e.Value.live <- true;
      d.Value.num_entries <- slot + 1;
      d.Value.num_live <- d.Value.num_live + 1;
      d.Value.index.(pos) <- slot

let delete ctx (d : Value.dict) key =
  let khash = Value.py_hash key in
  match lookup ctx d key khash with
  | `Found slot ->
      let e = d.Value.entries.(slot) in
      e.Value.live <- false;
      e.Value.key <- Value.nil;
      e.Value.dval <- Value.nil;
      d.Value.num_live <- d.Value.num_live - 1;
      (* tombstone the index position pointing at this slot *)
      let mask = d.Value.index_mask in
      let rec go j perturb =
        if d.Value.index.(j) = slot then d.Value.index.(j) <- tombstone
        else if d.Value.index.(j) = free_slot then ()
        else go (((5 * j) + 1 + perturb) land mask) (perturb lsr 5)
      in
      go (khash land mask) khash;
      true
  | `Free _ -> false

let iter (d : Value.dict) f =
  for i = 0 to d.Value.num_entries - 1 do
    let e = d.Value.entries.(i) in
    if e.Value.live then f e.Value.key e.Value.dval
  done

let keys d =
  let acc = ref [] in
  iter d (fun k _ -> acc := k :: !acc);
  List.rev !acc

let nth_live (d : Value.dict) n =
  let seen = ref 0 in
  let result = ref None in
  (try
     for i = 0 to d.Value.num_entries - 1 do
       let e = d.Value.entries.(i) in
       if e.Value.live then begin
         if !seen = n then begin
           result := Some (e.Value.key, e.Value.dval);
           raise Exit
         end;
         incr seen
       end
     done
   with Exit -> ());
  !result
