open Mtj_core
module Engine = Mtj_machine.Engine

type stats = {
  minor_collections : int;
  major_collections : int;
  allocated_objects : int;
  allocated_words : int;
  promoted_objects : int;
  freed_objects : int;
}

type t = {
  engine : Engine.t;
  cfg : Config.t;
  mutable nursery : Value.obj list;
  mutable nursery_words : int;
  mutable old_objs : Value.obj list;
  mutable old_words : int;
  mutable old_words_high : int;   (* old size after the last major GC *)
  mutable remembered : Value.obj list;
  mutable scanners : (int * ((Value.t -> unit) -> unit)) list;
  mutable next_scanner : int;
  mutable next_uid : int;
  mutable s : stats;
  mutable collecting : bool;  (* re-entrancy guard *)
}

let create engine cfg =
  {
    engine;
    cfg;
    nursery = [];
    nursery_words = 0;
    old_objs = [];
    old_words = 0;
    old_words_high = 4 * 1024;
    remembered = [];
    scanners = [];
    next_scanner = 0;
    next_uid = 1;
    s =
      {
        minor_collections = 0;
        major_collections = 0;
        allocated_objects = 0;
        allocated_words = 0;
        promoted_objects = 0;
        freed_objects = 0;
      };
    collecting = false;
  }

let header_words = 2
let addr (o : Value.obj) ~field = (o.Value.uid lsl 8) lor ((field land 15) lsl 3)

(* --- tracing --- *)

let payload_children (p : Value.payload) (visit : Value.t -> unit) =
  match p with
  | Value.Instance i ->
      visit (Value.of_obj i.Value.cls);
      Array.iter visit i.Value.fields
  | Value.Class c ->
      List.iter (fun (_, v) -> visit v) c.Value.attrs;
      Option.iter (fun p -> visit (Value.of_obj p)) c.Value.parent
  | Value.List l -> (
      match l.Value.strategy with
      | Value.S_obj s ->
          for i = 0 to s.len - 1 do
            visit s.objs.(i)
          done
      | Value.S_empty | Value.S_int _ | Value.S_float _ | Value.S_str _ -> ())
  | Value.Dict d | Value.Set d ->
      for i = 0 to d.Value.num_entries - 1 do
        let e = d.Value.entries.(i) in
        if e.Value.live then begin
          visit e.Value.key;
          visit e.Value.dval
        end
      done
  | Value.Tuple a -> Array.iter visit a
  | Value.Func f -> Array.iter visit f.Value.captured
  | Value.Method m ->
      visit m.receiver;
      visit (Value.of_obj m.func)
  | Value.Cell c -> visit c.cell
  | Value.Bigint _ | Value.Strbuilder _ | Value.Range _ -> ()

(* Generic mark from roots.  [follow_old] controls whether marking
   descends into old-generation objects (true for major collections). *)
let mark t ~follow_old ~extra_roots =
  let marked = ref [] in
  let stack = ref [] in
  let visit v =
    if Value.is_obj v then begin
      let o = Value.to_obj_unchecked v in
      if (not o.Value.gc_mark) && (follow_old || o.Value.gc_gen = 0) then begin
        o.Value.gc_mark <- true;
        marked := o :: !marked;
        stack := o :: !stack
      end
    end
  in
  List.iter (fun (_, scan) -> scan visit) t.scanners;
  List.iter visit extra_roots;
  (* remembered set: old objects that may point to young ones; their
     children are roots for a minor collection *)
  if not follow_old then
    List.iter (fun o -> payload_children o.Value.payload visit) t.remembered;
  let visited = ref 0 in
  let rec drain () =
    match !stack with
    | [] -> ()
    | o :: rest ->
        stack := rest;
        incr visited;
        payload_children o.Value.payload visit;
        drain ()
  in
  drain ();
  (!marked, !visited)

let has_young_child (o : Value.obj) =
  let found = ref false in
  payload_children o.Value.payload (fun v ->
      if Value.is_obj v && (Value.to_obj_unchecked v).Value.gc_gen = 0 then
        found := true);
  !found

(* After a collection the remembered set is rebuilt from the old objects
   that still reference young ones (the previous set plus anything just
   promoted); dropping them would let live young objects be miscounted as
   dead at the next minor collection. *)
let rebuild_remembered t candidates =
  List.iter (fun (o : Value.obj) -> o.Value.remembered <- false) candidates;
  t.remembered <- [];
  List.iter
    (fun (o : Value.obj) ->
      if (not o.Value.remembered) && has_young_child o then begin
        o.Value.remembered <- true;
        t.remembered <- o :: t.remembered
      end)
    candidates

let scan_cost = Cost.make ~alu:10 ~load:8 ~store:4 ()

(* constant charge records for the per-event paths, interned once *)
let collection_entry_cost = Cost.make ~alu:900 ~load:400 ~store:400 ~other:300 ()
let alloc_cost = Cost.make ~alu:4 ~store:4 ~other:2 ()
let barrier_cost = Cost.make ~alu:1 ~store:1 ()

let charge_collection t ~visited ~promoted_words ~freed =
  let eng = t.engine in
  Engine.emit eng collection_entry_cost;
  (* per-object scanning loop: predictable branches, dense code *)
  for i = 0 to (visited / 4) - 1 do
    Engine.branch eng ~site:900_001 ~taken:(i mod 16 <> 15)
  done;
  Engine.emit eng (Cost.scale (float_of_int visited) scan_cost);
  if promoted_words > 0 then
    Engine.emit eng (Cost.make ~store:promoted_words ~load:promoted_words ());
  if freed > 0 then Engine.emit eng (Cost.make ~alu:freed ())

let collect_minor t =
  if not t.collecting then begin
    t.collecting <- true;
    Fun.protect ~finally:(fun () -> t.collecting <- false) @@ fun () ->
    Engine.in_phase t.engine Phase.Gc_minor @@ fun () ->
    let marked, visited = mark t ~follow_old:false ~extra_roots:[] in
    let survivors = ref [] in
    let survivor_words = ref 0 in
    let promoted_words = ref 0 in
    let promoted = ref 0 in
    let promoted_objs = ref [] in
    let freed = ref 0 in
    List.iter
      (fun (o : Value.obj) ->
        if o.Value.gc_mark then begin
          o.Value.gc_age <- o.Value.gc_age + 1;
          if o.Value.gc_age >= 2 then begin
            (* promote *)
            o.Value.gc_gen <- 1;
            t.old_objs <- o :: t.old_objs;
            t.old_words <- t.old_words + o.Value.words;
            promoted_words := !promoted_words + o.Value.words;
            promoted_objs := o :: !promoted_objs;
            incr promoted
          end
          else begin
            survivors := o :: !survivors;
            survivor_words := !survivor_words + o.Value.words
          end
        end
        else incr freed)
      t.nursery;
    List.iter (fun (o : Value.obj) -> o.Value.gc_mark <- false) marked;
    t.nursery <- !survivors;
    t.nursery_words <- !survivor_words;
    rebuild_remembered t (List.rev_append !promoted_objs t.remembered);
    t.s <-
      {
        t.s with
        minor_collections = t.s.minor_collections + 1;
        promoted_objects = t.s.promoted_objects + !promoted;
        freed_objects = t.s.freed_objects + !freed;
      };
    charge_collection t ~visited ~promoted_words:!promoted_words ~freed:!freed
  end

let collect_major t =
  if not t.collecting then begin
    t.collecting <- true;
    Fun.protect ~finally:(fun () -> t.collecting <- false) @@ fun () ->
    Engine.in_phase t.engine Phase.Gc_major @@ fun () ->
    let marked, visited = mark t ~follow_old:true ~extra_roots:[] in
    let keep_old = ref [] and old_words = ref 0 in
    let freed = ref 0 in
    List.iter
      (fun (o : Value.obj) ->
        if o.Value.gc_mark then begin
          keep_old := o :: !keep_old;
          old_words := !old_words + o.Value.words
        end
        else incr freed)
      t.old_objs;
    let keep_young = ref [] and young_words = ref 0 in
    List.iter
      (fun (o : Value.obj) ->
        if o.Value.gc_mark then begin
          keep_young := o :: !keep_young;
          young_words := !young_words + o.Value.words
        end
        else incr freed)
      t.nursery;
    List.iter (fun (o : Value.obj) -> o.Value.gc_mark <- false) marked;
    t.old_objs <- !keep_old;
    t.old_words <- !old_words;
    t.nursery <- !keep_young;
    t.nursery_words <- !young_words;
    t.old_words_high <- max (4 * 1024) t.old_words;
    rebuild_remembered t t.old_objs;
    t.s <-
      {
        t.s with
        major_collections = t.s.major_collections + 1;
        freed_objects = t.s.freed_objects + !freed;
      };
    charge_collection t ~visited ~promoted_words:0 ~freed:!freed
  end

let maybe_collect t =
  if t.nursery_words > t.cfg.Config.nursery_words then collect_minor t;
  if
    float_of_int t.old_words
    > Config.major_growth *. float_of_int t.old_words_high
  then collect_major t

let alloc t payload =
  maybe_collect t;
  let words = header_words + Value.payload_words payload in
  let o =
    {
      Value.uid = t.next_uid;
      payload;
      gc_gen = 0;
      gc_age = 0;
      gc_mark = false;
      remembered = false;
      words;
    }
  in
  t.next_uid <- t.next_uid + 1;
  t.nursery <- o :: t.nursery;
  t.nursery_words <- t.nursery_words + words;
  t.s <-
    {
      t.s with
      allocated_objects = t.s.allocated_objects + 1;
      allocated_words = t.s.allocated_words + words;
    };
  (* bump-pointer allocation plus the amortized slow path *)
  Engine.emit t.engine alloc_cost;
  o

let obj t payload = Value.of_obj (alloc t payload)

let grow t (o : Value.obj) =
  let words = header_words + Value.payload_words o.Value.payload in
  let delta = words - o.Value.words in
  if delta <> 0 then begin
    o.Value.words <- words;
    if o.Value.gc_gen = 0 then t.nursery_words <- t.nursery_words + delta
    else t.old_words <- t.old_words + delta;
    if delta > 0 then begin
      t.s <- { t.s with allocated_words = t.s.allocated_words + delta };
      Engine.emit t.engine
        (Cost.make ~load:(min delta 64) ~store:(min delta 64) ())
    end
  end

let write_barrier t ~parent ~child =
  if
    Value.is_obj child
    && parent.Value.gc_gen = 1
    && (Value.to_obj_unchecked child).Value.gc_gen = 0
    && not parent.Value.remembered
  then begin
    parent.Value.remembered <- true;
    t.remembered <- parent :: t.remembered;
    Engine.emit t.engine barrier_cost
  end

let add_root_scanner t scan =
  let id = t.next_scanner in
  t.next_scanner <- id + 1;
  t.scanners <- (id, scan) :: t.scanners;
  id

let remove_root_scanner t id =
  t.scanners <- List.filter (fun (i, _) -> i <> id) t.scanners

let stats t = t.s
let nursery_used t = t.nursery_words
let old_words t = t.old_words
