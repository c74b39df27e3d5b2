type t = {
  table : Bytes.t;          (* 2-bit counters, one byte each *)
  table_mask : int;
  local_hist : int array;   (* per-site local history (PAg first level) *)
  local_mask : int;
  btb : int array;          (* last target per entry; -1 = empty *)
  btb_mask : int;
  mutable history : int;
  history_mask : int;
}

let create ?(history_bits = 12) ?(table_bits = 14) ?(btb_bits = 11) () =
  let table_size = 1 lsl table_bits in
  {
    table = Bytes.make table_size '\002' (* weakly taken *);
    table_mask = table_size - 1;
    local_hist = Array.make 1024 0;
    local_mask = 1023;
    btb = Array.make (1 lsl btb_bits) (-1);
    btb_mask = (1 lsl btb_bits) - 1;
    history = 0;
    history_mask = (1 lsl history_bits) - 1;
  }

(* Cheap integer hash to spread site ids across the tables. *)
let[@inline] hash_site site = (site * 2654435761) land max_int

(* Two-level local-history prediction (PAg): each branch site keeps its
   own outcome history, which indexes the shared pattern table.  This
   captures per-branch periodic behaviour (loop trip counts, modulo
   patterns) the way modern TAGE-class predictors do. *)
let[@inline] conditional t ~site ~taken =
  let h = hash_site site in
  let lidx = h land t.local_mask in
  let local = t.local_hist.(lidx) in
  let idx = (h lxor (local * 7919)) land t.table_mask in
  let counter = Char.code (Bytes.unsafe_get t.table idx) in
  let predicted_taken = counter >= 2 in
  let correct = predicted_taken = taken in
  (* saturating 2-bit update in plain int compares: Stdlib's [min] and
     [max] are polymorphic calls, and [Char.chr] range-checks a value
     that is always 0..3 *)
  let counter' =
    if taken then (if counter < 3 then counter + 1 else 3)
    else if counter > 0 then counter - 1
    else 0
  in
  Bytes.unsafe_set t.table idx (Char.unsafe_chr counter');
  t.local_hist.(lidx) <- ((local lsl 1) lor Bool.to_int taken) land 1023;
  t.history <- ((t.history lsl 1) lor Bool.to_int taken) land t.history_mask;
  correct

let[@inline] indirect t ~site ~target =
  (* path-based indexing: modern indirect predictors (ITTAGE-like) use
     global history, which lets them track the periodic dispatch-target
     sequences of interpreter loops (cf. Rohou et al., cited in the
     paper: interpreter dispatch predicts far better than folklore) *)
  let idx =
    (hash_site site lxor ((t.history land 127) * 31)) land t.btb_mask
  in
  let predicted = t.btb.(idx) in
  let correct = predicted = target in
  t.btb.(idx) <- target;
  (* indirect branches shift several target bits into the history so a
     periodic dispatch sequence gives each position a distinct context *)
  t.history <- ((t.history lsl 3) lor (target land 7)) land t.history_mask;
  correct

let reset t =
  Bytes.fill t.table 0 (Bytes.length t.table) '\002';
  Array.fill t.local_hist 0 (Array.length t.local_hist) 0;
  Array.fill t.btb 0 (Array.length t.btb) (-1);
  t.history <- 0
