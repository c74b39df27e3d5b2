type t = {
  tags : int array;       (* sets * ways; -1 = invalid *)
  lru : int array;        (* per-line last-use stamp *)
  sets_mask : int;
  ways : int;
  line_bits : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(sets_bits = 9) ?(ways = 4) ?(line_bits = 6) () =
  let sets = 1 lsl sets_bits in
  {
    tags = Array.make (sets * ways) (-1);
    lru = Array.make (sets * ways) 0;
    sets_mask = sets - 1;
    ways;
    line_bits;
    clock = 0;
    hits = 0;
    misses = 0;
  }

(* The lookup allocates nothing: both scans are top-level recursive
   functions over explicit arguments.  A local [let rec] over [t],
   [base] and [line] would be a closure built on every access. *)

(* the way holding [line], or -1: no option box on the hit path *)
let rec find_way t ~base ~line i =
  if i >= t.ways then -1
  else if t.tags.(base + i) = line then i
  else find_way t ~base ~line (i + 1)

(* least-recently-used way, as a plain accumulator loop (no ref cell) *)
let rec victim_way t ~base i best =
  if i >= t.ways then best
  else
    victim_way t ~base (i + 1)
      (if t.lru.(base + i) < t.lru.(base + best) then i else best)

let[@inline] access t ~addr =
  let line = addr lsr t.line_bits in
  let set = line land t.sets_mask in
  let base = set * t.ways in
  t.clock <- t.clock + 1;
  let i = find_way t ~base ~line 0 in
  if i >= 0 then begin
    t.lru.(base + i) <- t.clock;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    let v = victim_way t ~base 1 0 in
    t.tags.(base + v) <- line;
    t.lru.(base + v) <- t.clock;
    t.misses <- t.misses + 1;
    false
  end

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.lru 0 (Array.length t.lru) 0;
  t.clock <- 0;
  t.hits <- 0;
  t.misses <- 0

let hits t = t.hits
let misses t = t.misses
