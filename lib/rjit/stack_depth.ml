let deepest instrs ~effect ~taken_effect ~target ~falls_through =
  let n = Array.length instrs in
  (* the deepest entry stack seen at each pc, -1 before the first *)
  let depth = Array.make n (-1) in
  (* pcs whose entry stack deepened since they were last visited *)
  let work = ref (Array.make 16 0) and top = ref 0 in
  let reach pc d =
    let d = if d < 0 then 0 else d in
    if pc < n && depth.(pc) < d then begin
      depth.(pc) <- d;
      if !top = Array.length !work then begin
        let bigger = Array.make (2 * !top) 0 in
        Array.blit !work 0 bigger 0 !top;
        work := bigger
      end;
      !work.(!top) <- pc;
      incr top
    end
  in
  let deepest = ref 0 in
  reach 0 0;
  while !top > 0 do
    decr top;
    let pc = !work.(!top) in
    let d = depth.(pc) and i = instrs.(pc) in
    let cont = d + effect i in
    let most = if cont > d + 1 then cont else d + 1 in
    if most > !deepest then deepest := most;
    let t = target i in
    if t >= 0 then reach t (d + taken_effect i);
    if falls_through i then reach (pc + 1) cont
  done;
  !deepest
