type t = { alu : int; fpu : int; load : int; store : int; other : int }

let zero = { alu = 0; fpu = 0; load = 0; store = 0; other = 0 }

let make ?(alu = 0) ?(fpu = 0) ?(load = 0) ?(store = 0) ?(other = 0) () =
  { alu; fpu; load; store; other }

let[@inline] total c = c.alu + c.fpu + c.load + c.store + c.other

let ( + ) a b =
  {
    alu = a.alu + b.alu;
    fpu = a.fpu + b.fpu;
    load = a.load + b.load;
    store = a.store + b.store;
    other = a.other + b.other;
  }

let scale_field f n =
  if n = 0 then 0
  else
    let scaled = int_of_float (Float.round (f *. float_of_int n)) in
    max 1 scaled

let scale f c =
  {
    alu = scale_field f c.alu;
    fpu = scale_field f c.fpu;
    load = scale_field f c.load;
    store = scale_field f c.store;
    other = scale_field f c.other;
  }

let scale_all f costs = Array.map (scale f) costs

let pp fmt c =
  Format.fprintf fmt "{alu=%d; fpu=%d; ld=%d; st=%d; other=%d}" c.alu c.fpu
    c.load c.store c.other
