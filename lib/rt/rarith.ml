open Mtj_core
module Engine = Mtj_machine.Engine

exception Type_error of string

let big_add_fn = Aot.register ~name:"rbigint.add" ~src:Aot.L
let big_sub_fn = Aot.register ~name:"rbigint.sub" ~src:Aot.L
let big_mul_fn = Aot.register ~name:"rbigint.mul" ~src:Aot.L
let big_divmod_fn = Aot.register ~name:"rbigint.divmod" ~src:Aot.L
let big_lshift_fn = Aot.register ~name:"rbigint.lshift" ~src:Aot.L
let big_rshift_fn = Aot.register ~name:"rbigint.rshift" ~src:Aot.L
let big_cmp_fn = Aot.register ~name:"rbigint.cmp" ~src:Aot.L

let is_number v =
  Value.is_int v || Value.is_float v || Value.is_bool v
  || (Value.is_obj v
     &&
     match (Value.to_obj_unchecked v).Value.payload with
     | Value.Bigint _ -> true
     | _ -> false)

let normalize_big ctx b =
  match Rbigint.to_int_opt b with
  | Some i -> Value.of_int i
  | None -> Gc_sim.obj (Ctx.gc ctx) (Value.Bigint b)

let as_big v =
  if Value.is_int v then Some (Rbigint.of_int (Value.to_int_unchecked v))
  else if Value.is_bool v then
    Some (Rbigint.of_int (Bool.to_int (Value.to_bool_unchecked v)))
  else if Value.is_obj v then
    match (Value.to_obj_unchecked v).Value.payload with
    | Value.Bigint b -> Some b
    | _ -> None
  else None

let to_float v =
  if Value.is_int v then float_of_int (Value.to_int_unchecked v)
  else if Value.is_float v then Value.to_float_unchecked v
  else if Value.is_bool v then (if Value.to_bool_unchecked v then 1.0 else 0.0)
  else if
    Value.is_obj v
    &&
    match (Value.to_obj_unchecked v).Value.payload with
    | Value.Bigint _ -> true
    | _ -> false
  then
    match (Value.to_obj_unchecked v).Value.payload with
    | Value.Bigint b -> float_of_string (Rbigint.to_string b)
    | _ -> assert false
  else raise (Type_error ("expected number, got " ^ Value.type_name v))

let charge_digits ctx fn a b op =
  Aot.call ctx fn @@ fun () ->
  let da = max 1 (Rbigint.num_digits a) and db = max 1 (Rbigint.num_digits b) in
  let w =
    if fn == big_mul_fn then da * db
    else if fn == big_divmod_fn then (max 1 (da - db + 1)) * db
    else max da db
  in
  Engine.emit (Ctx.engine ctx)
    (Cost.make ~alu:(3 * w) ~load:w ~store:w ~other:w ());
  op ()

(* fallthrough: promote both to bigint, run, demote if possible *)
let big_binop ctx fn op a b =
  match (as_big a, as_big b) with
  | Some ba, Some bb ->
      charge_digits ctx fn ba bb (fun () -> normalize_big ctx (op ba bb))
  | _ ->
      raise
        (Type_error
           (Printf.sprintf "unsupported operand types: %s and %s"
              (Value.type_name a) (Value.type_name b)))

(* the native-int overflow tests: whether [x op y] wraps *)
let[@inline] add_overflows x y =
  let r = x + y in
  (x >= 0) = (y >= 0) && (r >= 0) <> (x >= 0)

let[@inline] sub_overflows x y =
  let r = x - y in
  (x >= 0) <> (y >= 0) && (r >= 0) <> (x >= 0)

(* min_int-safe: [abs min_int] is still negative, so the old magnitude
   screen let [min_int * -1] wrap silently; and the quotient probe must
   never divide by -1 ([min_int / -1] traps in hardware) *)
let[@inline] mul_overflows x y =
  x <> 0 && y <> 0
  &&
  if x = -1 then y = min_int
  else if y = -1 then x = min_int
  else
    (x < -(1 lsl 31) || x > 1 lsl 31 || y < -(1 lsl 31) || y > 1 lsl 31)
    && (let r = x * y in r / x <> y)

let[@inline] int_like v = Value.is_int v || Value.is_bool v

let[@inline] as_int v =
  if Value.is_int v then Value.to_int_unchecked v
  else if Value.is_bool v then Bool.to_int (Value.to_bool_unchecked v)
  else raise (Type_error "expected int")

let[@inline] float_involved a b = Value.is_float a || Value.is_float b

(* Each binop leads with the immediate-int tag-test fast path: two tag
   tests, native arithmetic, an allocation-free [of_int] — no variant
   round-trip, no heap traffic.  The boxed tail is the old logic and
   also re-covers int operands mixed with bools. *)

let add ctx a b =
  if Value.is_int a && Value.is_int b then begin
    let x = Value.to_int_unchecked a and y = Value.to_int_unchecked b in
    if add_overflows x y then big_binop ctx big_add_fn Rbigint.add a b
    else Value.of_int (x + y)
  end
  else if float_involved a b then Value.of_float (to_float a +. to_float b)
  else if int_like a && int_like b then begin
    let x = as_int a and y = as_int b in
    if add_overflows x y then big_binop ctx big_add_fn Rbigint.add a b
    else Value.of_int (x + y)
  end
  else big_binop ctx big_add_fn Rbigint.add a b

let sub ctx a b =
  if Value.is_int a && Value.is_int b then begin
    let x = Value.to_int_unchecked a and y = Value.to_int_unchecked b in
    if sub_overflows x y then big_binop ctx big_sub_fn Rbigint.sub a b
    else Value.of_int (x - y)
  end
  else if float_involved a b then Value.of_float (to_float a -. to_float b)
  else if int_like a && int_like b then begin
    let x = as_int a and y = as_int b in
    if sub_overflows x y then big_binop ctx big_sub_fn Rbigint.sub a b
    else Value.of_int (x - y)
  end
  else big_binop ctx big_sub_fn Rbigint.sub a b

let mul ctx a b =
  if Value.is_int a && Value.is_int b then begin
    let x = Value.to_int_unchecked a and y = Value.to_int_unchecked b in
    if mul_overflows x y then big_binop ctx big_mul_fn Rbigint.mul a b
    else Value.of_int (x * y)
  end
  else if float_involved a b then Value.of_float (to_float a *. to_float b)
  else if int_like a && int_like b then begin
    let x = as_int a and y = as_int b in
    if mul_overflows x y then big_binop ctx big_mul_fn Rbigint.mul a b
    else Value.of_int (x * y)
  end
  else big_binop ctx big_mul_fn Rbigint.mul a b

(* Python floor division / modulo on native ints *)
let floordiv_int x y =
  if y = 0 then raise Division_by_zero;
  let q = x / y in
  if (x < 0) <> (y < 0) && x mod y <> 0 then q - 1 else q

let mod_int x y =
  if y = 0 then raise Division_by_zero;
  let r = x mod y in
  if r <> 0 && (r < 0) <> (y < 0) then r + y else r

let floordiv ctx a b =
  if Value.is_int a && Value.is_int b then
    Value.of_int
      (floordiv_int (Value.to_int_unchecked a) (Value.to_int_unchecked b))
  else if float_involved a b then begin
    let d = to_float b in
    if d = 0.0 then raise Division_by_zero;
    Value.of_float (floor (to_float a /. d))
  end
  else if int_like a && int_like b then
    Value.of_int (floordiv_int (as_int a) (as_int b))
  else big_binop ctx big_divmod_fn (fun x y -> fst (Rbigint.divmod x y)) a b

let modulo ctx a b =
  if Value.is_int a && Value.is_int b then
    Value.of_int (mod_int (Value.to_int_unchecked a) (Value.to_int_unchecked b))
  else if float_involved a b then begin
    let d = to_float b in
    if d = 0.0 then raise Division_by_zero;
    let r = Float.rem (to_float a) d in
    let r = if r <> 0.0 && (r < 0.0) <> (d < 0.0) then r +. d else r in
    Value.of_float r
  end
  else if int_like a && int_like b then
    Value.of_int (mod_int (as_int a) (as_int b))
  else big_binop ctx big_divmod_fn (fun x y -> snd (Rbigint.divmod x y)) a b

let truediv _ctx a b =
  let d = to_float b in
  if d = 0.0 then raise Division_by_zero;
  Value.of_float (to_float a /. d)

let divmod ctx a b = (floordiv ctx a b, modulo ctx a b)

let neg ctx v =
  if Value.is_int v then begin
    let i = Value.to_int_unchecked v in
    if i <> min_int then Value.of_int (-i)
    else normalize_big ctx (Rbigint.neg (Rbigint.of_int i))
  end
  else if Value.is_float v then Value.of_float (-.(Value.to_float_unchecked v))
  else if Value.is_bool v then
    Value.of_int (-Bool.to_int (Value.to_bool_unchecked v))
  else
    match as_big v with
    | Some b -> normalize_big ctx (Rbigint.neg b)
    | None ->
        raise (Type_error ("bad operand for unary -: " ^ Value.type_name v))

let pow ctx a b =
  if float_involved a b then
    Value.of_float (Rstr.pow_float ctx (to_float a) (to_float b))
  else if int_like a && int_like b then begin
    let base = as_int a and e = as_int b in
    if e < 0 then
      Value.of_float (Rstr.pow_float ctx (float_of_int base) (float_of_int e))
    else begin
      (* exponentiation by squaring with overflow promotion *)
      let rec go acc base e =
        if e = 0 then acc
        else begin
          let acc = if e land 1 = 1 then mul ctx acc base else acc in
          let base' = if e > 1 then mul ctx base base else base in
          go acc base' (e lsr 1)
        end
      in
      go (Value.of_int 1) (Value.of_int base) e
    end
  end
  else
    raise
      (Type_error
         (Printf.sprintf "pow: unsupported operands %s, %s"
            (Value.type_name a) (Value.type_name b)))

let lshift ctx a n =
  if
    (* explicit range, not [abs]: [abs min_int] is still negative, so
       the magnitude guard would wrongly admit min_int and wrap *)
    Value.is_int a && n < 40
    && Value.to_int_unchecked a > -(1 lsl 20)
    && Value.to_int_unchecked a < 1 lsl 20
  then Value.of_int (Value.to_int_unchecked a lsl n)
  else
    match as_big a with
    | Some b ->
        Aot.call ctx big_lshift_fn (fun () ->
            let w = Rbigint.num_digits b + (n / 30) + 1 in
            Engine.emit (Ctx.engine ctx)
              (Cost.make ~alu:(2 * w) ~load:w ~store:w ());
            normalize_big ctx (Rbigint.lshift b n))
    | None -> raise (Type_error "lshift: expected int")

let rshift ctx a n =
  if Value.is_int a && Value.to_int_unchecked a >= 0 then
    (* [asr] is unspecified past the word size (hardware wraps the
       count); clamp — a non-negative int shifted by >= 62 is 0 *)
    Value.of_int (Value.to_int_unchecked a asr (if n > 62 then 62 else n))
  else
    match as_big a with
    | Some b ->
        Aot.call ctx big_rshift_fn (fun () ->
            let w = max 1 (Rbigint.num_digits b) in
            Engine.emit (Ctx.engine ctx)
              (Cost.make ~alu:(2 * w) ~load:w ~store:w ());
            normalize_big ctx (Rbigint.rshift b n))
    | None -> raise (Type_error "rshift: expected int")

let compare_num ctx a b =
  if Value.is_int a && Value.is_int b then
    Int.compare (Value.to_int_unchecked a) (Value.to_int_unchecked b)
  else if float_involved a b then Float.compare (to_float a) (to_float b)
  else if int_like a && int_like b then Int.compare (as_int a) (as_int b)
  else
    match (as_big a, as_big b) with
    | Some ba, Some bb ->
        Aot.call ctx big_cmp_fn (fun () ->
            let w = Rbigint.work ba bb in
            Engine.emit (Ctx.engine ctx) (Cost.make ~alu:w ~load:w ());
            Rbigint.compare ba bb)
    | _ ->
        raise
          (Type_error
             (Printf.sprintf "cannot compare %s and %s" (Value.type_name a)
                (Value.type_name b)))
