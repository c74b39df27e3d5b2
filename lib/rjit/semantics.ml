(** Value-level semantics shared by the direct interpreter, the residual
    AOT thunks recorded in traces, and the trace executor.

    Raises {!Ops_intf.Lang_error} for language-level errors (TypeError,
    IndexError, KeyError, ZeroDivisionError analogues). *)

open Mtj_rt
open Ops_intf
module Engine = Mtj_machine.Engine

let err fmt = Printf.ksprintf (fun s -> raise (Lang_error s)) fmt

let getattr_generic_fn = Aot.register ~name:"W_TypeObject.lookup" ~src:Aot.I
let str_of_fn = Aot.register ~name:"W_Object.descr_str" ~src:Aot.I
let sort_fn = Aot.register ~name:"listsort.TimSort" ~src:Aot.L

(* --- coercions (hot: tag tests, no variant view) --- *)

let[@inline] as_obj v =
  if Value.is_obj v then Value.to_obj_unchecked v
  else err "expected heap object, got %s" (Value.type_name v)

let as_list v =
  if Value.is_obj v then begin
    let o = Value.to_obj_unchecked v in
    match o.Value.payload with
    | Value.List _ -> o
    | _ -> err "expected list, got %s" (Value.type_name v)
  end
  else err "expected list, got %s" (Value.type_name v)

let as_dict_obj v =
  if Value.is_obj v then begin
    let o = Value.to_obj_unchecked v in
    match o.Value.payload with
    | Value.Dict _ -> o
    | _ -> err "expected dict, got %s" (Value.type_name v)
  end
  else err "expected dict, got %s" (Value.type_name v)

let as_set_obj v =
  if Value.is_obj v then begin
    let o = Value.to_obj_unchecked v in
    match o.Value.payload with
    | Value.Set _ -> o
    | _ -> err "expected set, got %s" (Value.type_name v)
  end
  else err "expected set, got %s" (Value.type_name v)

(* why [as_int] refused [v].  A bignum is an int to the program, so its
   message names the limit it met instead of its type: [&], [|], [^] and
   shift counts take native ints only (DESIGN §5) *)
let not_native_int v =
  if Value.is_obj v then
    match (Value.to_obj_unchecked v).Value.payload with
    | Value.Bigint _ ->
        err
          "int operand outside the native int range that &, |, ^ and shift \
           counts accept"
    | _ -> err "expected int, got %s" (Value.type_name v)
  else err "expected int, got %s" (Value.type_name v)

let[@inline] as_int v =
  if Value.is_int v then Value.to_int_unchecked v
  else if Value.is_bool v then Bool.to_int (Value.to_bool_unchecked v)
  else not_native_int v

let[@inline] as_str v =
  if Value.is_str v then Value.to_str_unchecked v
  else err "expected str, got %s" (Value.type_name v)

let as_cls v =
  if Value.is_obj v then
    let o = Value.to_obj_unchecked v in
    match o.Value.payload with
    | Value.Class c -> (o, c)
    | _ -> err "expected class, got %s" (Value.type_name v)
  else err "expected class, got %s" (Value.type_name v)

(* --- class / instance model --- *)

let layout_index (c : Value.cls) name =
  let n = Array.length c.Value.layout in
  let rec go i =
    if i >= n then None
    else if String.equal c.Value.layout.(i) name then Some i
    else go (i + 1)
  in
  go 0

let rec class_attr (c : Value.cls) name =
  match List.assoc_opt name c.Value.attrs with
  | Some v -> Some v
  | None -> (
      match c.Value.parent with
      | Some { Value.payload = Value.Class p; _ } -> class_attr p name
      | Some _ | None -> None)

let instance_cls (o : Value.obj) =
  match o.Value.payload with
  | Value.Instance i -> (
      match i.Value.cls.Value.payload with
      | Value.Class c -> c
      | _ -> err "corrupt instance class")
  | _ -> err "expected instance"

(* read a field slot, tolerating instances created before the layout grew *)
let field_get (i : Value.instance) idx =
  if idx < Array.length i.Value.fields then i.Value.fields.(idx) else Value.nil

let field_set ctx (o : Value.obj) (i : Value.instance) idx v =
  if idx >= Array.length i.Value.fields then begin
    let bigger = Array.make (idx + 1) Value.nil in
    Array.blit i.Value.fields 0 bigger 0 (Array.length i.Value.fields);
    i.Value.fields <- bigger;
    Gc_sim.grow (Ctx.gc ctx) o
  end;
  i.Value.fields.(idx) <- v;
  Gc_sim.write_barrier (Ctx.gc ctx) ~parent:o ~child:v

let getattr ctx v name =
  if Value.is_obj v then
    let o = Value.to_obj_unchecked v in
    match o.Value.payload with
    | Value.Instance i -> (
        let cls = instance_cls o in
        match layout_index cls name with
        | Some idx ->
            Engine.mem_access (Ctx.engine ctx) ~addr:(Gc_sim.addr o ~field:idx)
              ~write:false;
            field_get i idx
        | None -> (
            match class_attr cls name with
            | Some a -> (
                if Value.is_obj a then
                  let f = Value.to_obj_unchecked a in
                  match f.Value.payload with
                  | Value.Func _ ->
                      Gc_sim.obj (Ctx.gc ctx)
                        (Value.Method { receiver = v; func = f })
                  | _ -> a
                else a)
            | None ->
                err "%s object has no attribute '%s'" cls.Value.cls_name name))
    | Value.Class c -> (
        match class_attr c name with
        | Some a -> a
        | None -> err "class %s has no attribute '%s'" c.Value.cls_name name)
    | _ -> err "%s object has no attribute '%s'" (Value.type_name v) name
  else err "%s object has no attribute '%s'" (Value.type_name v) name

let setattr ctx v name x =
  if Value.is_obj v then
    let o = Value.to_obj_unchecked v in
    match o.Value.payload with
    | Value.Instance i -> (
        let cls = instance_cls o in
        match layout_index cls name with
        | Some idx -> field_set ctx o i idx x
        | None ->
            (* first store of this attribute on the class's layout: extend
               the shared layout (shape growth) *)
            let idx = Array.length cls.Value.layout in
            cls.Value.layout <- Array.append cls.Value.layout [| name |];
            field_set ctx o i idx x)
    | Value.Class c ->
        c.Value.attrs <- (name, x) :: List.remove_assoc name c.Value.attrs
    | _ -> err "cannot set attribute on %s" (Value.type_name v)
  else err "cannot set attribute on %s" (Value.type_name v)

(* --- subscripts --- *)

let norm_index len i = if i < 0 then len + i else i

let getitem ctx container key =
  if Value.is_obj container then begin
    let o = Value.to_obj_unchecked container in
    match o.Value.payload with
    | Value.List l ->
        let i = norm_index (Value.list_len l) (as_int key) in
        if i < 0 || i >= Value.list_len l then err "list index out of range";
        Rlist.get ctx o i
    | Value.Dict d -> (
        match Rdict.get ctx d key with
        | Some v -> v
        | None -> err "KeyError: %s" (Value.repr key))
    | Value.Tuple a ->
        let i = norm_index (Array.length a) (as_int key) in
        if i < 0 || i >= Array.length a then err "tuple index out of range";
        a.(i)
    | _ -> err "%s object is not subscriptable" (Value.type_name container)
  end
  else if Value.is_str container then begin
    let s = Value.to_str_unchecked container in
    let i = norm_index (String.length s) (as_int key) in
    if i < 0 || i >= String.length s then err "string index out of range";
    Value.of_str (String.make 1 s.[i])
  end
  else err "%s object is not subscriptable" (Value.type_name container)

let setitem ctx container key v =
  if Value.is_obj container then begin
    let o = Value.to_obj_unchecked container in
    match o.Value.payload with
    | Value.List l ->
        let i = norm_index (Value.list_len l) (as_int key) in
        if i < 0 || i >= Value.list_len l then
          err "list assignment index out of range";
        Rlist.set ctx o i v
    | Value.Dict d -> Rdict.set ctx o d key v
    | _ ->
        err "%s object does not support item assignment"
          (Value.type_name container)
  end
  else
    err "%s object does not support item assignment"
      (Value.type_name container)

let len_of ctx v =
  ignore ctx;
  if Value.is_obj v then begin
    match (Value.to_obj_unchecked v).Value.payload with
    | Value.List l -> Value.list_len l
    | Value.Dict d | Value.Set d -> d.Value.num_live
    | Value.Tuple a -> Array.length a
    | _ -> err "object of type %s has no len()" (Value.type_name v)
  end
  else if Value.is_str v then String.length (Value.to_str_unchecked v)
  else err "object of type %s has no len()" (Value.type_name v)

let contains ctx item container =
  if Value.is_obj container then begin
    let o = Value.to_obj_unchecked container in
    match o.Value.payload with
    | Value.List _ -> Rlist.find ctx o item >= 0
    | Value.Dict d | Value.Set d -> Rdict.contains ctx d item
    | Value.Tuple a -> Array.exists (fun x -> Value.py_eq x item) a
    | _ -> err "argument of type %s is not iterable" (Value.type_name container)
  end
  else if Value.is_str container then begin
    let s = Value.to_str_unchecked container in
    if Value.is_str item then begin
      let sub = Value.to_str_unchecked item in
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      m = 0 || go 0
    end
    else err "'in <string>' requires string, got %s" (Value.type_name item)
  end
  else err "argument of type %s is not iterable" (Value.type_name container)

(* --- comparison / equality --- *)

let both_numbers a b = Rarith.is_number a && Rarith.is_number b

let rec compare_values ctx op a b =
  let boolean v = Value.of_bool v in
  match op with
  | Is -> boolean (identical a b)
  | Is_not -> boolean (not (identical a b))
  | In -> boolean (contains ctx a b)
  | Not_in -> boolean (not (contains ctx a b))
  | Eq -> boolean (py_equal ctx a b)
  | Ne -> boolean (not (py_equal ctx a b))
  | Lt | Le | Gt | Ge ->
      let c = order ctx a b in
      boolean
        (match op with
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0
        | _ -> assert false)

and identical a b =
  if Value.is_int a then
    Value.is_int b && Value.to_int_unchecked a = Value.to_int_unchecked b
  else if Value.is_nil a then Value.is_nil b
  else if Value.is_bool a then
    (* singleton bools: identity coincides with equality *)
    a == b
  else if Value.is_str a then
    Value.is_str b
    && String.equal (Value.to_str_unchecked a) (Value.to_str_unchecked b)
  else if Value.is_obj a then
    Value.is_obj b && Value.to_obj_unchecked a == Value.to_obj_unchecked b
  else false (* floats are never `is` each other, as before *)

and py_equal ctx a b =
  if both_numbers a b then Rarith.compare_num ctx a b = 0 else Value.py_eq a b

and order ctx a b =
  if both_numbers a b then Rarith.compare_num ctx a b
  else if Value.is_str a && Value.is_str b then
    String.compare (Value.to_str_unchecked a) (Value.to_str_unchecked b)
  else
    let fail () =
      err "'<' not supported between %s and %s" (Value.type_name a)
        (Value.type_name b)
    in
    if Value.is_obj a && Value.is_obj b then
      match
        ( (Value.to_obj_unchecked a).Value.payload,
          (Value.to_obj_unchecked b).Value.payload )
      with
      | Value.Tuple xs, Value.Tuple ys ->
          let nx = Array.length xs and ny = Array.length ys in
          let rec go i =
            if i >= nx && i >= ny then 0
            else if i >= nx then -1
            else if i >= ny then 1
            else
              let c = order ctx xs.(i) ys.(i) in
              if c <> 0 then c else go (i + 1)
          in
          go 0
      | Value.List xl, Value.List yl ->
          let nx = Value.list_len xl and ny = Value.list_len yl in
          let rec go i =
            if i >= nx && i >= ny then 0
            else if i >= nx then -1
            else if i >= ny then 1
            else
              let c =
                order ctx (Value.list_get_unsafe xl i)
                  (Value.list_get_unsafe yl i)
              in
              if c <> 0 then c else go (i + 1)
          in
          go 0
      | _ -> fail ()
    else fail ()

(* --- add with string/list/tuple semantics --- *)

let add ctx a b =
  if both_numbers a b then Rarith.add ctx a b
  else if Value.is_str a && Value.is_str b then begin
    let x = Value.to_str_unchecked a and y = Value.to_str_unchecked b in
    Engine.emit (Ctx.engine ctx)
      (Mtj_core.Cost.make
         ~alu:((String.length x + String.length y) / 4)
         ~load:((String.length x + String.length y) / 8)
         ~store:((String.length x + String.length y) / 8)
         ());
    Value.of_str (x ^ y)
  end
  else
    let fail () =
      err "unsupported operand type(s) for +: %s and %s" (Value.type_name a)
        (Value.type_name b)
    in
    if Value.is_obj a && Value.is_obj b then
      let x = Value.to_obj_unchecked a and y = Value.to_obj_unchecked b in
      match (x.Value.payload, y.Value.payload) with
      | Value.List _, Value.List _ -> Value.of_obj (Rlist.concat ctx x y)
      | Value.Tuple xs, Value.Tuple ys ->
          Gc_sim.obj (Ctx.gc ctx) (Value.Tuple (Array.append xs ys))
      | _ -> fail ()
    else fail ()

let mul ctx a b =
  if both_numbers a b then Rarith.mul ctx a b
  else
    let str_rep s n =
      if n <= 0 then Value.of_str ""
      else begin
        let buf = Buffer.create (String.length s * n) in
        for _ = 1 to n do
          Buffer.add_string buf s
        done;
        Engine.emit (Ctx.engine ctx)
          (Mtj_core.Cost.make ~alu:(Buffer.length buf / 4)
             ~store:(Buffer.length buf / 8) ());
        Value.of_str (Buffer.contents buf)
      end
    in
    let list_of v =
      if Value.is_obj v then
        match (Value.to_obj_unchecked v).Value.payload with
        | Value.List l -> Some l
        | _ -> None
      else None
    in
    let list_rep l n =
      let items = ref [] in
      for _ = 1 to n do
        for i = Value.list_len l - 1 downto 0 do
          items := Value.list_get_unsafe l i :: !items
        done
      done;
      Value.of_obj (Rlist.create ctx !items)
    in
    if Value.is_str a && Value.is_int b then
      str_rep (Value.to_str_unchecked a) (Value.to_int_unchecked b)
    else if Value.is_int a && Value.is_str b then
      str_rep (Value.to_str_unchecked b) (Value.to_int_unchecked a)
    else
      match (list_of a, list_of b) with
      | Some l, _ when Value.is_int b -> list_rep l (Value.to_int_unchecked b)
      | _, Some l when Value.is_int a -> list_rep l (Value.to_int_unchecked a)
      | _ ->
          err "unsupported operand type(s) for *: %s and %s" (Value.type_name a)
            (Value.type_name b)

(* --- stringification --- *)

let to_str ctx v =
  Aot.call ctx str_of_fn @@ fun () ->
  let s = Value.to_display_string v in
  Engine.emit (Ctx.engine ctx)
    (Mtj_core.Cost.make ~alu:(max 1 (String.length s / 2)) ());
  Value.of_str s

(* --- unpack --- *)

let unpack _ctx v n =
  if Value.is_obj v then
    match (Value.to_obj_unchecked v).Value.payload with
    | Value.Tuple a when Array.length a = n -> a
    | Value.List l when Value.list_len l = n ->
        Array.init n (Value.list_get_unsafe l)
    | _ -> err "cannot unpack %s into %d values" (Value.type_name v) n
  else err "cannot unpack %s into %d values" (Value.type_name v) n

(* --- iteration support (compiler lowers for-loops to index walks; dict
   iteration materializes the key list) --- *)

let keys_list ctx v =
  if Value.is_obj v then
    match (Value.to_obj_unchecked v).Value.payload with
    | Value.Dict d | Value.Set d ->
        Value.of_obj (Rlist.create ctx (Rdict.keys d))
    | _ -> err "keys(): expected dict, got %s" (Value.type_name v)
  else err "keys(): expected dict, got %s" (Value.type_name v)

let iterable_as_indexable ctx v =
  if Value.is_str v then v
  else if Value.is_obj v then
    match (Value.to_obj_unchecked v).Value.payload with
    | Value.List _ | Value.Tuple _ -> v
    | Value.Dict _ | Value.Set _ -> keys_list ctx v
    | _ -> err "%s object is not iterable" (Value.type_name v)
  else err "%s object is not iterable" (Value.type_name v)

(* --- sorting (TimSort stand-in, charged n log n) --- *)

let sorted ctx v =
  Aot.call ctx sort_fn @@ fun () ->
  let arr =
    if Value.is_obj v then
      match (Value.to_obj_unchecked v).Value.payload with
      | Value.List l -> Rlist.to_array l
      | Value.Tuple a -> Array.copy a
      | _ -> err "sorted(): expected list, got %s" (Value.type_name v)
    else err "sorted(): expected list, got %s" (Value.type_name v)
  in
  let n = Array.length arr in
  let work = max 1 (n * (1 + int_of_float (Float.log2 (float_of_int (max 2 n))))) in
  Engine.emit (Ctx.engine ctx)
    (Mtj_core.Cost.make ~alu:(3 * work) ~load:work ~store:work ());
  Array.sort (fun a b -> order ctx a b) arr;
  Value.of_obj (Rlist.create ctx (Array.to_list arr))

let _ = getattr_generic_fn
