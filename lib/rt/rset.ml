let difference_fn =
  Aot.register ~name:"BytesSetStrategy_difference_unwrapped" ~src:Aot.I
let issubset_fn =
  Aot.register ~name:"BytesSetStrategy_issubset_unwrapped" ~src:Aot.I
let union_fn = Aot.register ~name:"ObjectSetStrategy_union" ~src:Aot.I
let intersect_fn = Aot.register ~name:"ObjectSetStrategy_intersect" ~src:Aot.I

let of_obj (o : Value.obj) =
  match o.Value.payload with
  | Value.Set d -> d
  | _ -> invalid_arg "Rset.of_obj: not a set"

let length (d : Value.dict) = d.Value.num_live

let create ctx values =
  let d = Rdict.create ctx in
  let o = Gc_sim.alloc (Ctx.gc ctx) (Value.Set d) in
  List.iter (fun v -> Rdict.set ctx o d v Value.nil) values;
  o

let add ctx (o : Value.obj) v = Rdict.set ctx o (of_obj o) v Value.nil
let contains ctx d v = Rdict.contains ctx d v

let remove ctx (o : Value.obj) v = Rdict.delete ctx (of_obj o) v
let elements (d : Value.dict) = Rdict.keys d

let difference ctx (a : Value.obj) (b : Value.obj) =
  Aot.call ctx difference_fn @@ fun () ->
  let da = of_obj a and db = of_obj b in
  let keep =
    List.filter (fun v -> not (contains ctx db v)) (elements da)
  in
  create ctx keep

let union ctx (a : Value.obj) (b : Value.obj) =
  Aot.call ctx union_fn @@ fun () ->
  create ctx (elements (of_obj a) @ elements (of_obj b))

let intersection ctx (a : Value.obj) (b : Value.obj) =
  Aot.call ctx intersect_fn @@ fun () ->
  let db = of_obj b in
  create ctx (List.filter (fun v -> contains ctx db v) (elements (of_obj a)))

let issubset ctx (a : Value.obj) (b : Value.obj) =
  Aot.call ctx issubset_fn @@ fun () ->
  let db = of_obj b in
  List.for_all (fun v -> contains ctx db v) (elements (of_obj a))
