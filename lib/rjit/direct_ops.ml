(** The direct-execution OPS instance: plain interpretation.

    Every operation performs its semantics and charges the machine the
    interpreter's cost for it (boxing, type dispatch, reference-count or
    shape bookkeeping), scaled by the running VM's {!Mtj_core.Profile} —
    this is what makes CPython-style and RPython-translated interpreters
    differ by ~2x at identical semantics (Table I). *)

open Mtj_rt
open Mtj_core
module Engine = Mtj_machine.Engine

(* base handler costs (pre-scaling) for classes of operations *)
let c_arith = Cost.make ~alu:6 ~load:4 ~store:2 ~other:3 ()
let c_cmp = Cost.make ~alu:5 ~load:3 ~other:2 ()
let c_attr = Cost.make ~alu:12 ~load:10 ~store:2 ~other:7 ()
let c_item = Cost.make ~alu:8 ~load:6 ~other:4 ()
let c_build = Cost.make ~alu:5 ~load:2 ~store:4 ~other:3 ()
let c_truth = Cost.make ~alu:3 ~load:2 ()
let c_global = Cost.make ~alu:4 ~load:4 ~other:2 ()

(* The profile-scaled versions of the class costs, interned once per VM
   in [make_cx] ([Cost.scale] is deterministic, so the interned record
   equals what per-call scaling used to produce).  The hot handlers
   charge these through the cached engine handle with no per-dispatch
   allocation or float work. *)
type cx = {
  rtc : Ctx.t;
  profile : Profile.t;
  eng : Engine.t;
  k_arith : Cost.t;
  k_cmp : Cost.t;
  k_attr : Cost.t;
  k_item : Cost.t;
  k_build : Cost.t;
  k_truth : Cost.t;
  k_global : Cost.t;
}

let make_cx rtc profile =
  let k =
    Cost.scale_all profile.Profile.op_scale
      [| c_arith; c_cmp; c_attr; c_item; c_build; c_truth; c_global |]
  in
  {
    rtc;
    profile;
    eng = Ctx.engine rtc;
    k_arith = k.(0);
    k_cmp = k.(1);
    k_attr = k.(2);
    k_item = k.(3);
    k_build = k.(4);
    k_truth = k.(5);
    k_global = k.(6);
  }

type t = Value.t

let rt cx = cx.rtc
let const _cx v = v
let concrete v = v
let[@inline] charge cx (c : Cost.t) = Engine.emit cx.eng c
let branch cx ~site ~taken = Engine.branch cx.eng ~site ~taken

let is_true cx v =
  charge cx cx.k_truth;
  let b = Value.truthy v in
  branch cx ~site:100_001 ~taken:b;
  b

let guard_int cx v =
  charge cx cx.k_truth;
  Semantics.as_int v

let guard_func cx v =
  charge cx cx.k_truth;
  if Value.is_obj v then
    match (Value.to_obj_unchecked v).Value.payload with
    | Value.Func f -> f
    | _ -> Semantics.err "%s object is not callable" (Value.type_name v)
  else Semantics.err "%s object is not callable" (Value.type_name v)

let method_parts cx v =
  charge cx cx.k_truth;
  if Value.is_obj v then
    match (Value.to_obj_unchecked v).Value.payload with
    | Value.Method m -> Some (Value.of_obj m.func, m.receiver)
    | _ -> None
  else None

let func_captured cx v i =
  charge cx cx.k_truth;
  if Value.is_obj v then
    match (Value.to_obj_unchecked v).Value.payload with
    | Value.Func fn when i < Array.length fn.Value.captured ->
        fn.Value.captured.(i)
    | _ -> Semantics.err "bad closure environment access"
  else Semantics.err "bad closure environment access"

let make_closure cx ~code_ref ~arity ~fname captured =
  charge cx cx.k_build;
  Gc_sim.obj (Ctx.gc cx.rtc)
    (Value.Func
       { func_id = code_ref; func_name = fname; arity; code_ref; captured })

let arith f cx a b =
  charge cx cx.k_arith;
  branch cx ~site:100_002 ~taken:(Value.is_int a);
  f cx.rtc a b

let add = arith Semantics.add
let mul = arith Semantics.mul
let sub = arith Rarith.sub
let floordiv = arith Rarith.floordiv
let truediv = arith Rarith.truediv

let modulo cx a b =
  charge cx cx.k_arith;
  if Value.is_str a then
    Semantics.err "string %% formatting is not supported"
  else Rarith.modulo cx.rtc a b

let pow = arith Rarith.pow
let lshift cx a b = charge cx cx.k_arith; Rarith.lshift cx.rtc a (Semantics.as_int b)
let rshift cx a b = charge cx cx.k_arith; Rarith.rshift cx.rtc a (Semantics.as_int b)

let int2 f cx a b =
  charge cx cx.k_arith;
  Value.of_int (f (Semantics.as_int a) (Semantics.as_int b))

let bitand = int2 ( land )
let bitor = int2 ( lor )
let bitxor = int2 ( lxor )

let neg cx a =
  charge cx cx.k_arith;
  Rarith.neg cx.rtc a

let compare cx op a b =
  charge cx cx.k_cmp;
  (* immediate-immediate fast path: for-loop exit tests and other hot
     int comparisons skip the generic dispatch in [compare_values].  It
     charges and branches exactly as the slow path does, so only
     host-side dispatch work is saved. *)
  let r =
    match op with
    | (Ops_intf.Lt | Ops_intf.Le | Ops_intf.Gt | Ops_intf.Ge | Ops_intf.Eq
      | Ops_intf.Ne)
      when Value.is_int a && Value.is_int b ->
        let c = Rarith.compare_num cx.rtc a b in
        Value.of_bool
          (match op with
          | Ops_intf.Lt -> c < 0
          | Ops_intf.Le -> c <= 0
          | Ops_intf.Gt -> c > 0
          | Ops_intf.Ge -> c >= 0
          | Ops_intf.Eq -> c = 0
          | _ -> c <> 0)
    | _ -> Semantics.compare_values cx.rtc op a b
  in
  branch cx ~site:100_003 ~taken:(Value.truthy r);
  r

let not_ cx a =
  charge cx cx.k_truth;
  Value.of_bool (not (Value.truthy a))

let getattr cx v name =
  charge cx cx.k_attr;
  Semantics.getattr cx.rtc v name

let setattr cx v name x =
  charge cx cx.k_attr;
  Semantics.setattr cx.rtc v name x

let builtin_value cx b = Builtins_impl.builtin_value cx.rtc b

let builtin_method name : Builtin.t option =
  match name with
  | "append" -> Some Builtin.Append
  | "pop" -> Some Builtin.Pop
  | "insert" -> Some Builtin.Insert
  | "extend" -> Some Builtin.Extend
  | "index" -> Some Builtin.Index
  | "keys" -> Some Builtin.Keys
  | "values" -> Some Builtin.Values
  | "items" -> Some Builtin.Items
  | "get" -> Some Builtin.Dict_get
  | "has_key" -> Some Builtin.Has_key
  | "join" -> Some Builtin.Join
  | "split" -> Some Builtin.Split
  | "replace" -> Some Builtin.Replace
  | "find" -> Some Builtin.Find
  | "strip" -> Some Builtin.Strip
  | "upper" -> Some Builtin.Upper
  | "lower" -> Some Builtin.Lower
  | "startswith" -> Some Builtin.Startswith
  | "add" -> Some Builtin.Set_add
  | "remove" -> Some Builtin.Set_remove
  | "issubset" -> Some Builtin.Issubset
  | "difference" -> Some Builtin.Difference
  | "union" -> Some Builtin.Union
  | "intersection" -> Some Builtin.Intersection
  | "translate" -> Some Builtin.Translate
  | "write" -> Some Builtin.Sio_write
  | "getvalue" -> Some Builtin.Sio_getvalue
  | "sort" -> None
  | _ -> None

let is_func_value f =
  Value.is_obj f
  &&
  match (Value.to_obj_unchecked f).Value.payload with
  | Value.Func _ -> true
  | _ -> false

let load_method cx v name =
  charge cx cx.k_attr;
  let fallback () =
    match builtin_method name with
    | Some b -> (builtin_value cx b, v)
    | None ->
        Semantics.err "%s object has no method '%s'" (Value.type_name v) name
  in
  if Value.is_obj v then
    match (Value.to_obj_unchecked v).Value.payload with
    | Value.Class c -> (
        (* unbound access: Task.__init__(self, ...), math.sqrt(x) *)
        match Semantics.class_attr c name with
        | Some a -> (a, Value.nil)
        | None ->
            Semantics.err "class %s has no attribute '%s'" c.Value.cls_name
              name)
    | Value.Instance _ -> (
        let cls = Semantics.instance_cls (Semantics.as_obj v) in
        match Semantics.class_attr cls name with
        | Some f when is_func_value f -> (f, v)
        | Some other -> (other, Value.nil)
        | None ->
            (* fall back to attribute slots holding callables *)
            (Semantics.getattr cx.rtc v name, Value.nil))
    | _ -> fallback ()
  else fallback ()

let getitem cx c k =
  charge cx cx.k_item;
  Semantics.getitem cx.rtc c k

let setitem cx c k v =
  charge cx cx.k_item;
  Semantics.setitem cx.rtc c k v

let len_ cx v =
  charge cx cx.k_truth;
  Value.of_int (Semantics.len_of cx.rtc v)

let unpack cx v n =
  charge cx cx.k_item;
  Semantics.unpack cx.rtc v n

let make_list cx items =
  charge cx cx.k_build;
  Value.of_obj (Rlist.create cx.rtc (Array.to_list items))

let make_tuple cx items =
  charge cx cx.k_build;
  Gc_sim.obj (Ctx.gc cx.rtc) (Value.Tuple items)

let make_dict cx pairs =
  charge cx cx.k_build;
  let d = Rdict.create cx.rtc in
  let o = Gc_sim.alloc (Ctx.gc cx.rtc) (Value.Dict d) in
  Array.iter (fun (k, v) -> Rdict.set cx.rtc o d k v) pairs;
  Value.of_obj o

let make_set cx items =
  charge cx cx.k_build;
  Value.of_obj (Rset.create cx.rtc (Array.to_list items))

let make_cell cx v =
  charge cx cx.k_build;
  Gc_sim.obj (Ctx.gc cx.rtc) (Value.Cell { cell = v })

let cell_get cx v =
  charge cx cx.k_truth;
  if Value.is_obj v then
    match (Value.to_obj_unchecked v).Value.payload with
    | Value.Cell c -> c.cell
    | _ -> Semantics.err "expected cell"
  else Semantics.err "expected cell"

let cell_set cx v x =
  charge cx cx.k_truth;
  if Value.is_obj v then
    let o = Value.to_obj_unchecked v in
    match o.Value.payload with
    | Value.Cell c ->
        c.cell <- x;
        Gc_sim.write_barrier (Ctx.gc cx.rtc) ~parent:o ~child:x
    | _ -> Semantics.err "expected cell"
  else Semantics.err "expected cell"

let alloc_instance cx clsv =
  charge cx cx.k_build;
  let cls_obj, cls = Semantics.as_cls clsv in
  Gc_sim.obj (Ctx.gc cx.rtc)
    (Value.Instance
       {
         cls = cls_obj;
         fields = Array.make (Array.length cls.Value.layout) Value.nil;
       })

let class_init_func cx clsv =
  charge cx cx.k_attr;
  let _, cls = Semantics.as_cls clsv in
  match Semantics.class_attr cls "__init__" with
  | Some f when Value.is_obj f -> (
      match (Value.to_obj_unchecked f).Value.payload with
      | Value.Func f -> Some f
      | _ -> None)
  | Some _ | None -> None

let load_global cx globals name =
  charge cx cx.k_global;
  match Globals.get globals name with
  | Some v -> v
  | None -> Semantics.err "name '%s' is not defined" name

let store_global cx globals name v =
  charge cx cx.k_global;
  Globals.set globals name v

let call_builtin cx b args =
  charge cx cx.k_item;
  Builtins_impl.run cx.rtc b args

