(** The tracing OPS instance: the meta-interpreter.

    Every operation executes concretely {e and} records trace IR.  Type
    dispatch becomes [guard_class]; promoted values (callees, classes,
    globals) become constants pinned by [guard_value]; operations with
    data-dependent loops (dict probes, bignum arithmetic, string
    building, set algebra) are recorded as residual calls to the same AOT
    functions the paper's Table III attributes time to.  A recorded
    arithmetic or cast op takes its record-time value from
    {!Eval_op.eval}, the definition the compiled trace runs, so the
    value the tracer continues with is by construction the one the trace
    computes; an int op under an overflow guard takes its overflow test
    from [Eval_op.checked_*]. *)

open Mtj_rt
open Ops_intf
module R = Recorder

type t = R.tval
type cx = R.t

let rt = R.rt
let concrete (tv : t) = tv.R.v
let const _cx v : t = { R.v; src = Ir.Const v }
let lift v : t = { R.v; src = Ir.Const v }
let err = Semantics.err

(* --- type shapes --- *)

(* guard the value's type shape unless it is already a trace constant *)
let guard_shape cx (tv : t) =
  match tv.R.src with
  | Ir.Const _ -> ()
  | Ir.Reg _ -> R.guard cx (Ir.G_class (Ir.tyshape_of tv.R.v)) [| tv.R.src |]

(* promote: pin the concrete value as a trace constant *)
let promote cx (tv : t) : t =
  match tv.R.src with
  | Ir.Const _ -> tv
  | Ir.Reg _ ->
      R.guard cx (Ir.G_value tv.R.v) [| tv.R.src |];
      { tv with src = Ir.Const tv.R.v }

(* --- residual AOT calls --- *)

let rc name src run ~effectful : Ir.rescall =
  { Ir.aot = Aot.register ~name ~src; run; effectful }

let residual_r cx (resc : Ir.rescall) (args : t array) : t =
  let cargs = Array.map concrete args in
  let result = resc.Ir.run (rt cx) cargs in
  R.emit cx (Ir.Call_r resc) (Array.map (fun (a : t) -> a.R.src) args) result

let residual_n cx (resc : Ir.rescall) (args : t array) =
  let cargs = Array.map concrete args in
  ignore (resc.Ir.run (rt cx) cargs);
  R.emit_n cx (Ir.Call_n resc) (Array.map (fun (a : t) -> a.R.src) args)

(* --- control --- *)

let is_true cx (tv : t) =
  let b = Value.truthy tv.R.v in
  (match tv.R.src with
  | Ir.Const _ -> ()
  | Ir.Reg _ ->
      R.guard cx (if b then Ir.G_true else Ir.G_false) [| tv.R.src |]);
  b

let guard_int cx (tv : t) =
  let n = Semantics.as_int tv.R.v in
  guard_shape cx tv;
  n

let guard_func cx (tv : t) =
  match Value.view tv.R.v with
  | Value.Obj { payload = Value.Func f; _ } ->
      guard_shape cx tv;
      f
  | _ -> err "%s object is not callable" (Value.type_name tv.R.v)

let rc_method_func =
  rc "W_Method.w_function" Aot.I
    (fun _c a ->
      match Value.view a.(0) with
      | Value.Obj { payload = Value.Method m; _ } -> Value.of_obj m.func
      | _ -> err "not a method: %s" (Value.type_name a.(0)))
    ~effectful:false

let rc_method_self =
  rc "W_Method.w_instance" Aot.I
    (fun _c a ->
      match Value.view a.(0) with
      | Value.Obj { payload = Value.Method m; _ } -> m.receiver
      | _ -> err "not a method: %s" (Value.type_name a.(0)))
    ~effectful:false

let method_parts cx (tv : t) =
  match Value.view tv.R.v with
  | Value.Obj { payload = Value.Method _; _ } ->
      guard_shape cx tv;
      let f = residual_r cx rc_method_func [| tv |] in
      let recv = residual_r cx rc_method_self [| tv |] in
      Some (f, recv)
  | _ -> None

let func_captured cx (tv : t) i =
  match Value.view tv.R.v with
  | Value.Obj { payload = Value.Func fn; _ }
    when i < Array.length fn.Value.captured ->
      guard_shape cx tv;
      R.emit cx (Ir.Getfield_gc i) [| tv.R.src |] fn.Value.captured.(i)
  | _ -> err "bad closure environment access"

(* closures allocate via a residual call so each trace iteration gets a
   fresh function object with its own captured cells.  The memo table is
   domain-local (code_refs are only unique within a VM, and VMs on other
   domains must not observe this domain's entries), and keyed by the
   full (code_ref, arity, fname) triple so that a code_ref reused by a
   later VM on the same domain cannot alias a stale closure. *)
let closure_rc_tbl_key :
    (int * int * string, Ir.rescall) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

(* Pre-register every AOT name that is minted lazily during tracing
   (inside [neg], [compare], [setitem], [unpack], global load/store and
   [closure_rc] below).  After {!Aot.freeze} the registry rejects new
   names, so each of these must already exist before the first worker
   domain spawns; the lazy [rc] calls then resolve to these entries. *)
let () =
  List.iter
    (fun (name, src) -> ignore (Aot.register ~name ~src))
    [
      ("interp.make_closure", Aot.I);
      ("W_Object.descr_neg", Aot.I);
      ("W_Object.descr_richcompare", Aot.I);
      ("W_Object.descr_setitem", Aot.I);
      ("W_Object.descr_unpack", Aot.I);
      ("Module.getdictvalue", Aot.I);
      ("Module.setdictvalue", Aot.I);
    ]

let closure_rc code_ref arity fname =
  let tbl = Domain.DLS.get closure_rc_tbl_key in
  let key = (code_ref, arity, fname) in
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
      let r =
        rc "interp.make_closure" Aot.I
          (fun c args ->
            Gc_sim.obj (Ctx.gc c)
              (Value.Func
                 {
                   func_id = code_ref;
                   func_name = fname;
                   arity;
                   code_ref;
                   captured = args;
                 }))
          ~effectful:false
      in
      Hashtbl.replace tbl key r;
      r

let make_closure cx ~code_ref ~arity ~fname (captured : t array) =
  residual_r cx (closure_rc code_ref arity fname) captured

(* --- arithmetic --- *)

(* record a pure op with the value {!Eval_op.eval} computes for it *)
let pure1 cx opcode (a : t) : t =
  R.emit cx opcode [| a.R.src |] (Eval_op.eval opcode [| a.R.v |])

let pure2 cx opcode (a : t) (b : t) : t =
  R.emit cx opcode [| a.R.src; b.R.src |]
    (Eval_op.eval opcode [| a.R.v; b.R.v |])

let[@inline] int_like (v : Value.t) = Value.is_int v || Value.is_bool v

let as_int = Semantics.as_int

let rc_add = rc "rbigint.add" Aot.L (fun c a -> Semantics.add c a.(0) a.(1)) ~effectful:false
let rc_sub = rc "rbigint.sub" Aot.L (fun c a -> Rarith.sub c a.(0) a.(1)) ~effectful:false
let rc_mul = rc "rbigint.mul" Aot.L (fun c a -> Semantics.mul c a.(0) a.(1)) ~effectful:false
let rc_floordiv = rc "rbigint.divmod" Aot.L (fun c a -> Rarith.floordiv c a.(0) a.(1)) ~effectful:false
let rc_mod = rc "rbigint.divmod" Aot.L (fun c a -> Rarith.modulo c a.(0) a.(1)) ~effectful:false
let rc_pow = rc "pow" Aot.C (fun c a -> Rarith.pow c a.(0) a.(1)) ~effectful:false
let rc_lshift =
  rc "rbigint.lshift" Aot.L
    (fun c a -> Rarith.lshift c a.(0) (Semantics.as_int a.(1)))
    ~effectful:false
let rc_rshift =
  rc "rbigint.rshift" Aot.L
    (fun c a -> Rarith.rshift c a.(0) (Semantics.as_int a.(1)))
    ~effectful:false
let rc_generic_add =
  rc "W_Object.descr_add" Aot.I (fun c a -> Semantics.add c a.(0) a.(1)) ~effectful:false
let rc_generic_mul =
  rc "W_Object.descr_mul" Aot.I (fun c a -> Semantics.mul c a.(0) a.(1)) ~effectful:false

let both_int (a : t) (b : t) = int_like a.R.v && int_like b.R.v

let is_float = Value.is_float
let is_str = Value.is_str

let has_bigint (a : t) (b : t) =
  let big (tv : t) =
    Value.is_obj tv.R.v
    &&
    match (Value.to_obj_unchecked tv.R.v).Value.payload with
    | Value.Bigint _ -> true
    | _ -> false
  in
  big a || big b

(* coerce a tracked number to a float-typed tracked value, recording the
   cast when needed *)
let to_float_t cx (tv : t) : t =
  let v = tv.R.v in
  if Value.is_float v then begin
    guard_shape cx tv;
    tv
  end
  else if int_like v then begin
    guard_shape cx tv;
    pure1 cx Ir.Cast_int_to_float tv
  end
  else err "expected number, got %s" (Value.type_name v)

let float_binop cx opcode (a : t) (b : t) : t =
  let fa = to_float_t cx a and fb = to_float_t cx b in
  pure2 cx opcode fa fb

let int_ovf_binop cx opcode gkind checked big_rc (a : t) (b : t) : t =
  guard_shape cx a;
  guard_shape cx b;
  match checked (as_int a.R.v) (as_int b.R.v) with
  | (_ : int) ->
      let res = pure2 cx opcode a b in
      R.guard cx gkind [| a.R.src; b.R.src |];
      res
  | exception Eval_op.Overflow ->
      (* overflowed during tracing: record the bignum path *)
      residual_r cx big_rc [| a; b |]

let add cx (a : t) (b : t) =
  if both_int a b then
    int_ovf_binop cx Ir.Int_add Ir.G_no_ovf_add Eval_op.checked_add rc_add a b
  else if is_float a.R.v || is_float b.R.v then
    float_binop cx Ir.Float_add a b
  else if is_str a.R.v && is_str b.R.v then begin
    guard_shape cx a;
    guard_shape cx b;
    R.emit cx Ir.Str_concat
      [| a.R.src; b.R.src |]
      (Semantics.add (rt cx) a.R.v b.R.v)
  end
  else if has_bigint a b then residual_r cx rc_add [| a; b |]
  else begin
    guard_shape cx a;
    guard_shape cx b;
    residual_r cx rc_generic_add [| a; b |]
  end

let sub cx a b =
  if both_int a b then
    int_ovf_binop cx Ir.Int_sub Ir.G_no_ovf_sub Eval_op.checked_sub rc_sub a b
  else if is_float a.R.v || is_float b.R.v then float_binop cx Ir.Float_sub a b
  else residual_r cx rc_sub [| a; b |]

let mul cx a b =
  if both_int a b then
    int_ovf_binop cx Ir.Int_mul Ir.G_no_ovf_mul Eval_op.checked_mul rc_mul a b
  else if is_float a.R.v || is_float b.R.v then float_binop cx Ir.Float_mul a b
  else if has_bigint a b then residual_r cx rc_mul [| a; b |]
  else begin
    guard_shape cx a;
    guard_shape cx b;
    residual_r cx rc_generic_mul [| a; b |]
  end

(* guard that an int divisor is nonzero: int_is_zero + guard_false *)
let guard_nonzero cx (b : t) y =
  if y = 0 then raise Division_by_zero;
  match b.R.src with
  | Ir.Const _ -> ()
  | Ir.Reg _ ->
      let z = R.emit cx Ir.Int_is_zero [| b.R.src |] Value.false_ in
      R.guard cx Ir.G_false [| z.R.src |]

(* int [//] and [%]: a nonzero-guarded divisor, then the op; every
   other operand type (float [//] and [%] included) is a residual call *)
let int_div cx opcode (a : t) (b : t) =
  guard_shape cx a;
  guard_shape cx b;
  guard_nonzero cx b (as_int b.R.v);
  pure2 cx opcode a b

let floordiv cx (a : t) (b : t) =
  if both_int a b then int_div cx Ir.Int_floordiv a b
  else residual_r cx rc_floordiv [| a; b |]

let modulo cx (a : t) (b : t) =
  if both_int a b then int_div cx Ir.Int_mod a b
  else residual_r cx rc_mod [| a; b |]

let truediv cx (a : t) (b : t) = float_binop cx Ir.Float_truediv a b

let pow cx (a : t) (b : t) = residual_r cx rc_pow [| a; b |]

let neg cx (a : t) =
  let v = a.R.v in
  if Value.is_int v && Value.to_int_unchecked v <> min_int then begin
    guard_shape cx a;
    pure1 cx Ir.Int_neg a
  end
  else if Value.is_float v then begin
    guard_shape cx a;
    pure1 cx Ir.Float_neg a
  end
  else
    residual_r cx
      (rc "W_Object.descr_neg" Aot.I (fun c ar -> Rarith.neg c ar.(0)) ~effectful:false)
      [| a |]

let lshift cx (a : t) (b : t) =
  let const_shift =
    match b.R.src with Ir.Const _ -> true | Ir.Reg _ -> false
  in
  if Value.is_int a.R.v && Value.is_int b.R.v then begin
    let x = Value.to_int_unchecked a.R.v
    and n = Value.to_int_unchecked b.R.v in
    if const_shift && n < 40 && x > -(1 lsl 20) && x < 1 lsl 20 then begin
      (* constant shift of a small int: inline, guarded by magnitude
         (x + 2^20 must stay within [0, 2^21)); explicit range rather
         than [abs], which would wrongly admit min_int *)
      guard_shape cx a;
      let shifted = pure2 cx Ir.Int_add a (lift (Value.of_int (1 lsl 20))) in
      R.guard cx Ir.G_index_lt
        [| shifted.R.src; Ir.Const (Value.of_int (1 lsl 21)) |];
      pure2 cx Ir.Int_lshift a b
    end
    else
      (* data-dependent shifts go through the bignum runtime *)
      residual_r cx rc_lshift [| a; b |]
  end
  else residual_r cx rc_lshift [| a; b |]

let rshift cx (a : t) (b : t) =
  if
    Value.is_int a.R.v && Value.is_int b.R.v
    && Value.to_int_unchecked a.R.v >= 0
  then begin
    guard_shape cx a;
    guard_shape cx b;
    pure2 cx Ir.Int_rshift a b
  end
  else residual_r cx rc_rshift [| a; b |]

let int2 cx opcode (a : t) (b : t) =
  guard_shape cx a;
  guard_shape cx b;
  pure2 cx opcode a b

let bitand cx a b = int2 cx Ir.Int_and a b
let bitor cx a b = int2 cx Ir.Int_or a b
let bitxor cx a b = int2 cx Ir.Int_xor a b

(* --- comparison --- *)

let cmp_ir_int : cmp -> Ir.opcode option = function
  | Lt -> Some Ir.Int_lt
  | Le -> Some Ir.Int_le
  | Gt -> Some Ir.Int_gt
  | Ge -> Some Ir.Int_ge
  | Eq -> Some Ir.Int_eq
  | Ne -> Some Ir.Int_ne
  | Is | Is_not | In | Not_in -> None

let cmp_ir_float : cmp -> Ir.opcode option = function
  | Lt -> Some Ir.Float_lt
  | Le -> Some Ir.Float_le
  | Gt -> Some Ir.Float_gt
  | Ge -> Some Ir.Float_ge
  | Eq -> Some Ir.Float_eq
  | Ne -> Some Ir.Float_ne
  | Is | Is_not | In | Not_in -> None

let rc_cmp op =
  rc "W_Object.descr_richcompare" Aot.I
    (fun c a -> Semantics.compare_values c op a.(0) a.(1))
    ~effectful:false

let compare cx op (a : t) (b : t) =
  let result () = Semantics.compare_values (rt cx) op a.R.v b.R.v in
  match op with
  | Is | Is_not ->
      let opcode = if op = Is then Ir.Ptr_eq else Ir.Ptr_ne in
      R.emit cx opcode [| a.R.src; b.R.src |] (result ())
  | In | Not_in -> residual_r cx (rc_cmp op) [| a; b |]
  | Lt | Le | Gt | Ge | Eq | Ne -> (
      if both_int a b then begin
        guard_shape cx a;
        guard_shape cx b;
        match cmp_ir_int op with
        | Some opcode -> R.emit cx opcode [| a.R.src; b.R.src |] (result ())
        | None -> assert false
      end
      else if
        (is_float a.R.v || is_float b.R.v)
        && Rarith.is_number a.R.v && Rarith.is_number b.R.v
      then begin
        let fa = to_float_t cx a and fb = to_float_t cx b in
        match cmp_ir_float op with
        | Some opcode -> R.emit cx opcode [| fa.R.src; fb.R.src |] (result ())
        | None -> assert false
      end
      else if is_str a.R.v && is_str b.R.v && (op = Eq || op = Ne) then begin
        guard_shape cx a;
        guard_shape cx b;
        let r = R.emit cx Ir.Str_eq [| a.R.src; b.R.src |] (result ()) in
        if op = Ne then
          R.emit cx Ir.Int_is_zero [| r.R.src |] (result ())
        else r
      end
      else residual_r cx (rc_cmp op) [| a; b |])

let not_ cx (a : t) =
  let b = is_true cx a in
  lift (Value.of_bool (not b))

(* --- attributes --- *)

let is_func_value f =
  Value.is_obj f
  &&
  match (Value.to_obj_unchecked f).Value.payload with
  | Value.Func _ -> true
  | _ -> false

let rc_getattr =
  rc "W_TypeObject.lookup" Aot.I
    (fun c a -> Semantics.getattr c a.(0) (Semantics.as_str a.(1)))
    ~effectful:false

let rc_setattr =
  rc "W_Object.setdictvalue" Aot.I
    (fun c a ->
      Semantics.setattr c a.(0) (Semantics.as_str a.(1)) a.(2);
      Value.nil)
    ~effectful:true

let getattr cx (tv : t) name =
  match Value.view tv.R.v with
  | Value.Obj { payload = Value.Instance i; _ } -> (
      guard_shape cx tv;
      let cls = Semantics.instance_cls (Semantics.as_obj tv.R.v) in
      match Semantics.layout_index cls name with
      | Some idx ->
          R.emit cx (Ir.Getfield_gc idx) [| tv.R.src |]
            (Semantics.field_get i idx)
      | None -> residual_r cx rc_getattr [| tv; lift (Value.of_str name) |])
  | Value.Obj { payload = Value.Class _; _ } ->
      let tv = promote cx tv in
      lift (Semantics.getattr (rt cx) tv.R.v name)
  | _ -> residual_r cx rc_getattr [| tv; lift (Value.of_str name) |]

let setattr cx (tv : t) name (x : t) =
  match Value.view tv.R.v with
  | Value.Obj { payload = Value.Instance _; _ } -> (
      guard_shape cx tv;
      let cls = Semantics.instance_cls (Semantics.as_obj tv.R.v) in
      match Semantics.layout_index cls name with
      | Some idx ->
          Semantics.setattr (rt cx) tv.R.v name x.R.v;
          R.emit_n cx (Ir.Setfield_gc idx) [| tv.R.src; x.R.src |]
      | None ->
          (* first write grows the class layout; do it concretely, then
             record the write at the now-fixed index *)
          Semantics.setattr (rt cx) tv.R.v name x.R.v;
          let idx =
            match Semantics.layout_index cls name with
            | Some idx -> idx
            | None -> assert false
          in
          R.emit_n cx (Ir.Setfield_gc idx) [| tv.R.src; x.R.src |])
  | _ -> residual_n cx rc_setattr [| tv; lift (Value.of_str name); x |]

let load_method cx (tv : t) name : t * t =
  match Value.view tv.R.v with
  | Value.Obj { payload = Value.Class c; _ } -> (
      let tv = promote cx tv in
      ignore tv;
      match Semantics.class_attr c name with
      | Some a -> (lift a, lift Value.nil)
      | None -> err "class %s has no attribute '%s'" c.Value.cls_name name)
  | Value.Obj { payload = Value.Instance _; _ } -> (
      guard_shape cx tv;
      let cls = Semantics.instance_cls (Semantics.as_obj tv.R.v) in
      match Semantics.class_attr cls name with
      | Some f when is_func_value f ->
          (* the class is pinned by the shape guard, so the method is a
             trace constant *)
          (lift f, tv)
      | Some other -> (lift other, lift Value.nil)
      | None ->
          (residual_r cx rc_getattr [| tv; lift (Value.of_str name) |],
           lift Value.nil))
  | _ -> (
      match Direct_ops.builtin_method name with
      | Some b ->
          guard_shape cx tv;
          (lift (Builtins_impl.builtin_value (rt cx) b), tv)
      | None ->
          err "%s object has no method '%s'" (Value.type_name tv.R.v) name)

(* --- subscripts --- *)

let rc_dict_get =
  rc "rordereddict.ll_call_lookup_function" Aot.R
    (fun c a -> Semantics.getitem c a.(0) a.(1))
    ~effectful:false

let rc_dict_set =
  rc "rordereddict.ll_call_lookup_function" Aot.R
    (fun c a ->
      Semantics.setitem c a.(0) a.(1) a.(2);
      Value.nil)
    ~effectful:true

let rc_getitem_generic =
  rc "W_Object.descr_getitem" Aot.I
    (fun c a -> Semantics.getitem c a.(0) a.(1))
    ~effectful:false

(* bounds-guarded index: returns the (possibly wrapped) index operand *)
let guarded_index cx (cont : t) (key : t) len len_opcode =
  guard_shape cx key;
  let i = as_int key.R.v in
  let len_t = R.emit cx len_opcode [| cont.R.src |] (Value.of_int len) in
  if i >= 0 then begin
    R.guard cx Ir.G_index_lt [| key.R.src; len_t.R.src |];
    (key, i)
  end
  else begin
    let wrapped = pure2 cx Ir.Int_add key len_t in
    R.guard cx Ir.G_index_lt [| wrapped.R.src; len_t.R.src |];
    (wrapped, i + len)
  end

let getitem cx (cont : t) (key : t) =
  match (Value.view cont.R.v, Value.view key.R.v) with
  | Value.Obj { payload = Value.List l; _ }, Value.Int _ ->
      guard_shape cx cont;
      let n = Value.list_len l in
      let idx, i = guarded_index cx cont key n Ir.Arraylen in
      if i < 0 || i >= n then err "list index out of range";
      R.emit cx Ir.Getlistitem [| cont.R.src; idx.R.src |]
        (Rlist.get (rt cx) (Semantics.as_list cont.R.v) i)
  | Value.Obj { payload = Value.Tuple a; _ }, Value.Int _ ->
      guard_shape cx cont;
      let n = Array.length a in
      let idx, i = guarded_index cx cont key n Ir.Arraylen in
      if i < 0 || i >= n then err "tuple index out of range";
      R.emit cx Ir.Getarrayitem_gc [| cont.R.src; idx.R.src |] a.(i)
  | Value.Str s, Value.Int _ ->
      guard_shape cx cont;
      let n = String.length s in
      let idx, i = guarded_index cx cont key n Ir.Strlen in
      if i < 0 || i >= n then err "string index out of range";
      R.emit cx Ir.Strgetitem [| cont.R.src; idx.R.src |]
        (Value.of_str (String.make 1 s.[i]))
  | Value.Obj { payload = Value.Dict _; _ }, _ ->
      guard_shape cx cont;
      residual_r cx rc_dict_get [| cont; key |]
  | _ -> residual_r cx rc_getitem_generic [| cont; key |]

let setitem cx (cont : t) (key : t) (v : t) =
  match (Value.view cont.R.v, Value.view key.R.v) with
  | Value.Obj { payload = Value.List l; _ }, Value.Int _ ->
      guard_shape cx cont;
      let n = Value.list_len l in
      let idx, i = guarded_index cx cont key n Ir.Arraylen in
      if i < 0 || i >= n then err "list assignment index out of range";
      Rlist.set (rt cx) (Semantics.as_list cont.R.v) i v.R.v;
      R.emit_n cx Ir.Setlistitem [| cont.R.src; idx.R.src; v.R.src |]
  | Value.Obj { payload = Value.Dict _; _ }, _ ->
      guard_shape cx cont;
      residual_n cx rc_dict_set [| cont; key; v |]
  | _ ->
      residual_n cx
        (rc "W_Object.descr_setitem" Aot.I
           (fun c a ->
             Semantics.setitem c a.(0) a.(1) a.(2);
             Value.nil)
           ~effectful:true)
        [| cont; key; v |]

let len_ cx (tv : t) =
  match Value.view tv.R.v with
  | Value.Str s ->
      guard_shape cx tv;
      R.emit cx Ir.Strlen [| tv.R.src |] (Value.of_int (String.length s))
  | Value.Obj { payload = Value.List _ | Value.Tuple _ | Value.Dict _ | Value.Set _; _ } ->
      guard_shape cx tv;
      R.emit cx Ir.Arraylen [| tv.R.src |]
        (Value.of_int (Semantics.len_of (rt cx) tv.R.v))
  | _ -> err "object of type %s has no len()" (Value.type_name tv.R.v)

let unpack cx (tv : t) n =
  match Value.view tv.R.v with
  | Value.Obj { payload = Value.Tuple a; _ } when Array.length a = n ->
      guard_shape cx tv;
      let len_t =
        R.emit cx Ir.Arraylen [| tv.R.src |] (Value.of_int (Array.length a))
      in
      R.guard cx (Ir.G_value (Value.of_int n)) [| len_t.R.src |];
      Array.init n (fun i ->
          R.emit cx Ir.Getarrayitem_gc
            [| tv.R.src; Ir.Const (Value.of_int i) |]
            a.(i))
  | _ ->
      (* one residual call per item, each recorded with the item the
         tracer continues with *)
      let values = Semantics.unpack (rt cx) tv.R.v n in
      Array.init n (fun i ->
          R.emit cx
            (Ir.Call_r
               (rc "W_Object.descr_unpack" Aot.I
                  (fun c a ->
                    (Semantics.unpack c a.(0) (Semantics.as_int a.(1))).(Semantics.as_int a.(2)))
                  ~effectful:false))
            [| tv.R.src; Ir.Const (Value.of_int n); Ir.Const (Value.of_int i) |]
            values.(i))

(* --- construction --- *)

let make_list cx (items : t array) =
  let v =
    Value.of_obj
      (Rlist.create (rt cx) (Array.to_list (Array.map concrete items)))
  in
  R.emit cx (Ir.New_list (Array.length items))
    (Array.map (fun (a : t) -> a.R.src) items)
    v

let make_tuple cx (items : t array) =
  let v =
    Gc_sim.obj (Ctx.gc (rt cx)) (Value.Tuple (Array.map concrete items))
  in
  R.emit cx (Ir.New_array (Array.length items))
    (Array.map (fun (a : t) -> a.R.src) items)
    v

let rc_make_dict =
  rc "rordereddict.ll_newdict" Aot.R
    (fun c a ->
      let d = Rdict.create c in
      let o = Gc_sim.alloc (Ctx.gc c) (Value.Dict d) in
      let n = Array.length a / 2 in
      for i = 0 to n - 1 do
        Rdict.set c o d a.(2 * i) a.((2 * i) + 1)
      done;
      Value.of_obj o)
    ~effectful:false

let make_dict cx pairs =
  let flat = Array.concat (Array.to_list (Array.map (fun (k, v) -> [| k; v |]) pairs)) in
  residual_r cx rc_make_dict flat

let rc_make_set =
  rc "ObjectSetStrategy_new" Aot.I
    (fun c a -> Value.of_obj (Rset.create c (Array.to_list a)))
    ~effectful:false

let make_set cx items = residual_r cx rc_make_set items

let make_cell cx (v : t) =
  let cell = Gc_sim.obj (Ctx.gc (rt cx)) (Value.Cell { cell = v.R.v }) in
  R.emit cx Ir.New_cell [| v.R.src |] cell

let cell_get cx (tv : t) =
  match Value.view tv.R.v with
  | Value.Obj { payload = Value.Cell c; _ } ->
      guard_shape cx tv;
      R.emit cx Ir.Getcell [| tv.R.src |] c.cell
  | _ -> err "expected cell"

let cell_set cx (tv : t) (x : t) =
  match Value.view tv.R.v with
  | Value.Obj ({ payload = Value.Cell c; _ } as o) ->
      guard_shape cx tv;
      c.cell <- x.R.v;
      Gc_sim.write_barrier (Ctx.gc (rt cx)) ~parent:o ~child:x.R.v;
      R.emit_n cx Ir.Setcell [| tv.R.src; x.R.src |]
  | _ -> err "expected cell"

(* --- classes --- *)

let alloc_instance cx (clsv : t) =
  let clsv = promote cx clsv in
  let cls_obj, cls = Semantics.as_cls clsv.R.v in
  let inst =
    Gc_sim.obj (Ctx.gc (rt cx))
      (Value.Instance
         {
           cls = cls_obj;
           fields = Array.make (Array.length cls.Value.layout) Value.nil;
         })
  in
  R.emit cx (Ir.New_with_vtable cls_obj) [||] inst

let class_init_func cx (clsv : t) =
  let _, cls = Semantics.as_cls (promote cx clsv).R.v in
  match Semantics.class_attr cls "__init__" with
  | Some f -> (
      match Value.view f with
      | Value.Obj { payload = Value.Func f; _ } -> Some f
      | _ -> None)
  | None -> None

(* --- globals --- *)

let load_global cx globals name =
  match Globals.binding globals name with
  | Some (Globals.Direct v) ->
      (* assigned once: promote to a constant under the version guard *)
      R.guard cx
        (Ir.G_global_version (globals.Globals.version, !(globals.Globals.version)))
        [||];
      lift v
  | Some (Globals.Celled cell) ->
      (* reassigned name (PyPy's ModuleCell): the binding's existence is
         version-guarded, but its value is read at runtime so stores
         don't invalidate the trace *)
      R.guard cx
        (Ir.G_global_version (globals.Globals.version, !(globals.Globals.version)))
        [||];
      residual_r cx
        (rc "Module.getdictvalue" Aot.I (fun _c _a -> !cell) ~effectful:false)
        [||]
  | None -> err "name '%s' is not defined" name

let store_global cx globals name (v : t) =
  residual_n cx
    (rc "Module.setdictvalue" Aot.I
       (fun _c a ->
         Globals.set globals name a.(0);
         Value.nil)
       ~effectful:true)
    [| v |]

(* --- builtins --- *)

let builtin_aot_name (b : Builtin.t) =
  match b with
  | Builtin.Append | Builtin.Insert | Builtin.Extend ->
      ("W_ListObject.append", Aot.I)
  | Builtin.Pop -> ("IntegerListStrategy_pop", Aot.I)
  | Builtin.Index -> ("IntegerListStrategy_safe_find", Aot.I)
  | Builtin.Dict_get | Builtin.Has_key | Builtin.Keys | Builtin.Values
  | Builtin.Items ->
      ("rordereddict.ll_call_lookup_function", Aot.R)
  | Builtin.Join -> ("rstr.ll_join", Aot.R)
  | Builtin.Split -> ("rstring.split", Aot.L)
  | Builtin.Replace -> ("rstring.replace", Aot.L)
  | Builtin.Find -> ("rstr.ll_find_char", Aot.R)
  | Builtin.Translate -> ("W_UnicodeObject_descr_translate", Aot.I)
  | Builtin.Encode_json -> ("_pypyjson.raw_encode_basestring_ascii", Aot.M)
  | Builtin.Sio_write -> ("rbuilder.ll_append", Aot.R)
  | Builtin.Sio_getvalue -> ("rbuilder.build", Aot.R)
  | Builtin.Sqrt | Builtin.Sin | Builtin.Cos | Builtin.Floor_f ->
      ("math.libm_call", Aot.C)
  | Builtin.Powf -> ("pow", Aot.C)
  | Builtin.Set_add -> ("ObjectSetStrategy_add", Aot.I)
  | Builtin.Set_remove -> ("ObjectSetStrategy_remove", Aot.I)
  | Builtin.Issubset -> ("BytesSetStrategy_issubset_unwrapped", Aot.I)
  | Builtin.Difference -> ("BytesSetStrategy_difference_unwrapped", Aot.I)
  | Builtin.Union -> ("ObjectSetStrategy_union", Aot.I)
  | Builtin.Intersection -> ("ObjectSetStrategy_intersect", Aot.I)
  | Builtin.Sorted -> ("listsort.TimSort", Aot.L)
  | Builtin.To_str | Builtin.Repr -> ("W_Object.descr_str", Aot.I)
  | Builtin.To_int -> ("arithmetic.string_to_int", Aot.L)
  | Builtin.Hashf -> ("rstr_ll_strhash", Aot.R)
  | Builtin.Slice_get -> ("IntegerListStrategy_fill_in_with_sliced_items", Aot.I)
  | Builtin.Slice_set -> ("IntegerListStrategy_setslice", Aot.I)
  | Builtin.Del_item -> ("rordereddict.ll_call_lookup_function", Aot.R)
  | Builtin.Make_vector -> ("ObjectListStrategy_newlist", Aot.I)
  | b -> ("builtin." ^ Builtin.name b, Aot.I)

let builtin_effectful (b : Builtin.t) =
  match b with
  | Builtin.Append | Builtin.Pop | Builtin.Insert | Builtin.Extend
  | Builtin.Set_add | Builtin.Set_remove | Builtin.Sio_write | Builtin.Print
  | Builtin.Annotate | Builtin.Del_item | Builtin.Slice_set
  | Builtin.Display ->
      true
  | _ -> false

(* Populated eagerly for every builtin at module-initialization time
   (single-domain, before Aot freezes), after which the table is
   read-only and safe to consult from any domain without a lock. *)
let rc_builtin_tbl : (Builtin.t, Ir.rescall) Hashtbl.t = Hashtbl.create 64

let () =
  List.iter
    (fun b ->
      let name, src = builtin_aot_name b in
      Hashtbl.replace rc_builtin_tbl b
        (rc name src
           (fun c a -> Builtins_impl.run c b a)
           ~effectful:(builtin_effectful b)))
    Builtin.all

let rc_builtin b =
  match Hashtbl.find_opt rc_builtin_tbl b with
  | Some r -> r
  | None -> invalid_arg ("rc_builtin: unregistered builtin " ^ Builtin.name b)

let call_builtin cx (b : Builtin.t) (args : t array) : t =
  match b with
  | Builtin.Len when Array.length args = 1 -> len_ cx args.(0)
  | Builtin.Annotate when Array.length args = 1 ->
      residual_n cx (rc_builtin b) args;
      lift Value.nil
  | _ ->
      if Array.length args > 0 then begin
        (* pin the receiver/first-argument shape so the residual call's
           fast path stays valid *)
        if Value.is_obj args.(0).R.v || Value.is_str args.(0).R.v then
          guard_shape cx args.(0)
      end;
      residual_r cx (rc_builtin b) args
