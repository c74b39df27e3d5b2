(** Trace optimizer.

    Runs the passes the RPython optimizer applies to a recorded meta-trace
    (Sec. II; their combined effect is what Figures 6–8 measure):

    - constant folding of pure operations;
    - guard strengthening: a guard implied by an earlier guard on the same
      SSA register (or by a known allocation) is removed — sound because
      a trace is straight-line code whose entry registers are only
      refreshed by the trailing [jump];
    - heap forwarding: a [getfield]/[getlistitem]/[arraylen]/[getcell]
      whose value is already known from an earlier access is forwarded,
      invalidated across effectful residual calls and aliasing stores;
    - escape analysis: allocations that never escape the trace are
      removed ("virtuals"); guard resume data is rewritten to carry
      materialization descriptors so deoptimization can rebuild them;
    - dead-code elimination of unused pure results.

    Each pass can be toggled from {!Mtj_core.Config} for the ablation
    benchmarks. *)

open Mtj_core

(* keys for heap-forwarding and guard-dedup tables *)
type okey = K_reg of int | K_int of int | K_obj of int | K_none

let okey_of (o : Ir.operand) =
  match o with
  | Ir.Reg r -> K_reg r
  | Ir.Const c ->
      if Mtj_rt.Value.is_int c then K_int (Mtj_rt.Value.to_int_unchecked c)
      else if Mtj_rt.Value.is_obj c then
        K_obj (Mtj_rt.Value.to_obj_unchecked c).Mtj_rt.Value.uid
      else K_none

(* integer value bounds, for RPython-style intbounds guard removal *)
type bounds = { lo : int; hi : int }

(* values stay clear of the 63-bit limits so single operations cannot
   overflow the representation *)
let max_safe = (1 lsl 62) - 1

(* Per-register flags in a dense byte map, grown on demand.  Registers
   are small dense ints, so a flag test is a bounds check and a byte
   load where a table would hash and probe. *)
type regflags = { mutable bits : Bytes.t }

let f_subst = 1     (* has an entry in [subst] *)
let f_virtual = 2   (* an allocation escape analysis removes *)
let f_cand = 4      (* an allocation escape analysis considers *)
let f_escaped = 8   (* a candidate that escapes *)

let regflags () = { bits = Bytes.make 256 '\000' }

let[@inline] flags m r =
  if r >= 0 && r < Bytes.length m.bits then
    Char.code (Bytes.unsafe_get m.bits r)
  else 0

let[@inline] has m r f = flags m r land f <> 0

let set_flag m r f =
  if r >= Bytes.length m.bits then begin
    let b = Bytes.make (max (r + 1) (2 * Bytes.length m.bits)) '\000' in
    Bytes.blit m.bits 0 b 0 (Bytes.length m.bits);
    m.bits <- b
  end;
  Bytes.unsafe_set m.bits r (Char.unsafe_chr (flags m r lor f))

type env = {
  cfg : Config.t;
  subst : (int, Ir.operand) Hashtbl.t;
  marks : regflags;  (* [f_subst] on every key of [subst] *)
  int_bounds : (int, bounds) Hashtbl.t;
  shapes : (int, Ir.tyshape) Hashtbl.t;
  truthy : (int, bool * int) Hashtbl.t;           (* reg -> value, epoch *)
  gvalues : (int, Mtj_rt.Value.t) Hashtbl.t;
  novf_seen : (int * okey * okey, unit) Hashtbl.t;
  idx_seen : (okey * okey, int) Hashtbl.t;        (* -> epoch *)
  mutable gver_seen : (int ref * int) list;       (* epoch-free: see note *)
  heap_fields : (okey * int, Ir.operand) Hashtbl.t;
  heap_items : (okey * okey, Ir.operand) Hashtbl.t;
  heap_lens : (okey, Ir.operand) Hashtbl.t;
  heap_cells : (okey, Ir.operand) Hashtbl.t;
  mutable epoch : int;
}

let make_env cfg =
  {
    cfg;
    subst = Hashtbl.create 64;
    marks = regflags ();
    int_bounds = Hashtbl.create 64;
    shapes = Hashtbl.create 64;
    truthy = Hashtbl.create 64;
    gvalues = Hashtbl.create 16;
    novf_seen = Hashtbl.create 32;
    idx_seen = Hashtbl.create 32;
    gver_seen = [];
    heap_fields = Hashtbl.create 64;
    heap_items = Hashtbl.create 64;
    heap_lens = Hashtbl.create 32;
    heap_cells = Hashtbl.create 16;
    epoch = 0;
  }

let substitute env r (o : Ir.operand) =
  Hashtbl.replace env.subst r o;
  set_flag env.marks r f_subst

let resolve env (o : Ir.operand) =
  match o with
  | Ir.Reg r when has env.marks r f_subst -> Hashtbl.find env.subst r
  | _ -> o

(* [args] with [resolve] applied to each substituted register, or
   [args] itself when it names none *)
let resolve_args marks resolve (args : Ir.operand array) =
  let n = Array.length args in
  let rec first i =
    if i = n then n
    else
      match Array.unsafe_get args i with
      | Ir.Reg r when has marks r f_subst -> i
      | _ -> first (i + 1)
  in
  let i = first 0 in
  if i = n then args
  else begin
    let a = Array.copy args in
    for j = i to n - 1 do
      a.(j) <- resolve args.(j)
    done;
    a
  end

let const_of = function Ir.Const v -> Some v | Ir.Reg _ -> None

let clear_heap env =
  Hashtbl.reset env.heap_fields;
  Hashtbl.reset env.heap_items;
  Hashtbl.reset env.heap_lens;
  Hashtbl.reset env.heap_cells

let bump_effect env =
  env.epoch <- env.epoch + 1

(* shape established by an allocation opcode *)
let shape_of_new (opc : Ir.opcode) : Ir.tyshape option =
  match opc with
  | Ir.New_with_vtable cls ->
      Some (Ir.Ty_instance_of cls.Mtj_rt.Value.uid)
  | Ir.New_array _ -> Some Ir.Ty_tuple
  | Ir.New_list _ -> Some Ir.Ty_list
  | Ir.New_cell -> Some Ir.Ty_cell
  | _ -> None

(* --- intbounds: a light version of RPython's integer-bounds pass.
   Bounds are tracked per SSA register; an overflow guard whose operands'
   ranges cannot overflow is removed (the bulk of RPython's
   guard-strengthening wins on arithmetic code). --- *)

let bounds_of env (o : Ir.operand) : bounds option =
  match o with
  | Ir.Const c ->
      if Mtj_rt.Value.is_int c then
        let i = Mtj_rt.Value.to_int_unchecked c in
        Some { lo = i; hi = i }
      else if Mtj_rt.Value.is_bool c then Some { lo = 0; hi = 1 }
      else None
  | Ir.Reg r -> Hashtbl.find_opt env.int_bounds r

let bounds_safe b = b.lo > -max_safe && b.hi < max_safe

(* saturating interval arithmetic *)
let sat v = if v > max_safe then max_safe else if v < -max_safe then -max_safe else v

let badd a b =
  { lo = sat (a.lo + b.lo); hi = sat (a.hi + b.hi) }

let bsub a b =
  { lo = sat (a.lo - b.hi); hi = sat (a.hi - b.lo) }

let bmul a b =
  let cands = [ a.lo * b.lo; a.lo * b.hi; a.hi * b.lo; a.hi * b.hi ] in
  (* only trust the product when the factors are small enough that the
     native multiply cannot have wrapped *)
  if
    max (abs a.lo) (abs a.hi) < (1 lsl 31)
    && max (abs b.lo) (abs b.hi) < (1 lsl 31)
  then
    Some
      {
        lo = List.fold_left min max_int cands;
        hi = List.fold_left max min_int cands;
      }
  else None

(* record the result bounds of an integer op; returns whether a
   following overflow guard is redundant *)
let learn_bounds env (op : Ir.op) (args : Ir.operand array) =
  let set b = Hashtbl.replace env.int_bounds op.Ir.result b in
  if op.Ir.result >= 0 then
    match op.Ir.opcode with
    | Ir.Int_add -> (
        match (bounds_of env args.(0), bounds_of env args.(1)) with
        | Some a, Some b ->
            let r = badd a b in
            if bounds_safe r then set r
        | _ -> ())
    | Ir.Int_sub -> (
        match (bounds_of env args.(0), bounds_of env args.(1)) with
        | Some a, Some b ->
            let r = bsub a b in
            if bounds_safe r then set r
        | _ -> ())
    | Ir.Int_mul -> (
        match (bounds_of env args.(0), bounds_of env args.(1)) with
        | Some a, Some b -> (
            match bmul a b with
            | Some r when bounds_safe r -> set r
            | _ -> ())
        | _ -> ())
    | Ir.Int_mod -> (
        (* Python modulo takes the divisor's sign *)
        match bounds_of env args.(1) with
        | Some b when b.lo > 0 -> set { lo = 0; hi = b.hi - 1 }
        | Some b when b.hi < 0 -> set { lo = b.lo + 1; hi = 0 }
        | _ -> ())
    | Ir.Int_and -> (
        match (bounds_of env args.(0), bounds_of env args.(1)) with
        | Some a, _ when a.lo >= 0 -> set { lo = 0; hi = a.hi }
        | _, Some b when b.lo >= 0 -> set { lo = 0; hi = b.hi }
        | _ -> ())
    | Ir.Arraylen | Ir.Strlen | Ir.Unicode_len ->
        set { lo = 0; hi = 1 lsl 40 }
    | Ir.Int_rshift -> (
        match bounds_of env args.(0) with
        | Some a when a.lo >= 0 -> set { lo = 0; hi = a.hi }
        | _ -> ())
    | _ -> ()

(* does this overflow guard's arithmetic provably stay in range? *)
let ovf_redundant env gkind (args : Ir.operand array) =
  match (bounds_of env args.(0), bounds_of env args.(1)) with
  | Some a, Some b -> (
      match gkind with
      | Ir.G_no_ovf_add -> bounds_safe (badd a b)
      | Ir.G_no_ovf_sub -> bounds_safe (bsub a b)
      | Ir.G_no_ovf_mul -> (
          match bmul a b with Some r -> bounds_safe r | None -> false)
      | _ -> false)
  | _ -> false

(* --- pass 1: fold / guard-elim / forwarding --- *)

(* returns `Keep op | `Drop; updates env *)
let guard_step env (g : Ir.guard) (args : Ir.operand array) =
  let dedup = env.cfg.Config.opt_guard_elim in
  match (g.Ir.gkind, args) with
  | Ir.G_class sh, [| Ir.Const v |] ->
      if Ir.tyshape_of v = sh then `Drop else `Keep
  | Ir.G_class sh, [| Ir.Reg r |] ->
      if dedup && Hashtbl.find_opt env.shapes r = Some sh then `Drop
      else begin
        Hashtbl.replace env.shapes r sh;
        `Keep
      end
  | Ir.G_value v, [| Ir.Const c |] ->
      if Mtj_rt.Value.py_eq v c then `Drop else `Keep
  | Ir.G_value v, [| Ir.Reg r |] ->
      let known =
        match Hashtbl.find_opt env.gvalues r with
        | Some v' -> v' == v || Mtj_rt.Value.py_eq v' v
        | None -> false
      in
      if dedup && known then `Drop
      else begin
        Hashtbl.replace env.gvalues r v;
        Hashtbl.replace env.shapes r (Ir.tyshape_of v);
        (* NOTE: the register is NOT substituted by the constant — the
           substitution table is applied position-independently by the
           virtuals pass, and entry registers are refreshed by [jump],
           so pinning here would corrupt earlier uses and the back-edge.
           (Promotion already made future *recorded* uses constants at
           trace-recording time.) *)
        `Keep
      end
  | (Ir.G_true | Ir.G_false), [| Ir.Const v |] ->
      ignore v;
      `Drop
  | (Ir.G_true | Ir.G_false), [| Ir.Reg r |] ->
      let b = g.Ir.gkind = Ir.G_true in
      let stable_fact =
        match Hashtbl.find_opt env.truthy r with
        | Some (b', epoch) -> b' = b && epoch = env.epoch
        | None -> false
      in
      if dedup && stable_fact then `Drop
      else begin
        Hashtbl.replace env.truthy r (b, env.epoch);
        `Keep
      end
  | (Ir.G_no_ovf_add | Ir.G_no_ovf_sub | Ir.G_no_ovf_mul), [| a; b |] ->
      if dedup && ovf_redundant env g.Ir.gkind args then `Drop
      else begin
        let tag =
          match g.Ir.gkind with
          | Ir.G_no_ovf_add -> 0
          | Ir.G_no_ovf_sub -> 1
          | _ -> 2
        in
        let ka = okey_of a and kb = okey_of b in
        if ka = K_none || kb = K_none then `Keep
        else if dedup && Hashtbl.mem env.novf_seen (tag, ka, kb) then `Drop
        else begin
          Hashtbl.replace env.novf_seen (tag, ka, kb) ();
          `Keep
        end
      end
  | Ir.G_index_lt, [| idx; len |] ->
      let ki = okey_of idx and kl = okey_of len in
      if ki = K_none || kl = K_none then `Keep
      else if
        dedup && Hashtbl.find_opt env.idx_seen (ki, kl) = Some env.epoch
      then `Drop
      else begin
        Hashtbl.replace env.idx_seen (ki, kl) env.epoch;
        `Keep
      end
  | Ir.G_global_version (cell, ver), _ ->
      let seen =
        List.exists (fun (c, v) -> c == cell && v = ver) env.gver_seen
      in
      if dedup && seen then `Drop
      else begin
        env.gver_seen <- (cell, ver) :: env.gver_seen;
        `Keep
      end
  | Ir.G_nonnull, [| Ir.Const _ |] -> `Drop
  | Ir.G_nonnull, [| Ir.Reg r |] ->
      if dedup && Hashtbl.mem env.shapes r then `Drop else `Keep
  | _, _ -> `Keep

let pass_fold_forward ?(seed_shapes = []) ?(seed_bounds = []) cfg
    (ops : Ir.op array) =
  let env = make_env cfg in
  List.iter (fun (r, sh) -> Hashtbl.replace env.shapes r sh) seed_shapes;
  List.iter (fun (r, b) -> Hashtbl.replace env.int_bounds r b) seed_bounds;
  let out = ref [] and nout = ref 0 in
  let keep (op : Ir.op) =
    (* every kept op teaches the env its result's type shape and integer
       bounds, so later guards on it can be elided and loop peeling can
       transfer the facts across the back-edge *)
    if op.Ir.result >= 0 then begin
      (match Ir.result_shape op.Ir.opcode with
      | Some sh -> Hashtbl.replace env.shapes op.Ir.result sh
      | None -> ());
      learn_bounds env op op.Ir.args
    end;
    out := op :: !out;
    incr nout
  in
  let resolve = resolve env in
  Array.iter
    (fun (op : Ir.op) ->
      let args = resolve_args env.marks resolve op.Ir.args in
      let op = if args == op.Ir.args then op else { op with Ir.args = args } in
      match op.Ir.opcode with
      | Ir.Guard g -> (
          match guard_step env g args with
          | `Keep -> keep op
          | `Drop -> ())
      | Ir.Setfield_gc idx ->
          bump_effect env;
          let ko = okey_of args.(0) in
          (* kill aliasing entries for this field index *)
          Hashtbl.filter_map_inplace
            (fun (k, i) v -> if i = idx && k <> ko then None else Some v)
            env.heap_fields;
          if env.cfg.Config.opt_forward && ko <> K_none then
            Hashtbl.replace env.heap_fields (ko, idx) args.(1);
          keep op
      | Ir.Getfield_gc idx ->
          let ko = okey_of args.(0) in
          let hit =
            if env.cfg.Config.opt_forward && ko <> K_none then
              Hashtbl.find_opt env.heap_fields (ko, idx)
            else None
          in
          (match hit with
          | Some fwd -> substitute env op.Ir.result fwd
          | None ->
              if env.cfg.Config.opt_forward && ko <> K_none then
                Hashtbl.replace env.heap_fields (ko, idx)
                  (Ir.Reg op.Ir.result);
              keep op)
      | Ir.Setlistitem ->
          bump_effect env;
          Hashtbl.reset env.heap_items;
          let kc = okey_of args.(0) and ki = okey_of args.(1) in
          if env.cfg.Config.opt_forward && kc <> K_none && ki <> K_none then
            Hashtbl.replace env.heap_items (kc, ki) args.(2);
          keep op
      | Ir.Getlistitem | Ir.Getarrayitem_gc ->
          let kc = okey_of args.(0) and ki = okey_of args.(1) in
          let hit =
            if env.cfg.Config.opt_forward && kc <> K_none && ki <> K_none
            then Hashtbl.find_opt env.heap_items (kc, ki)
            else None
          in
          (match hit with
          | Some fwd -> substitute env op.Ir.result fwd
          | None ->
              if env.cfg.Config.opt_forward && kc <> K_none && ki <> K_none
              then
                Hashtbl.replace env.heap_items (kc, ki) (Ir.Reg op.Ir.result);
              keep op)
      | Ir.Arraylen | Ir.Strlen | Ir.Unicode_len -> (
          let kc = okey_of args.(0) in
          let hit =
            if env.cfg.Config.opt_forward && kc <> K_none then
              Hashtbl.find_opt env.heap_lens kc
            else None
          in
          match hit with
          | Some fwd -> substitute env op.Ir.result fwd
          | None ->
              (match const_of args.(0) with
              | Some c
                when env.cfg.Config.opt_fold
                     && (match op.Ir.opcode with
                        | Ir.Strlen | Ir.Unicode_len -> true
                        | _ -> false)
                     && Mtj_rt.Value.is_str c ->
                  (* lengths of constant strings fold away *)
                  substitute env op.Ir.result
                    (Ir.Const
                       (Mtj_rt.Value.of_int
                          (String.length (Mtj_rt.Value.to_str_unchecked c))))
              | _ ->
                  if kc <> K_none && env.cfg.Config.opt_forward then
                    Hashtbl.replace env.heap_lens kc (Ir.Reg op.Ir.result);
                  keep op))
      | Ir.Getcell -> (
          let kc = okey_of args.(0) in
          match
            if env.cfg.Config.opt_forward && kc <> K_none then
              Hashtbl.find_opt env.heap_cells kc
            else None
          with
          | Some fwd -> substitute env op.Ir.result fwd
          | None ->
              if env.cfg.Config.opt_forward && kc <> K_none then
                Hashtbl.replace env.heap_cells kc (Ir.Reg op.Ir.result);
              keep op)
      | Ir.Setcell ->
          bump_effect env;
          Hashtbl.reset env.heap_cells;
          let kc = okey_of args.(0) in
          if env.cfg.Config.opt_forward && kc <> K_none then
            Hashtbl.replace env.heap_cells kc args.(1);
          keep op
      | Ir.Call_r c ->
          if c.Ir.effectful then begin
            bump_effect env;
            clear_heap env
          end;
          keep op
      | Ir.Call_n c ->
          if c.Ir.effectful then begin
            bump_effect env;
            clear_heap env
          end;
          keep op
      | Ir.Call_assembler _ ->
          bump_effect env;
          clear_heap env;
          keep op
      | Ir.Same_as when env.cfg.Config.opt_fold ->
          substitute env op.Ir.result args.(0)
      | opc when shape_of_new opc <> None ->
          (match shape_of_new opc with
          | Some sh -> Hashtbl.replace env.shapes op.Ir.result sh
          | None -> ());
          (* a fresh instance/tuple/cell is always truthy *)
          (match opc with
          | Ir.New_with_vtable _ | Ir.New_cell ->
              Hashtbl.replace env.truthy op.Ir.result (true, env.epoch)
          | _ -> ());
          keep op
      | opc
        when env.cfg.Config.opt_fold && Eval_op.foldable opc
             && Array.for_all (fun a -> const_of a <> None) args -> (
          let values =
            Array.map (fun a -> Option.get (const_of a)) args
          in
          match Eval_op.eval opc values with
          | v -> substitute env op.Ir.result (Ir.Const v)
          | exception _ -> keep op)
      | _ -> keep op)
    ops;
  (Heap_array.of_rev_list ~dummy:Ir.no_op !nout !out, env)

(* --- pass 2: escape analysis / virtuals --- *)

module IntMap = Map.Make (Int)

type vstate = {
  v_opcode : Ir.opcode;
  mutable v_fields : Ir.operand IntMap.t;  (* field/element index -> value *)
  v_len : int;  (* static element count for arrays/lists; -1 for instances *)
}

(* the allocations escape analysis considers, flagged [f_cand] *)
let mark_candidates (ops : Ir.op array) marks =
  Array.fold_left
    (fun acc (op : Ir.op) ->
      match op.Ir.opcode with
      | Ir.New_with_vtable _ | Ir.New_array _ | Ir.New_list _ | Ir.New_cell
        ->
          set_flag marks op.Ir.result f_cand;
          op.Ir.result :: acc
      | _ -> acc)
    [] ops

(* the element index of a constant-index list or tuple access *)
let const_index (o : Ir.operand) =
  match o with
  | Ir.Const c when Mtj_rt.Value.is_int c ->
      Some (Mtj_rt.Value.to_int_unchecked c)
  | _ -> None

(* Escape analysis, reading each operand as the rewrite below will see
   it.  A read of a candidate's field at a constant index stands for the
   value last stored there (nil if none): the rewrite forwards it when
   the candidate is removed.  So a value read back out of one allocation
   escapes here when it is used where values escape, or as the target of
   a heap op that stays (the rewrite removes a heap op only when its own
   target is a removed allocation).  Aliasing the read unconditionally
   is exact: if the candidate read from escapes, every value ever stored
   into it escapes too, by the fixpoint below.  Flags [f_escaped] on
   every candidate that escapes. *)
let compute_escapes (ops : Ir.op array) marks =
  (* stores into (possibly virtual) targets: target reg -> stored operands *)
  let stores : (int, Ir.operand list ref) Hashtbl.t = Hashtbl.create 16 in
  (* each candidate's fields at the current op: field/element index -> value *)
  let fields : (int, Ir.operand IntMap.t) Hashtbl.t = Hashtbl.create 16 in
  (* results of reads out of candidates -> the value read *)
  let reads : (int, Ir.operand) Hashtbl.t = Hashtbl.create 16 in
  let seen (o : Ir.operand) =
    match o with
    | Ir.Reg r -> (
        match Hashtbl.find_opt reads r with Some v -> v | None -> o)
    | Ir.Const _ -> o
  in
  let candidate = function
    | Ir.Reg r when has marks r f_cand -> Some r
    | _ -> None
  in
  let escape_op (o : Ir.operand) =
    match seen o with
    | Ir.Reg r when has marks r f_cand -> set_flag marks r f_escaped
    | _ -> ()
  in
  let record_store target idx v =
    match candidate target with
    | Some r ->
        let v = seen v in
        (match Hashtbl.find_opt stores r with
        | Some l -> l := v :: !l
        | None -> Hashtbl.replace stores r (ref [ v ]));
        Hashtbl.replace fields r
          (IntMap.add idx v
             (Option.value ~default:IntMap.empty (Hashtbl.find_opt fields r)))
    | None ->
        escape_op target;
        escape_op v
  in
  let record_read (op : Ir.op) target idx =
    match candidate target with
    | Some r ->
        let v =
          match
            Option.bind (Hashtbl.find_opt fields r) (IntMap.find_opt idx)
          with
          | Some v -> v
          | None -> Ir.Const Mtj_rt.Value.nil
        in
        Hashtbl.replace reads op.Ir.result v
    | None -> escape_op target
  in
  Array.iter
    (fun (op : Ir.op) ->
      let args = op.Ir.args in
      match op.Ir.opcode with
      | Ir.Getfield_gc idx -> record_read op args.(0) idx
      | Ir.Getcell -> record_read op args.(0) 0
      | Ir.Arraylen -> if candidate args.(0) = None then escape_op args.(0)
      | Ir.Getarrayitem_gc | Ir.Getlistitem -> (
          (* dynamic-index reads of a virtual cannot be resolved *)
          match (candidate args.(0), const_index args.(1)) with
          | Some _, Some idx -> record_read op args.(0) idx
          | _ -> Array.iter escape_op args)
      | Ir.Setfield_gc idx -> record_store args.(0) idx args.(1)
      | Ir.Setcell -> record_store args.(0) 0 args.(1)
      | Ir.Setlistitem -> (
          match (candidate args.(0), const_index args.(1)) with
          | Some _, Some idx -> record_store args.(0) idx args.(2)
          | _ -> Array.iter escape_op args)
      | Ir.New_with_vtable _ | Ir.New_array _ | Ir.New_list _ | Ir.New_cell
        ->
          (* initial elements of arrays/lists/cells count as stores *)
          Array.iteri (fun i v -> record_store (Ir.Reg op.Ir.result) i v) args
      | _ -> Array.iter escape_op args)
    ops;
  (* fixpoint: everything stored into an escaping virtual escapes too *)
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun target values ->
        if has marks target f_escaped then
          List.iter
            (fun v ->
              match v with
              | Ir.Reg r when flags marks r land (f_cand lor f_escaped) = f_cand
                ->
                  set_flag marks r f_escaped;
                  changed := true
              | _ -> ())
            !values)
      stores
  done

(* "not found" answers of the capture memo below: constants, never
   equal to a snapshot's own frame or non-empty array *)
let no_frame : Ir.frame_snap =
  {
    Ir.snap_code = -1;
    snap_pc = -1;
    snap_locals = [||];
    snap_stack = [||];
    snap_discard = false;
  }

let no_sources : Ir.source array = [| Ir.S_virtual (-1) |]
let no_resume : Ir.resume = { Ir.frames = []; r_virtuals = [||] }

(* Removes the allocations that do not escape, forwarding reads of
   their fields through [env.subst] (fold-forward's table, extended in
   place) and rewriting resumes to materialize them on deoptimization.
   An op, guard or merge point with nothing to rewrite comes out as it
   went in, and so does the whole array when no op changed. *)
let pass_virtuals cfg (ops : Ir.op array) env =
  let subst = env.subst and marks = env.marks in
  (* virtual-read substitutions can chain (a getcell of a value that was
     itself read out of a virtual), so resolution must be transitive *)
  let rec resolve_chain (o : Ir.operand) =
    match o with
    | Ir.Reg r when has marks r f_subst -> (
        match Hashtbl.find subst r with
        | Ir.Reg r' as o' when r' <> r -> resolve_chain o'
        | o' -> o')
    | _ -> o
  in
  let candidates =
    if cfg.Config.opt_virtuals then mark_candidates ops marks else []
  in
  if candidates <> [] then begin
    compute_escapes ops marks;
    List.iter
      (fun r -> if not (has marks r f_escaped) then set_flag marks r f_virtual)
      candidates
  end;
  let is_virtual = function
    | Ir.Reg r -> has marks r f_virtual
    | Ir.Const _ -> false
  in
  let vstates : (int, vstate) Hashtbl.t = Hashtbl.create 16 in
  (* Capturing a resume.  Virtuals are numbered per resume in the order
     they are met: frames outermost first, each frame's stack before its
     locals, a virtual's fields before the slot after it. [vnum] holds
     this capture's numbers, by register. *)
  let vnum =
    if candidates = [] then [||] else Array.make (Bytes.length marks.bits) (-1)
  in
  let numbered = ref [] and nv = ref 0 and vdescs = ref [] in
  let met = ref false (* the rewrite in progress named a virtual *) in
  let rec source_of (o : Ir.operand) : Ir.source =
    match resolve_chain o with
    | Ir.Const v -> Ir.S_const v
    | Ir.Reg r when has marks r f_virtual -> Ir.S_virtual (vreg r)
    | Ir.Reg r -> Ir.S_reg r
  and vreg r =
    met := true;
    if vnum.(r) >= 0 then vnum.(r)
    else begin
      let i = !nv in
      incr nv;
      vnum.(r) <- i;
      numbered := r :: !numbered;
      (* reserve the slot before recursing (cyclic structures) *)
      let slot = ref None in
      vdescs := (i, slot) :: !vdescs;
      let st = Hashtbl.find vstates r in
      let fields n =
        Array.init n (fun k ->
            match IntMap.find_opt k st.v_fields with
            | Some o -> source_of o
            | None -> Ir.S_const Mtj_rt.Value.nil)
      in
      let desc =
        match st.v_opcode with
        | Ir.New_with_vtable cls ->
            let nfields =
              match IntMap.max_binding_opt st.v_fields with
              | Some (k, _) -> k + 1
              | None -> 0
            in
            Ir.V_instance { v_cls = cls; v_fields = fields nfields }
        | Ir.New_array n -> Ir.V_tuple (fields n)
        | Ir.New_list n -> Ir.V_list (fields n)
        | Ir.New_cell -> Ir.V_cell (source_of (IntMap.find 0 st.v_fields))
        | _ -> assert false
      in
      slot := Some desc;
      i
    end
  in
  let rewrite_slot (s : Ir.source) =
    match s with
    | Ir.S_reg r ->
        let f = flags marks r in
        if f land f_subst <> 0 then source_of (Hashtbl.find subst r)
        else if f land f_virtual <> 0 then Ir.S_virtual (vreg r)
        else s
    | Ir.S_const _ | Ir.S_virtual _ -> s
  in
  (* [a] with the slots that name a substituted or virtual register
     rewritten, or [a] itself when it names none *)
  let rewrite_array (a : Ir.source array) =
    let n = Array.length a in
    let rec first i =
      if i = n then n
      else
        match Array.unsafe_get a i with
        | Ir.S_reg r when has marks r (f_subst lor f_virtual) -> i
        | _ -> first (i + 1)
    in
    let i = first 0 in
    if i = n then a
    else begin
      let a' = Array.copy a in
      for j = i to n - 1 do
        a'.(j) <- rewrite_slot a.(j)
      done;
      a'
    end
  in
  (* The memo: the previous capture's frames in and out, and those of
     its frames and arrays whose rewrite met a virtual.  Consecutive
     snapshots share every frame and array that did not change (DESIGN
     §3n), so each distinct one is rewritten once.  A rewrite that met
     no virtual depends only on [subst], which is settled for every
     register a snapshot names (registers are SSA, and a snapshot names
     only registers defined before it), so it stands for every later
     snapshot holding the same frame or array.  One that met a virtual
     does not: a virtual's descriptor holds its fields at that capture,
     and its number is per resume. *)
  let prev_in = ref [] and prev_out = ref [] in
  let tainted_frames = ref [] and tainted_arrays = ref [] in
  let next_frames = ref [] and next_arrays = ref [] in
  let rec find_frame f ins outs =
    match (ins, outs) with
    | i :: ins, o :: outs -> if i == f then o else find_frame f ins outs
    | _ -> no_frame
  in
  let rec find_array a ins outs =
    match (ins, outs) with
    | (i : Ir.frame_snap) :: ins, (o : Ir.frame_snap) :: outs ->
        if i.Ir.snap_locals == a then o.Ir.snap_locals
        else if i.Ir.snap_stack == a then o.Ir.snap_stack
        else find_array a ins outs
    | _ -> no_sources
  in
  let snap_array (a : Ir.source array) =
    let o =
      if Array.length a = 0 then a else find_array a !prev_in !prev_out
    in
    if o != no_sources && not (List.memq a !tainted_arrays) then o
    else begin
      let outer = !met in
      met := false;
      let a' = rewrite_array a in
      if !met then next_arrays := a :: !next_arrays;
      met := outer || !met;
      a'
    end
  in
  let snap_frame (f : Ir.frame_snap) =
    let o = find_frame f !prev_in !prev_out in
    if o != no_frame && not (List.memq f !tainted_frames) then o
    else begin
      met := false;
      (* the stack before the locals: virtuals are numbered in the
         order they are met *)
      let snap_stack = snap_array f.Ir.snap_stack in
      let snap_locals = snap_array f.Ir.snap_locals in
      if !met then next_frames := f :: !next_frames;
      if snap_stack == f.Ir.snap_stack && snap_locals == f.Ir.snap_locals
      then f
      else { f with Ir.snap_locals; snap_stack }
    end
  in
  let rec snap_frames = function
    | [] -> []
    | f :: rest as l ->
        let f' = snap_frame f in
        let rest' = snap_frames rest in
        if f' == f && rest' == rest then l else f' :: rest'
  in
  (* A guard carries its debug_merge_point's resume, so remembering the
     latest capture serves every guard. *)
  let last_in = ref no_resume and last_out = ref no_resume in
  let capture_resume (resume : Ir.resume) : Ir.resume =
    if resume == !last_in then !last_out
    else begin
      let frames = snap_frames resume.Ir.frames in
      let r =
        if
          !nv = 0
          && Array.length resume.Ir.r_virtuals = 0
          && frames == resume.Ir.frames
        then resume
        else
          let arr =
            Array.init !nv (fun i ->
                match List.assoc_opt i !vdescs with
                | Some { contents = Some d } -> d
                | _ -> Ir.V_tuple [||])
          in
          { Ir.frames; r_virtuals = arr }
      in
      List.iter (fun r -> vnum.(r) <- -1) !numbered;
      numbered := [];
      nv := 0;
      vdescs := [];
      prev_in := resume.Ir.frames;
      prev_out := frames;
      tainted_frames := !next_frames;
      tainted_arrays := !next_arrays;
      next_frames := [];
      next_arrays := [];
      last_in := resume;
      last_out := r;
      r
    end
  in
  let resolve_args = resolve_args marks resolve_chain in
  let out = ref [] and nout = ref 0 and same = ref true in
  (* [op'] replaces [op] in the output *)
  let keep (op : Ir.op) (op' : Ir.op) =
    if op' != op then same := false;
    out := op' :: !out;
    incr nout
  in
  let drop () = same := false in
  Array.iter
    (fun (op : Ir.op) ->
      match op.Ir.opcode with
      | (Ir.New_with_vtable _ | Ir.New_array _ | Ir.New_list _ | Ir.New_cell)
        when has marks op.Ir.result f_virtual ->
          drop ();
          let fields =
            Array.to_list op.Ir.args
            |> List.mapi (fun i a -> (i, resolve_chain a))
            |> List.fold_left (fun m (i, a) -> IntMap.add i a m) IntMap.empty
          in
          Hashtbl.replace vstates op.Ir.result
            {
              v_opcode = op.Ir.opcode;
              v_fields = fields;
              v_len = Array.length op.Ir.args;
            }
      | Ir.Setfield_gc idx when is_virtual op.Ir.args.(0) -> (
          drop ();
          match op.Ir.args.(0) with
          | Ir.Reg r ->
              let st = Hashtbl.find vstates r in
              st.v_fields <-
                IntMap.add idx (resolve_chain op.Ir.args.(1)) st.v_fields
          | Ir.Const _ -> assert false)
      | Ir.Setcell when is_virtual op.Ir.args.(0) -> (
          drop ();
          match op.Ir.args.(0) with
          | Ir.Reg r ->
              let st = Hashtbl.find vstates r in
              st.v_fields <-
                IntMap.add 0 (resolve_chain op.Ir.args.(1)) st.v_fields
          | Ir.Const _ -> assert false)
      | Ir.Setlistitem when is_virtual op.Ir.args.(0) -> (
          drop ();
          match (op.Ir.args.(0), const_index op.Ir.args.(1)) with
          | Ir.Reg r, Some idx ->
              let st = Hashtbl.find vstates r in
              st.v_fields <-
                IntMap.add idx (resolve_chain op.Ir.args.(2)) st.v_fields
          | _ -> assert false)
      | (Ir.Getfield_gc idx) when is_virtual op.Ir.args.(0) -> (
          drop ();
          match op.Ir.args.(0) with
          | Ir.Reg r ->
              let st = Hashtbl.find vstates r in
              let v =
                match IntMap.find_opt idx st.v_fields with
                | Some o -> o
                | None -> Ir.Const Mtj_rt.Value.nil
              in
              substitute env op.Ir.result v
          | Ir.Const _ -> assert false)
      | Ir.Getcell when is_virtual op.Ir.args.(0) -> (
          drop ();
          match op.Ir.args.(0) with
          | Ir.Reg r ->
              let st = Hashtbl.find vstates r in
              substitute env op.Ir.result (IntMap.find 0 st.v_fields)
          | Ir.Const _ -> assert false)
      | (Ir.Getarrayitem_gc | Ir.Getlistitem)
        when is_virtual op.Ir.args.(0) -> (
          drop ();
          match (op.Ir.args.(0), const_index op.Ir.args.(1)) with
          | Ir.Reg r, Some idx ->
              let st = Hashtbl.find vstates r in
              let v =
                match IntMap.find_opt idx st.v_fields with
                | Some o -> o
                | None -> Ir.Const Mtj_rt.Value.nil
              in
              substitute env op.Ir.result v
          | _ -> assert false)
      | Ir.Arraylen when is_virtual op.Ir.args.(0) -> (
          drop ();
          match op.Ir.args.(0) with
          | Ir.Reg r ->
              let st = Hashtbl.find vstates r in
              substitute env op.Ir.result
                (Ir.Const (Mtj_rt.Value.of_int st.v_len))
          | Ir.Const _ -> assert false)
      | Ir.Guard g ->
          let args = resolve_args op.Ir.args in
          let resume = capture_resume g.Ir.resume in
          keep op
            (if args == op.Ir.args && resume == g.Ir.resume then op
             else { op with Ir.opcode = Ir.Guard { g with Ir.resume }; args })
      | Ir.Debug_merge_point d ->
          let dmp_resume = capture_resume d.dmp_resume in
          keep op
            (if dmp_resume == d.dmp_resume then op
             else
               { op with Ir.opcode = Ir.Debug_merge_point { d with dmp_resume } })
      | _ ->
          let args = resolve_args op.Ir.args in
          keep op (if args == op.Ir.args then op else { op with Ir.args }))
    ops;
  if !same then ops else Heap_array.of_rev_list ~dummy:Ir.no_op !nout !out

(* --- pass 3: dead code elimination (reverse walk) --- *)

let pass_dce (ops : Ir.op array) =
  let used = regflags () in
  let use (o : Ir.operand) =
    match o with Ir.Reg r -> set_flag used r 1 | Ir.Const _ -> ()
  in
  let use_source (s : Ir.source) =
    match s with Ir.S_reg r -> set_flag used r 1 | _ -> ()
  in
  (* frames of the last resume marked: consecutive snapshots share
     most of their frames, and a frame marked once is marked for good *)
  let marked = ref [] in
  let use_resume (r : Ir.resume) =
    List.iter
      (fun (f : Ir.frame_snap) ->
        if not (List.memq f !marked) then begin
          Array.iter use_source f.Ir.snap_locals;
          Array.iter use_source f.Ir.snap_stack
        end)
      r.Ir.frames;
    marked := r.Ir.frames;
    Array.iter
      (function
        | Ir.V_instance { v_fields; _ } -> Array.iter use_source v_fields
        | Ir.V_tuple a | Ir.V_list a -> Array.iter use_source a
        | Ir.V_cell s -> use_source s)
      r.Ir.r_virtuals
  in
  let kept = ref [] and nkept = ref 0 in
  for i = Array.length ops - 1 downto 0 do
    let op = ops.(i) in
    let needed =
      (not (Eval_op.removable op))
      || (op.Ir.result >= 0 && has used op.Ir.result 1)
    in
    if needed then begin
      Array.iter use op.Ir.args;
      (match op.Ir.opcode with
      | Ir.Guard g -> use_resume g.Ir.resume
      | Ir.Debug_merge_point d -> use_resume d.dmp_resume
      | _ -> ());
      kept := op :: !kept;
      incr nkept
    end
  done;
  if !nkept = Array.length ops then ops
  else Heap_array.of_list ~dummy:Ir.no_op !kept

(* --- loop peeling (RPython's preamble + loop structure) ---

   The recorded trace is duplicated: the first copy (the preamble) runs
   once per entry and establishes facts; the second copy (the loop) is
   optimized under facts that provably hold at {e every} arrival of the
   back-edge — computed as a shrink-only fixpoint over the types and
   integer bounds of the values the jumps carry.  Loop-invariant type
   and overflow guards then survive only in the preamble. *)

let remap_operand k (o : Ir.operand) =
  match o with Ir.Reg r -> Ir.Reg (r + k) | Ir.Const _ -> o

let remap_source k (src : Ir.source) =
  match src with
  | Ir.S_reg r -> Ir.S_reg (r + k)
  | Ir.S_const _ | Ir.S_virtual _ -> src

let remap_vdesc k = function
  | Ir.V_instance { v_cls; v_fields } ->
      Ir.V_instance { v_cls; v_fields = Array.map (remap_source k) v_fields }
  | Ir.V_tuple a -> Ir.V_tuple (Array.map (remap_source k) a)
  | Ir.V_list a -> Ir.V_list (Array.map (remap_source k) a)
  | Ir.V_cell s -> Ir.V_cell (remap_source k s)

(* remaps every resume of a trace: each distinct frame (and resume) is
   mapped once, so the copy keeps the sharing between consecutive
   snapshots *)
let resume_remapper k =
  let last = ref [] and last_resume = ref None in
  let frame (f : Ir.frame_snap) =
    match List.assq_opt f !last with
    | Some f' -> f'
    | None ->
        {
          f with
          Ir.snap_locals = Array.map (remap_source k) f.Ir.snap_locals;
          snap_stack = Array.map (remap_source k) f.Ir.snap_stack;
        }
  in
  fun (r : Ir.resume) ->
    match !last_resume with
    | Some (r_in, r_out) when r_in == r -> r_out
    | _ ->
        let frames = List.map frame r.Ir.frames in
        last := List.combine r.Ir.frames frames;
        let r' =
          { Ir.frames; r_virtuals = Array.map (remap_vdesc k) r.Ir.r_virtuals }
        in
        last_resume := Some (r, r');
        r'

let remap_op k remap_resume (op : Ir.op) : Ir.op =
  let opcode =
    match op.Ir.opcode with
    | Ir.Guard g ->
        Ir.Guard
          {
            Ir.guard_id = Recorder.fresh_guard_id ();
            gkind = g.Ir.gkind;
            resume = remap_resume g.Ir.resume;
            fail_count = 0;
            bridge = None;
            bridgeable = g.Ir.bridgeable;
          }
    | Ir.Debug_merge_point d ->
        Ir.Debug_merge_point { d with dmp_resume = remap_resume d.dmp_resume }
    | other -> other
  in
  {
    Ir.opcode;
    args = Array.map (remap_operand k) op.Ir.args;
    result = (if op.Ir.result >= 0 then op.Ir.result + k else -1);
  }

let max_reg (ops : Ir.op array) =
  Array.fold_left
    (fun acc (op : Ir.op) ->
      let acc = max acc op.Ir.result in
      Array.fold_left
        (fun acc a -> match a with Ir.Reg r -> max acc r | Ir.Const _ -> acc)
        acc op.Ir.args)
    0 ops

let shape_of_operand env = function
  | Ir.Const v -> Some (Ir.tyshape_of v)
  | Ir.Reg r -> Hashtbl.find_opt env.shapes r

let bounds_within (b : bounds) (c : bounds) = b.lo >= c.lo && b.hi <= c.hi

let ends_with_jump (ops : Ir.op array) =
  Array.length ops > 0
  && match ops.(Array.length ops - 1).Ir.opcode with
     | Ir.Jump -> true
     | _ -> false

(* one full pipeline over a straight op sequence *)
let straight cfg ?seed_shapes ?seed_bounds ops =
  let ops, env = pass_fold_forward ?seed_shapes ?seed_bounds cfg ops in
  let ops' = pass_virtuals cfg ops env in
  (pass_dce ops', ops, env)

type dangling = { d_op : int; d_reg : int; d_in_resume : bool }

let verify_defs (ops : Ir.op array) ~entry_slots ~loop_base =
  let defined = Hashtbl.create 64 in
  for i = 0 to entry_slots - 1 do
    Hashtbl.replace defined i ();
    Hashtbl.replace defined (loop_base + i) ()
  done;
  let found = ref [] in
  Array.iteri
    (fun i (op : Ir.op) ->
      let check ~in_resume r =
        if not (Hashtbl.mem defined r) then
          found := { d_op = i; d_reg = r; d_in_resume = in_resume } :: !found
      in
      Array.iter
        (function Ir.Reg r -> check ~in_resume:false r | Ir.Const _ -> ())
        op.Ir.args;
      let check_src = function
        | Ir.S_reg r -> check ~in_resume:true r
        | Ir.S_const _ | Ir.S_virtual _ -> ()
      in
      let check_resume (r : Ir.resume) =
        List.iter
          (fun (f : Ir.frame_snap) ->
            Array.iter check_src f.Ir.snap_locals;
            Array.iter check_src f.Ir.snap_stack)
          r.Ir.frames;
        Array.iter
          (function
            | Ir.V_instance { v_fields; _ } -> Array.iter check_src v_fields
            | Ir.V_tuple a | Ir.V_list a -> Array.iter check_src a
            | Ir.V_cell sc -> check_src sc)
          r.Ir.r_virtuals
      in
      (match op.Ir.opcode with
      | Ir.Guard g -> check_resume g.Ir.resume
      | Ir.Debug_merge_point d -> check_resume d.dmp_resume
      | _ -> ());
      if op.Ir.result >= 0 then Hashtbl.replace defined op.Ir.result ())
    ops;
  List.rev !found

let optimize (cfg : Config.t) ?(kind = `Bridge) (ops : Ir.op array)
    ~entry_slots : Ir.op array * int * int =
  let plain () =
    let final, _, _ = straight cfg ops in
    (final, 0, 0)
  in
  if not (cfg.Config.opt_peel && kind = `Loop && ends_with_jump ops) then
    plain ()
  else begin
    let k = max_reg ops + 1 in
    let body_raw =
      Heap_array.map ~dummy:Ir.no_op (remap_op k (resume_remapper k)) ops
    in
    (* optimize the preamble and take the facts its jump carries *)
    let pre_final, pre_ops, pre_env = straight cfg ops in
    let pre_jump_args = pre_ops.(Array.length pre_ops - 1).Ir.args in
    let n = Array.length pre_jump_args in
    if n <> entry_slots then plain ()
    else begin
      let cand_shapes =
        Array.map (shape_of_operand pre_env) pre_jump_args
      in
      let cand_bounds = Array.map (bounds_of pre_env) pre_jump_args in
      (* shrink-only fixpoint: a candidate fact survives only if the
         loop body re-establishes it on its own back-edge *)
      let stable = ref false in
      let body_result = ref None in
      while not !stable do
        let seed_shapes = ref [] and seed_bounds = ref [] in
        Array.iteri
          (fun i sh ->
            match sh with
            | Some sh -> seed_shapes := (k + i, sh) :: !seed_shapes
            | None -> ())
          cand_shapes;
        Array.iteri
          (fun i b ->
            match b with
            | Some b -> seed_bounds := (k + i, b) :: !seed_bounds
            | None -> ())
          cand_bounds;
        let body_final, body_ops, body_env =
          straight cfg ~seed_shapes:!seed_shapes ~seed_bounds:!seed_bounds
            body_raw
        in
        let body_jump_args =
          body_ops.(Array.length body_ops - 1).Ir.args
        in
        let changed = ref false in
        Array.iteri
          (fun i cand ->
            match cand with
            | None -> ()
            | Some sh -> (
                match shape_of_operand body_env body_jump_args.(i) with
                | Some sh' when sh' = sh -> ()
                | _ ->
                    cand_shapes.(i) <- None;
                    changed := true))
          (Array.copy cand_shapes);
        Array.iteri
          (fun i cand ->
            match cand with
            | None -> ()
            | Some c -> (
                match bounds_of body_env body_jump_args.(i) with
                | Some b when bounds_within b c -> ()
                | _ ->
                    cand_bounds.(i) <- None;
                    changed := true))
          (Array.copy cand_bounds);
        if !changed then stable := false
        else begin
          stable := true;
          body_result := Some body_final
        end
      done;
      match !body_result with
      | None -> plain ()
      | Some body_final ->
          (Array.append pre_final body_final, k, Array.length pre_final)
    end
  end
