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

type env = {
  cfg : Config.t;
  subst : (int, Ir.operand) Hashtbl.t;
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

let resolve env (o : Ir.operand) =
  match o with
  | Ir.Reg r -> (
      match Hashtbl.find_opt env.subst r with Some o' -> o' | None -> o)
  | Ir.Const _ -> o

let const_of = function Ir.Const v -> Some v | Ir.Reg _ -> None

let clear_heap env =
  Hashtbl.reset env.heap_fields;
  Hashtbl.reset env.heap_items;
  Hashtbl.reset env.heap_lens;
  Hashtbl.reset env.heap_cells

let bump_effect env =
  env.epoch <- env.epoch + 1

(* shape of a constant value, for dropping guards on constants *)
let shape_of_const (v : Mtj_rt.Value.t) : Ir.tyshape option =
  match Mtj_rt.Value.view v with
  | Mtj_rt.Value.Int _ -> Some Ir.Ty_int
  | Mtj_rt.Value.Float _ -> Some Ir.Ty_float
  | Mtj_rt.Value.Str _ -> Some Ir.Ty_str
  | Mtj_rt.Value.Bool _ -> Some Ir.Ty_bool
  | Mtj_rt.Value.Nil -> Some Ir.Ty_nil
  | Mtj_rt.Value.Obj o -> (
      match o.Mtj_rt.Value.payload with
      | Mtj_rt.Value.Instance i ->
          Some (Ir.Ty_instance_of i.Mtj_rt.Value.cls.Mtj_rt.Value.uid)
      | Mtj_rt.Value.Func f -> Some (Ir.Ty_func_code f.Mtj_rt.Value.code_ref)
      | Mtj_rt.Value.Class _ -> Some (Ir.Ty_class o.Mtj_rt.Value.uid)
      | Mtj_rt.Value.List _ -> Some Ir.Ty_list
      | Mtj_rt.Value.Dict _ -> Some Ir.Ty_dict
      | Mtj_rt.Value.Set _ -> Some Ir.Ty_set
      | Mtj_rt.Value.Tuple _ -> Some Ir.Ty_tuple
      | Mtj_rt.Value.Bigint _ -> Some Ir.Ty_bigint
      | Mtj_rt.Value.Cell _ -> Some Ir.Ty_cell
      | Mtj_rt.Value.Strbuilder _ -> Some Ir.Ty_builder
      | Mtj_rt.Value.Method _ -> Some Ir.Ty_method
      | Mtj_rt.Value.Range _ -> Some Ir.Ty_range)

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
      if shape_of_const v = Some sh then `Drop else `Keep
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
        (match shape_of_const v with
        | Some sh -> Hashtbl.replace env.shapes r sh
        | None -> ());
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
  let out = ref [] in
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
    out := op :: !out
  in
  Array.iter
    (fun (op : Ir.op) ->
      let args = Array.map (resolve env) op.Ir.args in
      let op = { op with Ir.args = args } in
      match op.Ir.opcode with
      | Ir.Guard g -> (
          match guard_step env g args with
          | `Keep -> keep op
          | `Drop -> ())
      | Ir.Setfield_gc idx ->
          bump_effect env;
          let ko = okey_of args.(0) in
          (* kill aliasing entries for this field index *)
          Hashtbl.iter
            (fun (k, i) _ ->
              if i = idx && k <> ko then
                Hashtbl.remove env.heap_fields (k, i))
            (Hashtbl.copy env.heap_fields);
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
          | Some fwd -> Hashtbl.replace env.subst op.Ir.result fwd
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
          | Some fwd -> Hashtbl.replace env.subst op.Ir.result fwd
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
          | Some fwd -> Hashtbl.replace env.subst op.Ir.result fwd
          | None ->
              (match const_of args.(0) with
              | Some c
                when env.cfg.Config.opt_fold
                     && (match op.Ir.opcode with
                        | Ir.Strlen | Ir.Unicode_len -> true
                        | _ -> false)
                     && Mtj_rt.Value.is_str c ->
                  (* lengths of constant strings fold away *)
                  Hashtbl.replace env.subst op.Ir.result
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
          | Some fwd -> Hashtbl.replace env.subst op.Ir.result fwd
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
          Hashtbl.replace env.subst op.Ir.result args.(0)
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
          | v -> Hashtbl.replace env.subst op.Ir.result (Ir.Const v)
          | exception _ -> keep op)
      | _ -> keep op)
    ops;
  (Array.of_list (List.rev !out), env)

(* --- pass 2: escape analysis / virtuals --- *)

module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

type vstate = {
  v_opcode : Ir.opcode;
  mutable v_fields : Ir.operand IntMap.t;  (* field/element index -> value *)
  v_len : int;  (* static element count for arrays/lists; -1 for instances *)
}

let new_candidates (ops : Ir.op array) =
  Array.to_seq ops
  |> Seq.filter_map (fun (op : Ir.op) ->
         match op.Ir.opcode with
         | Ir.New_with_vtable _ | Ir.New_array _ | Ir.New_list _
         | Ir.New_cell ->
             Some op.Ir.result
         | _ -> None)
  |> IntSet.of_seq

(* Debugging hooks (DESIGN.md §3c), read once at start-up. *)

(* MTJ_DEBUG_ESCAPE=<register>: trace the escape decision on that
   register; a value that is not a register number disables the hook *)
let debug_escape =
  match Sys.getenv_opt "MTJ_DEBUG_ESCAPE" with
  | None -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some r -> Some r
      | None ->
          Printf.eprintf
            "mtj: MTJ_DEBUG_ESCAPE=%S is not a register number; escape \
             tracing is off\n%!"
            s;
          None)

(* MTJ_DEBUG_VIRTUALS: print every allocation escape analysis removes *)
let debug_virtuals = Sys.getenv_opt "MTJ_DEBUG_VIRTUALS" <> None

(* MTJ_MAX_VIRTUALS=<n>: bisection cap on how many allocations may be
   virtualized, cumulative across the run *)
let max_virtuals =
  match Sys.getenv_opt "MTJ_MAX_VIRTUALS" with
  | Some s -> (try int_of_string s with _ -> max_int)
  | None -> max_int

(* MTJ_VERIFY_TRACES: define-before-use check of every optimizer result *)
let verify_traces = Sys.getenv_opt "MTJ_VERIFY_TRACES" <> None

let compute_escapes (ops : Ir.op array) candidates =
  (* stores into (possibly virtual) targets: target reg -> stored operands *)
  let stores : (int, Ir.operand list ref) Hashtbl.t = Hashtbl.create 16 in
  let escaped = ref IntSet.empty in
  let escape_op (o : Ir.operand) =
    match o with
    | Ir.Reg r when IntSet.mem r candidates ->
        escaped := IntSet.add r !escaped
    | _ -> ()
  in
  let record_store target v =
    match target with
    | Ir.Reg r when IntSet.mem r candidates ->
        let l =
          match Hashtbl.find_opt stores r with
          | Some l -> l
          | None ->
              let l = ref [] in
              Hashtbl.replace stores r l;
              l
        in
        l := v :: !l
    | _ -> escape_op v
  in
  Array.iter
    (fun (op : Ir.op) ->
      match op.Ir.opcode with
      | Ir.Getfield_gc _ | Ir.Getcell | Ir.Arraylen -> ()
      | Ir.Getarrayitem_gc | Ir.Getlistitem -> (
          (* dynamic-index reads of a virtual cannot be resolved *)
          match (op.Ir.args.(0), op.Ir.args.(1)) with
          | Ir.Reg r, Ir.Const c
            when IntSet.mem r candidates && Mtj_rt.Value.is_int c ->
              ()
          | target, _ -> escape_op target)
      | Ir.Setfield_gc _ -> record_store op.Ir.args.(0) op.Ir.args.(1)
      | Ir.Setcell -> record_store op.Ir.args.(0) op.Ir.args.(1)
      | Ir.Setlistitem -> (
          match (op.Ir.args.(0), op.Ir.args.(1)) with
          | (Ir.Reg r as t), Ir.Const c
            when IntSet.mem r candidates && Mtj_rt.Value.is_int c ->
              record_store t op.Ir.args.(2)
          | t, _ ->
              escape_op t;
              escape_op op.Ir.args.(2))
      | Ir.Guard _ -> Array.iter escape_op op.Ir.args
      | Ir.New_with_vtable _ | Ir.New_array _ | Ir.New_list _ | Ir.New_cell
        ->
          (* initial elements of arrays/lists/cells count as stores *)
          Array.iter (fun v -> record_store (Ir.Reg op.Ir.result) v) op.Ir.args
      | Ir.Debug_merge_point _ | Ir.Label -> ()
      | _ -> Array.iter escape_op op.Ir.args)
    ops;
  (* fixpoint: everything stored into an escaping virtual escapes too *)
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun target values ->
        if IntSet.mem target !escaped then
          List.iter
            (fun v ->
              match v with
              | Ir.Reg r
                when IntSet.mem r candidates && not (IntSet.mem r !escaped)
                ->
                  escaped := IntSet.add r !escaped;
                  changed := true
              | _ -> ())
            !values)
      stores
  done;
  (match debug_escape with
  | Some r ->
      if IntSet.mem r candidates then begin
        Printf.eprintf "ESCAPE[%d ops]: r%d candidate=%b escaped=%b\n"
          (Array.length ops) r true (IntSet.mem r !escaped);
        Hashtbl.iter
          (fun target values ->
            if List.exists (function Ir.Reg x -> x = r | _ -> false) !values
            then
              Printf.eprintf "  stored into r%d (candidate=%b escaped=%b)\n"
                target (IntSet.mem target candidates)
                (IntSet.mem target !escaped))
          stores
      end
  | None -> ());
  !escaped

(* shared across domains; only consulted when MTJ_MAX_VIRTUALS is set,
   so an atomic is plenty *)
let virtuals_seen = Atomic.make 0

let pass_virtuals_once cfg (ops : Ir.op array)
    (subst0 : (int, Ir.operand) Hashtbl.t) ~(forced : IntSet.t) =
  let subst = Hashtbl.copy subst0 in
  (* virtual-read substitutions can chain (a getcell of a value that was
     itself read out of a virtual), so resolution must be transitive *)
  let rec resolve_chain (o : Ir.operand) =
    match o with
    | Ir.Reg r -> (
        match Hashtbl.find_opt subst r with
        | Some (Ir.Reg r') when r' <> r -> resolve_chain (Ir.Reg r')
        | Some o' -> o'
        | None -> o)
    | Ir.Const _ -> o
  in
  let candidates =
    if cfg.Config.opt_virtuals then IntSet.diff (new_candidates ops) forced
    else IntSet.empty
  in
  let escaped = compute_escapes ops candidates in
  let virtuals = IntSet.diff candidates escaped in
  let virtuals =
    if max_virtuals = max_int then virtuals
    else
      IntSet.filter
        (fun _ -> 1 + Atomic.fetch_and_add virtuals_seen 1 <= max_virtuals)
        virtuals
  in
  if debug_virtuals then
    IntSet.iter
      (fun r ->
        Printf.eprintf "VIRTUALIZING reg %d in trace of %d ops\n" r
          (Array.length ops);
        Array.iteri
          (fun i (op : Ir.op) ->
            let uses =
              op.Ir.result = r
              || Array.exists
                   (function Ir.Reg x -> x = r | _ -> false)
                   op.Ir.args
            in
            if uses then
              Printf.eprintf "   op %d: %s\n" i
                (Format.asprintf "%a" Ir.pp_op op))
          ops)
      virtuals;
  let vstates : (int, vstate) Hashtbl.t = Hashtbl.create 16 in
  let is_virtual = function
    | Ir.Reg r -> IntSet.mem r virtuals
    | Ir.Const _ -> false
  in
  (* A frame needs rewriting only when it names a substituted or virtual
     register.  That verdict never changes within this pass: registers
     are SSA and a snapshot names only registers defined before it, so
     every substitution of its registers is already in [subst].  Frames
     found clean in the previous capture are not scanned again. *)
  let dirty_src = function
    | Ir.S_reg r -> Hashtbl.mem subst r || IntSet.mem r virtuals
    | Ir.S_const _ | Ir.S_virtual _ -> false
  in
  let clean_before = ref [] in
  let is_clean (f : Ir.frame_snap) =
    List.memq f !clean_before
    || not
         (Array.exists dirty_src f.Ir.snap_locals
         || Array.exists dirty_src f.Ir.snap_stack)
  in
  (* capture a resume record, rewriting substituted regs and virtuals.
     A guard carries its debug_merge_point's resume, so remembering the
     latest capture serves every guard. *)
  let last_capture = ref None in
  let capture_resume (resume : Ir.resume) : Ir.resume =
    match !last_capture with
    | Some (r_in, r_out) when r_in == resume -> r_out
    | _ ->
        let vdescs = ref [] in
        let nv = ref 0 in
        let vindex : (int, int) Hashtbl.t = Hashtbl.create 8 in
        let rec source_of (o : Ir.operand) : Ir.source =
          let o = resolve_chain o in
          match o with
          | Ir.Const v -> Ir.S_const v
          | Ir.Reg r when IntSet.mem r virtuals -> Ir.S_virtual (vreg r)
          | Ir.Reg r -> Ir.S_reg r
        and vreg r =
          match Hashtbl.find_opt vindex r with
          | Some i -> i
          | None ->
              let i = !nv in
              incr nv;
              Hashtbl.replace vindex r i;
              (* reserve the slot before recursing (cyclic structures) *)
              vdescs := (i, ref None) :: !vdescs;
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
              (match List.assoc_opt i !vdescs with
              | Some slot -> slot := Some desc
              | None -> ());
              i
        in
        let rewrite_source (s : Ir.source) =
          match s with
          | Ir.S_reg r -> source_of (Ir.Reg r)
          | Ir.S_const _ | Ir.S_virtual _ -> s
        in
        let clean = ref [] in
        let snap_frame (f : Ir.frame_snap) =
          if is_clean f then begin
            clean := f :: !clean;
            f
          end
          else
            (* the stack before the locals: virtuals are numbered in the
               order they are met *)
            let snap_stack = Array.map rewrite_source f.Ir.snap_stack in
            let snap_locals = Array.map rewrite_source f.Ir.snap_locals in
            { f with Ir.snap_locals; snap_stack }
        in
        let frames = List.map snap_frame resume.Ir.frames in
        clean_before := !clean;
        let r =
          if
            !nv = 0
            && Array.length resume.Ir.r_virtuals = 0
            && List.for_all2 ( == ) frames resume.Ir.frames
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
        last_capture := Some (resume, r);
        r
  in
  let out = ref [] in
  let keep op = out := op :: !out in
  Array.iter
    (fun (op : Ir.op) ->
      match op.Ir.opcode with
      | (Ir.New_with_vtable _ | Ir.New_array _ | Ir.New_list _ | Ir.New_cell)
        when IntSet.mem op.Ir.result virtuals ->
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
          match op.Ir.args.(0) with
          | Ir.Reg r ->
              let st = Hashtbl.find vstates r in
              st.v_fields <-
                IntMap.add idx (resolve_chain op.Ir.args.(1)) st.v_fields
          | Ir.Const _ -> assert false)
      | Ir.Setcell when is_virtual op.Ir.args.(0) -> (
          match op.Ir.args.(0) with
          | Ir.Reg r ->
              let st = Hashtbl.find vstates r in
              st.v_fields <-
                IntMap.add 0 (resolve_chain op.Ir.args.(1)) st.v_fields
          | Ir.Const _ -> assert false)
      | Ir.Setlistitem when is_virtual op.Ir.args.(0) -> (
          match (op.Ir.args.(0), op.Ir.args.(1)) with
          | Ir.Reg r, Ir.Const c when Mtj_rt.Value.is_int c ->
              let idx = Mtj_rt.Value.to_int_unchecked c in
              let st = Hashtbl.find vstates r in
              st.v_fields <-
                IntMap.add idx (resolve_chain op.Ir.args.(2)) st.v_fields
          | _ -> assert false)
      | (Ir.Getfield_gc idx) when is_virtual op.Ir.args.(0) -> (
          match op.Ir.args.(0) with
          | Ir.Reg r ->
              let st = Hashtbl.find vstates r in
              let v =
                match IntMap.find_opt idx st.v_fields with
                | Some o -> o
                | None -> Ir.Const Mtj_rt.Value.nil
              in
              Hashtbl.replace subst op.Ir.result v
          | Ir.Const _ -> assert false)
      | Ir.Getcell when is_virtual op.Ir.args.(0) -> (
          match op.Ir.args.(0) with
          | Ir.Reg r ->
              let st = Hashtbl.find vstates r in
              Hashtbl.replace subst op.Ir.result (IntMap.find 0 st.v_fields)
          | Ir.Const _ -> assert false)
      | (Ir.Getarrayitem_gc | Ir.Getlistitem)
        when is_virtual op.Ir.args.(0) -> (
          match (op.Ir.args.(0), op.Ir.args.(1)) with
          | Ir.Reg r, Ir.Const c when Mtj_rt.Value.is_int c ->
              let idx = Mtj_rt.Value.to_int_unchecked c in
              let st = Hashtbl.find vstates r in
              let v =
                match IntMap.find_opt idx st.v_fields with
                | Some o -> o
                | None -> Ir.Const Mtj_rt.Value.nil
              in
              Hashtbl.replace subst op.Ir.result v
          | _ -> assert false)
      | Ir.Arraylen when is_virtual op.Ir.args.(0) -> (
          match op.Ir.args.(0) with
          | Ir.Reg r ->
              let st = Hashtbl.find vstates r in
              Hashtbl.replace subst op.Ir.result
                (Ir.Const (Mtj_rt.Value.of_int st.v_len))
          | Ir.Const _ -> assert false)
      | Ir.Guard g ->
          let args = Array.map resolve_chain op.Ir.args in
          keep
            {
              op with
              Ir.opcode = Ir.Guard { g with Ir.resume = capture_resume g.Ir.resume };
              args;
            }
      | Ir.Debug_merge_point d ->
          keep
            {
              op with
              Ir.opcode =
                Ir.Debug_merge_point
                  { d with dmp_resume = capture_resume d.dmp_resume };
            }
      | _ ->
          let args = Array.map resolve_chain op.Ir.args in
          keep { op with Ir.args })
    ops;
  (Array.of_list (List.rev !out), virtuals)

(* regs from [removed] still referenced by the output (dangling uses):
   the escape analysis runs before virtual-read forwarding, so a value
   read back out of one virtual and stored into an escaping location can
   be missed on the first attempt; such allocations are forced to escape
   and the pass retried *)
let dangling_uses (ops : Ir.op array) (removed : IntSet.t) =
  if IntSet.is_empty removed then IntSet.empty
  else
  let found = ref IntSet.empty in
  let check_operand = function
    | Ir.Reg r when IntSet.mem r removed -> found := IntSet.add r !found
    | _ -> ()
  in
  let check_src = function
    | Ir.S_reg r when IntSet.mem r removed -> found := IntSet.add r !found
    | _ -> ()
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
  Array.iter
    (fun (op : Ir.op) ->
      Array.iter check_operand op.Ir.args;
      match op.Ir.opcode with
      | Ir.Guard g -> check_resume g.Ir.resume
      | Ir.Debug_merge_point d -> check_resume d.dmp_resume
      | _ -> ())
    ops;
  !found

let pass_virtuals cfg (ops : Ir.op array) (subst : (int, Ir.operand) Hashtbl.t) =
  let rec go forced =
    let out, virtuals = pass_virtuals_once cfg ops subst ~forced in
    let dangling = dangling_uses out virtuals in
    if IntSet.is_empty dangling then out
    else go (IntSet.union forced dangling)
  in
  go IntSet.empty

(* --- pass 3: dead code elimination (reverse walk) --- *)

let pass_dce (ops : Ir.op array) =
  (* used registers, as a dense byte map grown on demand *)
  let used = ref (Bytes.make 256 '\000') in
  let use_reg r =
    let b = !used in
    if r >= Bytes.length b then begin
      let b' = Bytes.make (max (r + 1) (2 * Bytes.length b)) '\000' in
      Bytes.blit b 0 b' 0 (Bytes.length b);
      used := b'
    end;
    Bytes.unsafe_set !used r '\001'
  in
  let is_used r = r < Bytes.length !used && Bytes.get !used r <> '\000' in
  let use (o : Ir.operand) =
    match o with Ir.Reg r -> use_reg r | Ir.Const _ -> ()
  in
  let use_source (s : Ir.source) =
    match s with Ir.S_reg r -> use_reg r | _ -> ()
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
  let kept = ref [] in
  for i = Array.length ops - 1 downto 0 do
    let op = ops.(i) in
    let needed =
      (not (Eval_op.removable op))
      || (op.Ir.result >= 0 && is_used op.Ir.result)
    in
    if needed then begin
      Array.iter use op.Ir.args;
      (match op.Ir.opcode with
      | Ir.Guard g -> use_resume g.Ir.resume
      | Ir.Debug_merge_point d -> use_resume d.dmp_resume
      | _ -> ());
      kept := op :: !kept
    end
  done;
  Array.of_list !kept

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
  | Ir.Const v -> shape_of_const v
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
  let ops' = pass_virtuals cfg ops env.subst in
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

(* the MTJ_VERIFY_TRACES hook: report dangling uses on stderr *)
let report_dangling stage (ops : Ir.op array) ~entry_slots ~loop_base =
  if verify_traces then
    List.iter
      (fun d ->
        Printf.eprintf "DANGLING %s: op %d %s undefined r%d: %s\n" stage
          d.d_op
          (if d.d_in_resume then "resume uses" else "uses")
          d.d_reg
          (Format.asprintf "%a" Ir.pp_op ops.(d.d_op)))
      (verify_defs ops ~entry_slots ~loop_base)

let optimize (cfg : Config.t) ?(kind = `Bridge) (ops : Ir.op array)
    ~entry_slots : Ir.op array * int * int =
  let plain () =
    let final, _, _ = straight cfg ops in
    report_dangling "plain" final ~entry_slots ~loop_base:0;
    (final, 0, 0)
  in
  if not (cfg.Config.opt_peel && kind = `Loop && ends_with_jump ops) then
    plain ()
  else begin
    let k = max_reg ops + 1 in
    let body_raw = Array.map (remap_op k (resume_remapper k)) ops in
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
          let all = Array.append pre_final body_final in
          report_dangling "peeled" all ~entry_slots ~loop_base:k;
          (all, k, Array.length pre_final)
    end
  end
