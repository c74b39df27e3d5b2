(** AST-to-bytecode compiler for pylite. *)

open Ast
open Bytecode
open Mtj_rt

exception Compile_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

(* growable instruction buffer *)
type buf = { mutable arr : instr array; mutable len : int }

let buf_create () = { arr = Array.make 64 NOP; len = 0 }

let emit b i =
  if b.len >= Array.length b.arr then begin
    let bigger = Array.make (2 * Array.length b.arr) NOP in
    Array.blit b.arr 0 bigger 0 b.len;
    b.arr <- bigger
  end;
  b.arr.(b.len) <- i;
  b.len <- b.len + 1;
  b.len - 1

let patch b pc i = b.arr.(pc) <- i

type ctx = {
  fname : string;
  is_module : bool;
  locals : (string, int) Hashtbl.t;
  mutable nlocals : int;
  globals_decl : (string, unit) Hashtbl.t;
  buf : buf;
  (* loop contexts: (continue target, break patch sites) *)
  mutable loops : (int * int list ref) list;
}

let fresh_temp ctx =
  let slot = ctx.nlocals in
  ctx.nlocals <- slot + 1;
  slot

let local_slot ctx name =
  if Hashtbl.mem ctx.globals_decl name then None
  else Hashtbl.find_opt ctx.locals name

let declare_local ctx name =
  if
    (not ctx.is_module)
    && (not (Hashtbl.mem ctx.globals_decl name))
    && not (Hashtbl.mem ctx.locals name)
  then begin
    Hashtbl.replace ctx.locals name ctx.nlocals;
    ctx.nlocals <- ctx.nlocals + 1
  end

(* find names assigned anywhere in the body: they become locals *)
let rec scan_stmt ctx (s : stmt) =
  match s with
  | Assign (t, _) | Aug_assign (t, _, _) -> (
      match t with
      | T_name n -> declare_local ctx n
      | T_tuple ns -> List.iter (declare_local ctx) ns
      | T_attr _ | T_subscr _ | T_slice _ -> ())
  | For (vars, _, body) ->
      List.iter (declare_local ctx) vars;
      List.iter (scan_stmt ctx) body
  | If (arms, els) ->
      List.iter (fun (_, b) -> List.iter (scan_stmt ctx) b) arms;
      List.iter (scan_stmt ctx) els
  | While (_, body) -> List.iter (scan_stmt ctx) body
  | Global names -> List.iter (fun n -> Hashtbl.replace ctx.globals_decl n ()) names
  | Def _ | Class _ | Expr_stmt _ | Return _ | Break | Continue | Pass
  | Del _ ->
      ()

let max_int_const = Value.of_int max_int

(* --- expressions --- *)

let rec compile_expr ctx (e : expr) =
  let b = ctx.buf in
  match e with
  | Int_lit i -> ignore (emit b (LOAD_CONST (Value.of_int i)))
  | Float_lit f -> ignore (emit b (LOAD_CONST (Value.of_float f)))
  | Str_lit s -> ignore (emit b (LOAD_CONST (Value.of_str s)))
  | Bool_lit v -> ignore (emit b (LOAD_CONST (Value.of_bool v)))
  | None_lit -> ignore (emit b (LOAD_CONST Value.nil))
  | Name n -> (
      match local_slot ctx n with
      | Some slot -> ignore (emit b (LOAD_FAST slot))
      | None -> ignore (emit b (LOAD_GLOBAL n)))
  | Bin (op, a, x) ->
      compile_expr ctx a;
      compile_expr ctx x;
      ignore (emit b (BINARY op))
  | Un (Neg, a) ->
      compile_expr ctx a;
      ignore (emit b UNARY_NEG)
  | Un (Not, a) ->
      compile_expr ctx a;
      ignore (emit b UNARY_NOT)
  | Cmp (op, a, x) ->
      compile_expr ctx a;
      compile_expr ctx x;
      ignore (emit b (COMPARE op))
  | Bool_op (`And, a, x) ->
      compile_expr ctx a;
      let j = emit b (JUMP_IF_FALSE_OR_POP (-1)) in
      compile_expr ctx x;
      patch b j (JUMP_IF_FALSE_OR_POP b.len)
  | Bool_op (`Or, a, x) ->
      compile_expr ctx a;
      let j = emit b (JUMP_IF_TRUE_OR_POP (-1)) in
      compile_expr ctx x;
      patch b j (JUMP_IF_TRUE_OR_POP b.len)
  | If_exp (cond, thn, els) ->
      compile_expr ctx cond;
      let jf = emit b (POP_JUMP_IF_FALSE (-1)) in
      compile_expr ctx thn;
      let jend = emit b (JUMP (-1)) in
      patch b jf (POP_JUMP_IF_FALSE b.len);
      compile_expr ctx els;
      patch b jend (JUMP b.len)
  | Call (Attr (obj, meth), args) ->
      compile_expr ctx obj;
      ignore (emit b (LOAD_METHOD meth));
      List.iter (compile_expr ctx) args;
      ignore (emit b (CALL_METHOD (List.length args)))
  | Call (callee, args) ->
      compile_expr ctx callee;
      List.iter (compile_expr ctx) args;
      ignore (emit b (CALL_FUNCTION (List.length args)))
  | Attr (obj, a) ->
      compile_expr ctx obj;
      ignore (emit b (LOAD_ATTR a))
  | Subscr (obj, k) ->
      compile_expr ctx obj;
      compile_expr ctx k;
      ignore (emit b BINARY_SUBSCR)
  | Slice (obj, lo, hi) ->
      compile_expr ctx obj;
      compile_slice_bounds ctx lo hi;
      ignore (emit b GET_SLICE)
  | List_lit items ->
      List.iter (compile_expr ctx) items;
      ignore (emit b (BUILD_LIST (List.length items)))
  | Tuple_lit items ->
      List.iter (compile_expr ctx) items;
      ignore (emit b (BUILD_TUPLE (List.length items)))
  | Dict_lit pairs ->
      List.iter
        (fun (k, v) ->
          compile_expr ctx k;
          compile_expr ctx v)
        pairs;
      ignore (emit b (BUILD_DICT (List.length pairs)))
  | Set_lit items ->
      List.iter (compile_expr ctx) items;
      ignore (emit b (BUILD_SET (List.length items)))

and compile_slice_bounds ctx lo hi =
  let b = ctx.buf in
  (match lo with
  | Some e -> compile_expr ctx e
  | None -> ignore (emit b (LOAD_CONST (Value.of_int 0))));
  match hi with
  | Some e -> compile_expr ctx e
  | None -> ignore (emit b (LOAD_CONST max_int_const))

(* --- statements --- *)

let store_name ctx n =
  let b = ctx.buf in
  match local_slot ctx n with
  | Some slot -> ignore (emit b (STORE_FAST slot))
  | None -> ignore (emit b (STORE_GLOBAL n))

(* a syntactic range(...) call that really refers to the builtin *)
let as_range_call ctx (e : expr) =
  match e with
  | Call (Name "range", args)
    when local_slot ctx "range" = None && List.length args >= 1
         && List.length args <= 3 ->
      Some args
  | _ -> None

let rec compile_stmt ctx (s : stmt) =
  let b = ctx.buf in
  match s with
  | Expr_stmt e ->
      compile_expr ctx e;
      ignore (emit b POP_TOP)
  | Assign (T_name n, e) ->
      compile_expr ctx e;
      store_name ctx n
  | Assign (T_attr (obj, a), e) ->
      compile_expr ctx obj;
      compile_expr ctx e;
      ignore (emit b (STORE_ATTR a))
  | Assign (T_subscr (obj, k), e) ->
      compile_expr ctx obj;
      compile_expr ctx k;
      compile_expr ctx e;
      ignore (emit b STORE_SUBSCR)
  | Assign (T_slice (obj, lo, hi), e) ->
      compile_expr ctx obj;
      compile_slice_bounds ctx lo hi;
      compile_expr ctx e;
      ignore (emit b SET_SLICE)
  | Assign (T_tuple names, e) ->
      compile_expr ctx e;
      ignore (emit b (UNPACK_SEQUENCE (List.length names)));
      List.iter (store_name ctx) names
  | Aug_assign (T_name n, op, e) ->
      compile_expr ctx (Name n);
      compile_expr ctx e;
      ignore (emit b (BINARY op));
      store_name ctx n
  | Aug_assign (T_attr (obj, a), op, e) ->
      compile_expr ctx obj;
      ignore (emit b DUP_TOP);
      ignore (emit b (LOAD_ATTR a));
      compile_expr ctx e;
      ignore (emit b (BINARY op));
      ignore (emit b (STORE_ATTR a))
  | Aug_assign (T_subscr (obj, k), op, e) ->
      let t_obj = fresh_temp ctx and t_key = fresh_temp ctx in
      compile_expr ctx obj;
      ignore (emit b (STORE_FAST t_obj));
      compile_expr ctx k;
      ignore (emit b (STORE_FAST t_key));
      ignore (emit b (LOAD_FAST t_obj));
      ignore (emit b (LOAD_FAST t_key));
      ignore (emit b (LOAD_FAST t_obj));
      ignore (emit b (LOAD_FAST t_key));
      ignore (emit b BINARY_SUBSCR);
      compile_expr ctx e;
      ignore (emit b (BINARY op));
      ignore (emit b STORE_SUBSCR)
  | Aug_assign ((T_slice _ | T_tuple _), _, _) ->
      error "augmented assignment target not supported"
  | If (arms, els) ->
      let end_jumps = ref [] in
      List.iter
        (fun (cond, body) ->
          compile_expr ctx cond;
          let jf = emit b (POP_JUMP_IF_FALSE (-1)) in
          List.iter (compile_stmt ctx) body;
          end_jumps := emit b (JUMP (-1)) :: !end_jumps;
          patch b jf (POP_JUMP_IF_FALSE b.len))
        arms;
      List.iter (compile_stmt ctx) els;
      List.iter (fun j -> patch b j (JUMP b.len)) !end_jumps
  | While (cond, body) ->
      let header = b.len in
      let always_true =
        match cond with Bool_lit true | Int_lit 1 -> true | _ -> false
      in
      let exit_patch =
        if always_true then None
        else begin
          compile_expr ctx cond;
          Some (emit b (POP_JUMP_IF_FALSE (-1)))
        end
      in
      let breaks = ref [] in
      ctx.loops <- (header, breaks) :: ctx.loops;
      List.iter (compile_stmt ctx) body;
      ctx.loops <- List.tl ctx.loops;
      ignore (emit b (JUMP header));
      (match exit_patch with
      | Some j -> patch b j (POP_JUMP_IF_FALSE b.len)
      | None -> ());
      List.iter (fun j -> patch b j (JUMP b.len)) !breaks
  | For (vars, iter, body) -> (
      match as_range_call ctx iter with
      | Some range_args -> compile_for_range ctx vars range_args body
      | None -> compile_for_each ctx vars iter body)
  | Def (name, params, body) ->
      if not ctx.is_module then error "nested functions are not supported";
      let code = compile_function ~fname:name ~params ~body in
      ignore
        (emit b
           (MAKE_FUNCTION
              { code_ref = code.id; fname = name; arity = List.length params }));
      ignore (emit b (STORE_GLOBAL name))
  | Class (name, parent, body) ->
      if not ctx.is_module then error "nested classes are not supported";
      let methods =
        List.filter_map
          (function
            | Def (mname, params, mbody) ->
                let code =
                  compile_function ~fname:(name ^ "." ^ mname) ~params
                    ~body:mbody
                in
                Some (mname, code, List.length params)
            | Pass -> None
            | _ -> error "class bodies may only contain methods")
          body
      in
      List.iter
        (fun (mname, (code : Bytecode.code), arity) ->
          ignore
            (emit b
               (MAKE_FUNCTION { code_ref = code.id; fname = mname; arity })))
        methods;
      ignore
        (emit b
           (MAKE_CLASS
              { cls_name = name; parent; methods = List.map (fun (m, _, _) -> m) methods }));
      ignore (emit b (STORE_GLOBAL name))
  | Return None -> ignore (emit b RETURN_NONE)
  | Return (Some e) ->
      compile_expr ctx e;
      ignore (emit b RETURN_VALUE)
  | Break -> (
      match ctx.loops with
      | (_, breaks) :: _ -> breaks := emit b (JUMP (-1)) :: !breaks
      | [] -> error "break outside loop")
  | Continue -> (
      match ctx.loops with
      | (header, _) :: _ -> ignore (emit b (JUMP header))
      | [] -> error "continue outside loop")
  | Pass -> ()
  | Global _ -> ()  (* handled in the scan pass *)
  | Del (obj, k) ->
      compile_expr ctx obj;
      compile_expr ctx k;
      ignore (emit b DELETE_SUBSCR)

(* the loop variable slot; at module level named variables are globals,
   so the loop writes a hidden local that is copied out at each
   iteration *)
and loop_var_slot ctx v =
  match local_slot ctx v with
  | Some slot -> (slot, None)
  | None -> (fresh_temp ctx, Some v)

and compile_for_range ctx vars args body =
  let b = ctx.buf in
  let var, global_copy =
    match vars with
    | [ v ] -> loop_var_slot ctx v
    | _ -> error "range loops take a single variable"
  in
  let cur = fresh_temp ctx and stop = fresh_temp ctx and step = fresh_temp ctx in
  (match args with
  | [ e_stop ] ->
      ignore (emit b (LOAD_CONST (Value.of_int 0)));
      ignore (emit b (STORE_FAST cur));
      compile_expr ctx e_stop;
      ignore (emit b (STORE_FAST stop));
      ignore (emit b (LOAD_CONST (Value.of_int 1)));
      ignore (emit b (STORE_FAST step))
  | [ e_start; e_stop ] ->
      compile_expr ctx e_start;
      ignore (emit b (STORE_FAST cur));
      compile_expr ctx e_stop;
      ignore (emit b (STORE_FAST stop));
      ignore (emit b (LOAD_CONST (Value.of_int 1)));
      ignore (emit b (STORE_FAST step))
  | [ e_start; e_stop; e_step ] ->
      compile_expr ctx e_start;
      ignore (emit b (STORE_FAST cur));
      compile_expr ctx e_stop;
      ignore (emit b (STORE_FAST stop));
      compile_expr ctx e_step;
      ignore (emit b (STORE_FAST step))
  | _ -> error "range() takes 1-3 arguments");
  let header = emit b NOP in
  let breaks = ref [] in
  ctx.loops <- (header, breaks) :: ctx.loops;
  (match global_copy with
  | None -> ()
  | Some name ->
      ignore (emit b (LOAD_FAST var));
      ignore (emit b (STORE_GLOBAL name)));
  List.iter (compile_stmt ctx) body;
  ctx.loops <- List.tl ctx.loops;
  ignore (emit b (JUMP header));
  patch b header (FOR_RANGE { var; cur; stop; step; exit = b.len });
  List.iter (fun j -> patch b j (JUMP b.len)) !breaks

and compile_for_each ctx vars iter body =
  let b = ctx.buf in
  let seq = fresh_temp ctx and idx = fresh_temp ctx in
  compile_expr ctx iter;
  ignore (emit b GET_INDEXABLE);
  ignore (emit b (STORE_FAST seq));
  ignore (emit b (LOAD_CONST (Value.of_int 0)));
  ignore (emit b (STORE_FAST idx));
  let var, prologue =
    match vars with
    | [ v ] -> (
        match loop_var_slot ctx v with
        | slot, None -> (slot, `None)
        | slot, Some name -> (slot, `Copy_global name))
    | many ->
        let t = fresh_temp ctx in
        (t, `Unpack many)
  in
  let header = emit b NOP in
  let breaks = ref [] in
  ctx.loops <- (header, breaks) :: ctx.loops;
  (match prologue with
  | `None -> ()
  | `Copy_global name ->
      ignore (emit b (LOAD_FAST var));
      ignore (emit b (STORE_GLOBAL name))
  | `Unpack names ->
      ignore (emit b (LOAD_FAST var));
      ignore (emit b (UNPACK_SEQUENCE (List.length names)));
      List.iter (store_name ctx) names);
  List.iter (compile_stmt ctx) body;
  ctx.loops <- List.tl ctx.loops;
  ignore (emit b (JUMP header));
  patch b header (FOR_ITER { var; seq; idx; exit = b.len });
  List.iter (fun j -> patch b j (JUMP b.len)) !breaks

(* --- code-object assembly --- *)

and finalize ctx ~nargs : Bytecode.code =
  let b = ctx.buf in
  (* ensure the code ends with a return *)
  ignore (emit b RETURN_NONE);
  let instrs = Array.sub b.arr 0 b.len in
  let n = Array.length instrs in
  (* loop headers: targets of backward jumps *)
  let headers = Array.make n false in
  Array.iteri
    (fun pc i ->
      match i with
      | JUMP t when t <= pc -> headers.(t) <- true
      | _ -> ())
    instrs;
  let deepest =
    Mtj_rjit.Stack_depth.deepest instrs ~effect:(fun i -> stack_effect i)
      ~taken_effect:(fun i -> stack_effect ~taken:true i)
      ~target:jump_target ~falls_through
  in
  let code =
    {
      Bytecode.id = Code_table.fresh_id ();
      name = ctx.fname;
      nargs;
      nlocals = max 1 ctx.nlocals;
      stacksize = deepest + 8;
      instrs;
      headers;
      varnames =
        begin
          let arr = Array.make (max 1 ctx.nlocals) "" in
          Hashtbl.iter (fun name slot -> if slot < Array.length arr then arr.(slot) <- name) ctx.locals;
          arr
        end;
    }
  in
  Code_table.register code;
  code

and compile_function ~fname ~params ~body : Bytecode.code =
  let ctx =
    {
      fname;
      is_module = false;
      locals = Hashtbl.create 16;
      nlocals = 0;
      globals_decl = Hashtbl.create 4;
      buf = buf_create ();
      loops = [];
    }
  in
  (* globals declarations must be seen before locals are assigned *)
  List.iter
    (function
      | Global names ->
          List.iter (fun n -> Hashtbl.replace ctx.globals_decl n ()) names
      | _ -> ())
    body;
  List.iter
    (fun p ->
      Hashtbl.replace ctx.locals p ctx.nlocals;
      ctx.nlocals <- ctx.nlocals + 1)
    params;
  List.iter (scan_stmt ctx) body;
  List.iter (compile_stmt ctx) body;
  finalize ctx ~nargs:(List.length params)

let compile_module (prog : Ast.program) : Bytecode.code =
  let ctx =
    {
      fname = "<module>";
      is_module = true;
      locals = Hashtbl.create 16;
      nlocals = 0;
      globals_decl = Hashtbl.create 4;
      buf = buf_create ();
      loops = [];
    }
  in
  List.iter (compile_stmt ctx) prog;
  finalize ctx ~nargs:0

let compile_source (src : string) : Bytecode.code =
  compile_module (Parser.parse src)
