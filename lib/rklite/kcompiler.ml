(** rklite compiler: s-expressions to bytecode.

    Closures are flat: free variables are boxed into cells in their
    defining frame and captured by reference.  Self tail calls (including
    named [let] loops) become [K_TAILJUMP] back-edges — the loop headers
    the meta-tracing driver hooks. *)

open Reader
open Kbytecode
open Mtj_rt

exception Compile_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

let prims =
  [ ("+", P_add); ("-", P_sub); ("*", P_mul); ("/", P_div);
    ("quotient", P_quotient); ("remainder", P_remainder);
    ("modulo", P_modulo); ("<", P_lt); ("<=", P_le); (">", P_gt);
    (">=", P_ge); ("=", P_numeq); ("eq?", P_eq); ("eqv?", P_eq);
    ("equal?", P_equal); ("not", P_not); ("zero?", P_zerop);
    ("null?", P_nullp); ("pair?", P_pairp); ("car", P_car); ("cdr", P_cdr);
    ("cons", P_cons); ("set-car!", P_set_car); ("set-cdr!", P_set_cdr);
    ("vector-ref", P_vector_ref); ("vector-set!", P_vector_set);
    ("vector-length", P_vector_length); ("vector", P_vector);
    ("make-vector", P_make_vector); ("display", P_display);
    ("newline", P_newline); ("sqrt", P_sqrt); ("sin", P_sin);
    ("cos", P_cos); ("expt", P_expt); ("abs", P_abs); ("min", P_min);
    ("max", P_max); ("floor", P_floor); ("number->string", P_num_to_str);
    ("string-append", P_str_append); ("string-length", P_str_length);
    ("exact->inexact", P_to_float); ("list", P_list);
    ("annotate", P_annotate) ]

(* the call-head lookup, derived once from [prims]; the first binding
   wins, as with [List.assoc] *)
let prim_table =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (name, p) -> if not (Hashtbl.mem t name) then Hashtbl.add t name p)
    prims;
  t

(* a call of [name] with [args] is a self tail call, compiled to a
   [K_TAILJUMP] back-edge, when [name] is [self] (the enclosing
   function's own name) and not rebound inside it, the call is in tail
   position, and it passes one argument per parameter *)
let tailjump ~self ~nargs ~shadowed ~tail name args =
  tail && self = Some name && (not shadowed) && List.length args = nargs

(* --- free-variable analysis (transitive through inner lambdas) ---

   Primitive and special-form names count as free like any other atom:
   a scope only consults its free set for names it binds itself, and a
   binding named like a primitive must still be celled when a nested
   lambda uses it.

   A named let's name is free only where its body refers to it other
   than by a self tail call: every other reference captures the loop
   closure from the enclosing scope, which must then cell it.  [self]
   is given when [e] is in tail position of a named let's body: that
   let's name and parameter count. *)

module SSet = Set.Make (String)
module SMap = Map.Make (String)

(* A closure-shaped form compiles to a closure: a [lambda], or a named
   [let], which desugars to one.  Its free set does not depend on the
   [self] it is reached with, and its free set over [bound] is its free
   set over no names, less [bound].  So one program's analysis computes
   each closure's free set once, and each closure's captured set (the
   free sets of the closures at any depth within it, itself included)
   once, keyed by the form itself, and no closure is walked again by
   the scopes that enclose it.  The walks add to the set they are
   given, so an atom costs one [SSet.add]. *)
type memo = {
  mutable free : (sexp * SSet.t) list;
  mutable captured : (sexp * SSet.t) list;
}

let memo () = { free = []; captured = [] }

let closure_shaped = function
  | Slist (Atom "lambda" :: Slist _ :: _)
  | Slist (Atom "let" :: Atom _ :: Slist _ :: _) ->
      true
  | _ -> false

(* [bound] and the names [bindings] bind *)
let bind_all bindings bound =
  List.fold_left
    (fun acc b -> match b with Slist [ Atom v; _ ] -> SSet.add v acc | _ -> acc)
    bound bindings

(* [acc] and the names free in [e] over [bound] *)
let rec free_vars memo ?self (e : sexp) (bound : SSet.t) acc : SSet.t =
  match e with
  | Atom ("#t" | "#f") | Num _ | Fnum _ | Strlit _ -> acc
  | Atom a -> if SSet.mem a bound then acc else SSet.add a acc
  | Slist (Atom "quote" :: _) -> acc
  | Slist _ when closure_shaped e ->
      let free = closure_free memo e in
      SSet.union acc
        (if SSet.is_empty bound then free else SSet.diff free bound)
  | Slist (Atom ("let" | "let*") :: Slist bindings :: body) ->
      free_body memo ?self body (bind_all bindings bound)
        (free_inits memo bindings bound acc)
  | Slist (Atom "letrec" :: Slist bindings :: body) ->
      let bound' = bind_all bindings bound in
      free_body memo ?self body bound' (free_inits memo bindings bound' acc)
  (* the forms that pass tail position on, as [compile_form] does *)
  | Slist [ (Atom "if" as kw); c; t ] ->
      free_vars memo ?self t bound (free_list memo [ kw; c ] bound acc)
  | Slist [ (Atom "if" as kw); c; t; f ] ->
      free_vars memo ?self f bound
        (free_vars memo ?self t bound (free_list memo [ kw; c ] bound acc))
  | Slist ((Atom "cond" as kw) :: clauses) ->
      List.fold_left
        (fun acc clause ->
          match clause with
          | Slist (c :: body) ->
              free_body memo ?self body bound (free_vars memo c bound acc)
          | _ -> free_vars memo clause bound acc)
        (free_vars memo kw bound acc)
        clauses
  | Slist ((Atom ("when" | "unless") as kw) :: c :: body) ->
      free_body memo ?self body bound (free_list memo [ kw; c ] bound acc)
  | Slist ((Atom ("begin" | "and" | "or") as kw) :: body) ->
      free_body memo ?self body bound (free_vars memo kw bound acc)
  | Slist (Atom name :: args)
    when (match self with
         | Some (self, nargs) ->
             tailjump ~self:(Some self) ~nargs
               ~shadowed:(SSet.mem name bound) ~tail:true name args
         | None -> false) ->
      free_list memo args bound acc
  | Slist items -> free_list memo items bound acc

(* [acc] and the names free in [bindings]' inits over [bound] *)
and free_inits memo bindings bound acc =
  List.fold_left
    (fun acc b ->
      match b with Slist [ Atom _; e ] -> free_vars memo e bound acc | _ -> acc)
    acc bindings

(* a closure-shaped form's free set over no bound names *)
and closure_free memo e =
  match List.assq_opt e memo.free with
  | Some free -> free
  | None ->
      let free =
        match e with
        | Slist (Atom "lambda" :: Slist params :: body) ->
            let params =
              List.fold_left
                (fun acc p -> match p with Atom a -> SSet.add a acc | _ -> acc)
                SSet.empty params
            in
            free_list memo body params SSet.empty
        | Slist (Atom "let" :: Atom name :: Slist bindings :: body) ->
            free_body memo
              ~self:(name, List.length bindings)
              body
              (bind_all bindings SSet.empty)
              (free_inits memo bindings SSet.empty SSet.empty)
        | _ -> invalid_arg "Kcompiler.closure_free"
      in
      memo.free <- (e, free) :: memo.free;
      free

and free_list memo items bound acc =
  List.fold_left (fun acc e -> free_vars memo e bound acc) acc items

(* a body: the last expression is in tail position *)
and free_body memo ?self items bound acc =
  match items with
  | [] -> acc
  | [ last ] -> free_vars memo ?self last bound acc
  | e :: rest -> free_body memo ?self rest bound (free_vars memo e bound acc)

(* [acc] and the names captured by any closure nested in [e], at any
   depth, quoted forms included *)
let rec captured memo e acc =
  match e with
  | Slist items when closure_shaped e ->
      let names =
        match List.assq_opt e memo.captured with
        | Some names -> names
        | None ->
            let names = captured_list memo items (closure_free memo e) in
            memo.captured <- (e, names) :: memo.captured;
            names
      in
      SSet.union acc names
  | Slist items -> captured_list memo items acc
  | _ -> acc

and captured_list memo items acc =
  List.fold_left (fun acc e -> captured memo e acc) acc items

(* names captured by any lambda nested in [body] *)
let captured_names memo (body : sexp list) : SSet.t =
  captured_list memo body SSet.empty

(* --- compilation scopes --- *)

type buf = { mutable arr : instr array; mutable len : int }

let buf_create () = { arr = Array.make 32 K_POP; len = 0 }

let emit b i =
  if b.len >= Array.length b.arr then begin
    let bigger = Array.make (2 * Array.length b.arr) K_POP in
    Array.blit b.arr 0 bigger 0 b.len;
    b.arr <- bigger
  end;
  b.arr.(b.len) <- i;
  b.len <- b.len + 1;
  b.len - 1

let patch b pc i = b.arr.(pc) <- i

type scope = {
  parent : scope option;
  fname : string;
  nargs : int;
  self_name : string option;
  defined : SSet.t;                    (* the program's toplevel defines *)
  memo : memo;                         (* the program's analysis *)
  mutable tbl : int SMap.t;            (* visible name -> local slot *)
  celled : SSet.t;                     (* names living in cells *)
  mutable captures : (string * int) list;  (* captured name -> index *)
  mutable nlocals : int;
  buf : buf;
}

let is_celled sc name = SSet.mem name sc.celled

(* reset the names visible in [sc] to a saved table *)
let restore sc saved = sc.tbl <- saved

let bind sc name slot = sc.tbl <- SMap.add name slot sc.tbl

let fresh_slot sc =
  let s = sc.nlocals in
  sc.nlocals <- s + 1;
  s

(* resolve a name to an access plan within this scope *)
type access =
  | A_local of int            (* plain local slot *)
  | A_cell of int             (* local slot holding a cell *)
  | A_global

let rec resolve sc name : access =
  match SMap.find_opt name sc.tbl with
  | Some slot -> if is_celled sc name then A_cell slot else A_local slot
  | None -> (
      match sc.parent with
      | None -> A_global
      | Some parent -> (
          (* capture from an enclosing function: the variable must be a
             cell there (guaranteed by the captured_names analysis) *)
          match parent_has parent name with
          | false -> A_global
          | true -> (
              match List.assoc_opt name sc.captures with
              | Some idx -> A_cell (sc.nargs + idx)
              | None ->
                  let idx = List.length sc.captures in
                  sc.captures <- sc.captures @ [ (name, idx) ];
                  A_cell (sc.nargs + idx))))

and parent_has sc name =
  SMap.mem name sc.tbl
  || match sc.parent with Some p -> parent_has p name | None -> false

(* the slot in [sc] that holds the cell for [name] (for closure capture) *)
let cell_slot_for sc name =
  match resolve sc name with
  | A_cell slot -> slot
  | A_local _ -> error "%s is captured but not celled" name
  | A_global -> error "cannot capture global %s" name

(* --- compilation --- *)

let quote_value (e : sexp) : Value.t =
  match e with
  | Num n -> Value.of_int n
  | Fnum f -> Value.of_float f
  | Strlit s -> Value.of_str s
  | Atom "#t" -> Value.of_bool true
  | Atom "#f" -> Value.of_bool false
  | Atom a -> Value.of_str a  (* symbols are interned as strings *)
  | Slist [] -> Value.nil
  | Slist _ -> error "quoted lists are not supported"

let rec compile_expr sc ~tail (e : sexp) =
  let b = sc.buf in
  match e with
  | Num n -> ignore (emit b (K_CONST (Value.of_int n)))
  | Fnum f -> ignore (emit b (K_CONST (Value.of_float f)))
  | Strlit s -> ignore (emit b (K_CONST (Value.of_str s)))
  | Atom "#t" -> ignore (emit b (K_CONST (Value.of_bool true)))
  | Atom "#f" -> ignore (emit b (K_CONST (Value.of_bool false)))
  | Atom name -> (
      match resolve sc name with
      | A_local slot -> ignore (emit b (K_LOCAL slot))
      | A_cell slot -> ignore (emit b (K_CELL_GET slot))
      | A_global -> ignore (emit b (K_GLOBAL name)))
  | Slist [] -> error "empty application"
  | Slist (head :: args) -> compile_form sc ~tail head args

and compile_form sc ~tail head args =
  let b = sc.buf in
  match (head, args) with
  | Atom "quote", [ v ] -> ignore (emit b (K_CONST (quote_value v)))
  | Atom "if", [ c; t ] ->
      compile_expr sc ~tail:false c;
      let jf = emit b (K_JUMP_IF_FALSE (-1)) in
      compile_expr sc ~tail t;
      let jend = emit b (K_JUMP (-1)) in
      patch b jf (K_JUMP_IF_FALSE b.len);
      ignore (emit b (K_CONST Value.nil));
      patch b jend (K_JUMP b.len)
  | Atom "if", [ c; t; e ] ->
      compile_expr sc ~tail:false c;
      let jf = emit b (K_JUMP_IF_FALSE (-1)) in
      compile_expr sc ~tail t;
      let jend = emit b (K_JUMP (-1)) in
      patch b jf (K_JUMP_IF_FALSE b.len);
      compile_expr sc ~tail e;
      patch b jend (K_JUMP b.len)
  | Atom "cond", clauses ->
      let jends = ref [] in
      let rec go = function
        | [] -> ignore (emit b (K_CONST Value.nil))
        | Slist (Atom "else" :: body) :: _ -> compile_body sc ~tail body
        | Slist (c :: body) :: rest ->
            compile_expr sc ~tail:false c;
            let jf = emit b (K_JUMP_IF_FALSE (-1)) in
            compile_body sc ~tail body;
            jends := emit b (K_JUMP (-1)) :: !jends;
            patch b jf (K_JUMP_IF_FALSE b.len);
            go rest
        | _ -> error "malformed cond clause"
      in
      go clauses;
      List.iter (fun j -> patch b j (K_JUMP b.len)) !jends
  | Atom "when", c :: body ->
      compile_expr sc ~tail:false c;
      let jf = emit b (K_JUMP_IF_FALSE (-1)) in
      compile_body sc ~tail body;
      let jend = emit b (K_JUMP (-1)) in
      patch b jf (K_JUMP_IF_FALSE b.len);
      ignore (emit b (K_CONST Value.nil));
      patch b jend (K_JUMP b.len)
  | Atom "unless", c :: body ->
      compile_form sc ~tail (Atom "when")
        (Slist [ Atom "not"; c ] :: body)
  | Atom "begin", body -> compile_body sc ~tail body
  | Atom "and", [] -> ignore (emit b (K_CONST (Value.of_bool true)))
  | Atom "and", items ->
      let rec go = function
        | [ last ] -> compile_expr sc ~tail last
        | x :: rest ->
            compile_expr sc ~tail:false x;
            let j = emit b (K_JFALSE_OR_POP (-1)) in
            go rest;
            patch b j (K_JFALSE_OR_POP b.len)
        | [] -> assert false
      in
      go items
  | Atom "or", [] -> ignore (emit b (K_CONST (Value.of_bool false)))
  | Atom "or", items ->
      let rec go = function
        | [ last ] -> compile_expr sc ~tail last
        | x :: rest ->
            compile_expr sc ~tail:false x;
            let j = emit b (K_JTRUE_OR_POP (-1)) in
            go rest;
            patch b j (K_JTRUE_OR_POP b.len)
        | [] -> assert false
      in
      go items
  | Atom "set!", [ Atom name; e ] -> (
      compile_expr sc ~tail:false e;
      match resolve sc name with
      | A_local slot -> ignore (emit b (K_SET_LOCAL slot))
      | A_cell slot -> ignore (emit b (K_CELL_SET slot))
      | A_global -> ignore (emit b (K_SET_GLOBAL name)));
      ignore (emit b (K_CONST Value.nil))
  | Atom "lambda", Slist params :: body ->
      compile_closure sc ~cname:"lambda" ~self:None params body
  | Atom "let", Atom name :: Slist bindings :: body ->
      (* named let: (letrec ((name (lambda (vars) body))) (name inits)),
         except that the inits see the enclosing scope, not the loop *)
      let vars, inits =
        List.split
          (List.map
             (function
               | Slist [ Atom v; e ] -> (Atom v, e)
               | _ -> error "malformed named-let binding")
             bindings)
      in
      compile_letrec sc
        [ Slist [ Atom name; Slist (Atom "lambda" :: Slist vars :: body) ] ]
        (fun outer ->
          compile_expr sc ~tail:false (Atom name);
          restore sc outer;
          List.iter (compile_expr sc ~tail:false) inits;
          let n = List.length inits in
          ignore (emit b (if tail then K_TAILCALL n else K_CALL n)))
  | Atom (("let" | "let*") as kw), Slist bindings :: body ->
      (* both evaluate the inits in order, each into a fresh slot; [let*]
         binds each name as soon as its init is compiled, so later inits
         see it, while plain [let] binds its names only once every init
         has compiled *)
      let saved = sc.tbl in
      let sequential = kw = "let*" in
      let bound =
        List.map
          (function
            | Slist [ Atom v; e ] ->
                compile_expr sc ~tail:false e;
                let slot = fresh_slot sc in
                if sequential then bind sc v slot;
                ignore (emit b (K_SET_LOCAL slot));
                if is_celled sc v then ignore (emit b (K_MAKE_CELL slot));
                (v, slot)
            | _ -> error "malformed let binding")
          bindings
      in
      if not sequential then
        List.iter (fun (v, slot) -> bind sc v slot) bound;
      compile_body sc ~tail body;
      restore sc saved
  | Atom "letrec", [ Slist _ ] -> error "letrec needs a body"
  | Atom "letrec", Slist bindings :: body ->
      compile_letrec sc bindings (fun _ -> compile_body sc ~tail body)
  | Atom "define", _ -> error "define is only allowed at toplevel"
  | Atom (("lambda" | "let" | "let*" | "letrec" | "if" | "quote" | "set!"
          | "when" | "unless" | "else") as kw), _ ->
      (* a keyword reaching this point missed every valid shape above *)
      error "malformed %s form" kw
  | Atom name, _
    when tailjump ~self:sc.self_name ~nargs:sc.nargs
           ~shadowed:(SMap.mem name sc.tbl) ~tail name args ->
      (* self tail call -> loop back-edge *)
      List.iter (compile_expr sc ~tail:false) args;
      ignore (emit b (K_TAILJUMP (List.length args)))
  | Atom name, _ -> (
      match Hashtbl.find_opt prim_table name with
      | Some p when not (parent_has sc name || SSet.mem name sc.defined) ->
          List.iter (compile_expr sc ~tail:false) args;
          ignore (emit b (K_PRIM (p, List.length args)))
      | _ -> compile_call sc ~tail head args)
  | _, _ -> compile_call sc ~tail head args

(* bind [bindings] recursively, run [k] (given the enclosing scope's
   names), then restore the enclosing scope *)
and compile_letrec sc bindings k =
  let b = sc.buf in
  let saved = sc.tbl in
  (* pre-bind all names (celled, since the lambdas capture them) *)
  let slots =
    List.map
      (function
        | Slist [ Atom v; _ ] ->
            let slot = fresh_slot sc in
            bind sc v slot;
            ignore (emit b (K_CONST Value.nil));
            ignore (emit b (K_SET_LOCAL slot));
            if is_celled sc v then ignore (emit b (K_MAKE_CELL slot));
            (v, slot)
        | _ -> error "malformed letrec binding")
      bindings
  in
  List.iter2
    (fun (v, slot) binding ->
      match binding with
      | Slist [ Atom _; Slist (Atom "lambda" :: Slist params :: lbody) ] ->
          compile_closure sc ~cname:v ~self:(Some v) params lbody;
          if is_celled sc v then ignore (emit b (K_CELL_SET slot))
          else ignore (emit b (K_SET_LOCAL slot))
      | Slist [ Atom _; e ] ->
          compile_expr sc ~tail:false e;
          if is_celled sc v then ignore (emit b (K_CELL_SET slot))
          else ignore (emit b (K_SET_LOCAL slot))
      | _ -> error "malformed letrec binding")
    slots bindings;
  k saved;
  restore sc saved

and compile_call sc ~tail head args =
  compile_expr sc ~tail:false head;
  List.iter (compile_expr sc ~tail:false) args;
  if tail then ignore (emit sc.buf (K_TAILCALL (List.length args)))
  else ignore (emit sc.buf (K_CALL (List.length args)))

and compile_body sc ~tail = function
  | [] -> ignore (emit sc.buf (K_CONST Value.nil))
  | [ last ] -> compile_expr sc ~tail last
  | x :: rest ->
      compile_expr sc ~tail:false x;
      ignore (emit sc.buf K_POP);
      compile_body sc ~tail rest

and compile_closure sc ~cname ~self params body =
  let code = compile_lambda ~parent:(Some sc) ~cname ~self params body in
  (* tell the parent which of its cell slots to capture *)
  ignore code

and compile_lambda ~parent ~cname ~self params body : unit =
  (* the actual closure-compilation; emits K_CLOSURE into the parent *)
  let param_names =
    List.map
      (function Atom a -> a | _ -> error "bad parameter")
      params
  in
  let memo = match parent with Some p -> p.memo | None -> memo () in
  let celled = captured_names memo body in
  let sc =
    {
      parent;
      fname = cname;
      nargs = List.length param_names;
      self_name = self;
      defined = (match parent with Some p -> p.defined | None -> SSet.empty);
      memo;
      tbl = SMap.empty;
      celled;
      captures = [];
      nlocals = 0;
      buf = buf_create ();
    }
  in
  List.iter
    (fun p ->
      bind sc p sc.nlocals;
      sc.nlocals <- sc.nlocals + 1)
    param_names;
  (* reserve capture slots after the parameters; filled at call time *)
  (* (the count is only known after compiling the body, so the body is
     compiled into its own buffer and capture slots use a distinct range
     starting at nargs; locals after that are offset accordingly) *)
  (* approach: temporarily allocate a generous window is avoided by
     numbering captures inside [resolve] as nargs + index, and starting
     ordinary locals after a post-pass renumber; instead we simply place
     captures at nargs.. and shift locals by patching below. *)
  (* To keep slot numbering simple, captures are discovered on the fly;
     ordinary locals are allocated from a separate high range and
     compacted afterwards. *)
  sc.nlocals <- sc.nargs + 64;  (* locals start after a capture window *)
  let entry_cells = ref [] in
  List.iteri
    (fun i p -> if SSet.mem p celled then entry_cells := i :: !entry_cells)
    param_names;
  let prelude = List.rev_map (fun slot -> K_MAKE_CELL slot) !entry_cells in
  List.iter (fun ins -> ignore (emit sc.buf ins)) prelude;
  compile_body sc ~tail:true body;
  ignore (emit sc.buf K_RETURN);
  let ncaptured = List.length sc.captures in
  if ncaptured > 64 then error "too many captured variables";
  let instrs = Array.sub sc.buf.arr 0 sc.buf.len in
  let n = Array.length instrs in
  let headers = Array.make n false in
  Array.iteri
    (fun pc i ->
      match i with
      | K_TAILJUMP _ -> headers.(0) <- true
      | K_JUMP t when t <= pc -> headers.(t) <- true
      | _ -> ())
    instrs;
  let deepest =
    Mtj_rjit.Stack_depth.deepest instrs ~effect:(fun i -> stack_effect i)
      ~taken_effect:(fun i -> stack_effect ~taken:true i)
      ~target:jump_target ~falls_through
  in
  let code =
    {
      Kbytecode.id = Kcode_table.fresh_id ();
      name = cname;
      nargs = List.length param_names;
      ncaptured;
      nlocals = sc.nlocals;
      stacksize = deepest + 8;
      instrs;
      headers;
    }
  in
  Kcode_table.register code;
  (* emit the K_CLOSURE into the parent, capturing the parent's cells *)
  match parent with
  | Some psc ->
      let capture_slots =
        Array.of_list
          (List.map (fun (name, _) -> cell_slot_for psc name) sc.captures)
      in
      ignore
        (emit psc.buf
           (K_CLOSURE
              {
                code_ref = code.Kbytecode.id;
                arity = code.Kbytecode.nargs;
                cname;
                capture_slots;
              }))
  | None -> ()

(* --- toplevel --- *)

let compile_program (forms : sexp list) : Kbytecode.code =
  let memo = memo () in
  let sc =
    {
      parent = None;
      fname = "<toplevel>";
      nargs = 0;
      self_name = None;
      (* a program's own define of a primitive's name replaces the
         primitive wherever the name is called *)
      defined =
        List.fold_left
          (fun acc form ->
            match form with
            | Slist [ Atom "define"; Atom name; _ ]
            | Slist (Atom "define" :: Slist (Atom name :: _) :: _) ->
                SSet.add name acc
            | _ -> acc)
          SSet.empty forms;
      memo;
      tbl = SMap.empty;
      (* toplevel let/letrec bindings can be captured by lambdas too *)
      celled = captured_names memo forms;
      captures = [];
      nlocals = 0;
      buf = buf_create ();
    }
  in
  let b = sc.buf in
  List.iter
    (fun form ->
      (match form with
      | Slist [ Atom "define"; Atom name; e ] ->
          compile_expr sc ~tail:false e;
          ignore (emit b (K_SET_GLOBAL name));
          ignore (emit b (K_CONST Value.nil))
      | Slist (Atom "define" :: Slist (Atom name :: params) :: body) ->
          compile_lambda ~parent:(Some sc) ~cname:name ~self:(Some name)
            params body;
          ignore (emit b (K_SET_GLOBAL name));
          ignore (emit b (K_CONST Value.nil))
      | e -> compile_expr sc ~tail:false e);
      ignore (emit b K_POP))
    forms;
  ignore (emit b (K_CONST Value.nil));
  ignore (emit b K_RETURN);
  let instrs = Array.sub b.arr 0 b.len in
  let n = Array.length instrs in
  let headers = Array.make n false in
  Array.iteri
    (fun pc i ->
      match i with
      | K_JUMP t when t <= pc -> headers.(t) <- true
      | _ -> ())
    instrs;
  let code =
    {
      Kbytecode.id = Kcode_table.fresh_id ();
      name = "<toplevel>";
      nargs = 0;
      ncaptured = 0;
      nlocals = max 1 sc.nlocals;
      stacksize = 64;
      instrs;
      headers;
    }
  in
  Kcode_table.register code;
  code

let compile_source (src : string) : Kbytecode.code =
  compile_program (Reader.read_all src)
