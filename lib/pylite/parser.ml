(** Recursive-descent parser for pylite.

    It reads the token list from its head, so it builds no array of
    tokens: an array past 256 elements would start in the major heap,
    and OCaml 5 runs a minor collection before it fills one with a
    young value (DESIGN §4).  Binary operators are parsed by precedence
    climbing over [binops], one table lookup per operand rather than one
    function per precedence level. *)

open Ast

exception Syntax_error = Lexer.Syntax_error

(* the tokens not yet read *)
type state = { mutable toks : Lexer.token list }

let error fmt = Printf.ksprintf (fun s -> raise (Syntax_error s)) fmt
let describe t = Format.asprintf "%a" Lexer.pp_token t
let peek st = match st.toks with t :: _ -> t | [] -> Lexer.EOF
let peek2 st = match st.toks with _ :: t :: _ -> t | _ -> Lexer.EOF
let advance st = match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let next st =
  let t = peek st in
  advance st;
  t

let is_op st op =
  match peek st with Lexer.OP o -> String.equal o op | _ -> false

let is_newline st = match peek st with Lexer.NEWLINE -> true | _ -> false

let expect_op st op =
  match next st with
  | Lexer.OP o when String.equal o op -> ()
  | t -> error "expected '%s', got %s" op (describe t)

let expect_kw st kw =
  match next st with
  | Lexer.KW k when String.equal k kw -> ()
  | t -> error "expected '%s', got %s" kw (describe t)

let expect_newline st =
  match next st with
  | Lexer.NEWLINE -> ()
  | t -> error "expected newline, got %s" (describe t)

let expect_name st =
  match next st with
  | Lexer.NAME n -> n
  | t -> error "expected name, got %s" (describe t)

let accept_op st op =
  if is_op st op then begin
    advance st;
    true
  end
  else false

let accept_kw st kw =
  match peek st with
  | Lexer.KW k when String.equal k kw ->
      advance st;
      true
  | _ -> false

(* --- expressions --- *)

(* the left-associative binary operators, loosest first: a level's index
   is its precedence *)
let binops =
  [ [ ("|", Bitor) ]; [ ("^", Bitxor) ]; [ ("&", Bitand) ];
    [ ("<<", Lshift); (">>", Rshift) ]; [ ("+", Add); ("-", Sub) ];
    [ ("*", Mult); ("//", Floordiv); ("/", Div); ("%", Mod) ] ]

(* [binops] grouped by first byte, each with its precedence, derived
   once; every spelling is one of [Lexer.operators] *)
let binops_by_byte =
  let groups = Array.make 256 [] in
  List.iteri
    (fun prec level ->
      List.iter
        (fun (op, b) ->
          assert (List.mem op Lexer.operators);
          let c = Char.code op.[0] in
          groups.(c) <- (op, prec, b) :: groups.(c))
        level)
    binops;
  groups

let rec find_binop o = function
  | [] -> None
  | (op, prec, b) :: group ->
      if String.equal op o then Some (prec, b) else find_binop o group

let rec parse_expr st : expr =
  let e = parse_or st in
  if accept_kw st "if" then begin
    let cond = parse_or st in
    expect_kw st "else";
    let els = parse_expr st in
    If_exp (cond, e, els)
  end
  else e

and parse_or st = or_rest st (parse_and st)

and or_rest st acc =
  if accept_kw st "or" then or_rest st (Bool_op (`Or, acc, parse_and st))
  else acc

and parse_and st = and_rest st (parse_not st)

and and_rest st acc =
  if accept_kw st "and" then and_rest st (Bool_op (`And, acc, parse_not st))
  else acc

and parse_not st =
  if accept_kw st "not" then Un (Not, parse_not st) else parse_comparison st

and cmp_op st : Mtj_rjit.Ops_intf.cmp option =
  match peek st with
  | Lexer.OP "<" -> advance st; Some Mtj_rjit.Ops_intf.Lt
  | Lexer.OP "<=" -> advance st; Some Mtj_rjit.Ops_intf.Le
  | Lexer.OP ">" -> advance st; Some Mtj_rjit.Ops_intf.Gt
  | Lexer.OP ">=" -> advance st; Some Mtj_rjit.Ops_intf.Ge
  | Lexer.OP "==" -> advance st; Some Mtj_rjit.Ops_intf.Eq
  | Lexer.OP "!=" -> advance st; Some Mtj_rjit.Ops_intf.Ne
  | Lexer.KW "in" -> advance st; Some Mtj_rjit.Ops_intf.In
  | Lexer.KW "is" ->
      advance st;
      if accept_kw st "not" then Some Mtj_rjit.Ops_intf.Is_not
      else Some Mtj_rjit.Ops_intf.Is
  | Lexer.KW "not" when (match peek2 st with Lexer.KW "in" -> true | _ -> false)
    ->
      advance st;
      advance st;
      Some Mtj_rjit.Ops_intf.Not_in
  | _ -> None

and parse_comparison st =
  let first = parse_binary st 0 in
  match cmp_op st with
  | None -> first
  | Some op ->
      let second = parse_binary st 0 in
      cmp_chain st (Cmp (op, first, second)) second

(* [a < b < c] is [a < b and b < c] *)
and cmp_chain st acc prev =
  match cmp_op st with
  | None -> acc
  | Some op ->
      let nxt = parse_binary st 0 in
      cmp_chain st (Bool_op (`And, acc, Cmp (op, prev, nxt))) nxt

(* an operand followed by the binary operators of precedence [min] and
   tighter *)
and parse_binary st min = climb st (parse_factor st) min

and climb st lhs min =
  match peek st with
  | Lexer.OP o -> (
      match find_binop o binops_by_byte.(Char.code o.[0]) with
      | Some (prec, op) when prec >= min ->
          advance st;
          let rhs = parse_binary st (prec + 1) in
          climb st (Bin (op, lhs, rhs)) min
      | _ -> lhs)
  | _ -> lhs

and parse_factor st =
  match peek st with
  | Lexer.OP "-" ->
      advance st;
      Un (Neg, parse_factor st)
  | Lexer.OP "+" ->
      advance st;
      parse_factor st
  | _ -> parse_power st

and parse_power st =
  let base = parse_postfix st (parse_atom st) in
  if accept_op st "**" then Bin (Pow, base, parse_factor st) else base

and parse_postfix st e =
  match peek st with
  | Lexer.OP "(" ->
      advance st;
      parse_postfix st (Call (e, parse_call_args st))
  | Lexer.OP "[" ->
      advance st;
      parse_postfix st (parse_subscript st e)
  | Lexer.OP "." ->
      advance st;
      parse_postfix st (Attr (e, expect_name st))
  | _ -> e

and parse_call_args st = if accept_op st ")" then [] else call_args st []

and call_args st acc =
  let e = parse_expr st in
  if accept_op st "," then
    if accept_op st ")" then List.rev (e :: acc) else call_args st (e :: acc)
  else begin
    expect_op st ")";
    List.rev (e :: acc)
  end

(* an optional upper slice bound, then the closing ']' *)
and slice_hi st =
  let hi = if is_op st "]" then None else Some (parse_expr st) in
  expect_op st "]";
  hi

and parse_subscript st e =
  (* after '[': expr | [expr] ':' [expr] *)
  if accept_op st ":" then Slice (e, None, slice_hi st)
  else begin
    let lo = parse_expr st in
    if accept_op st ":" then Slice (e, Some lo, slice_hi st)
    else begin
      expect_op st "]";
      Subscr (e, lo)
    end
  end

(* adjacent string literals concatenate *)
and string_lit st acc =
  match peek st with
  | Lexer.STRING s ->
      advance st;
      string_lit st (acc ^ s)
  | _ -> Str_lit acc

(* the items after a tuple's first ',' *)
and tuple_rest st acc =
  if is_op st ")" then List.rev acc
  else begin
    let e = parse_expr st in
    if accept_op st "," then tuple_rest st (e :: acc) else List.rev (e :: acc)
  end

and list_items st acc =
  let e = parse_expr st in
  if accept_op st "," then
    if is_op st "]" then List.rev (e :: acc) else list_items st (e :: acc)
  else List.rev (e :: acc)

and dict_pairs st acc =
  if accept_op st "," then
    if is_op st "}" then List.rev acc
    else begin
      let k = parse_expr st in
      expect_op st ":";
      let v = parse_expr st in
      dict_pairs st ((k, v) :: acc)
    end
  else List.rev acc

and set_items st acc =
  if accept_op st "," then
    if is_op st "}" then List.rev acc else set_items st (parse_expr st :: acc)
  else List.rev acc

and parse_atom st =
  match next st with
  | Lexer.INT i -> Int_lit i
  | Lexer.FLOAT f -> Float_lit f
  | Lexer.STRING s -> string_lit st s
  | Lexer.KW "True" -> Bool_lit true
  | Lexer.KW "False" -> Bool_lit false
  | Lexer.KW "None" -> None_lit
  | Lexer.NAME n -> Name n
  | Lexer.OP "(" ->
      if accept_op st ")" then Tuple_lit []
      else begin
        let e = parse_expr st in
        if accept_op st "," then begin
          let rest = tuple_rest st [] in
          expect_op st ")";
          Tuple_lit (e :: rest)
        end
        else begin
          expect_op st ")";
          e
        end
      end
  | Lexer.OP "[" ->
      if accept_op st "]" then List_lit []
      else begin
        let items = list_items st [] in
        expect_op st "]";
        List_lit items
      end
  | Lexer.OP "{" ->
      if accept_op st "}" then Dict_lit []
      else begin
        let first = parse_expr st in
        if accept_op st ":" then begin
          let v = parse_expr st in
          let pairs = dict_pairs st [ (first, v) ] in
          expect_op st "}";
          Dict_lit pairs
        end
        else begin
          let items = set_items st [ first ] in
          expect_op st "}";
          Set_lit items
        end
      end
  | t -> error "unexpected token %s" (describe t)

(* an expression list at statement level: [e, e, ...] makes a tuple *)
let rec exprlist_rest st acc =
  if accept_op st "," then
    match peek st with
    | Lexer.NEWLINE | Lexer.OP "=" -> List.rev acc
    | _ -> exprlist_rest st (parse_expr st :: acc)
  else List.rev acc

let parse_exprlist st =
  let e = parse_expr st in
  if is_op st "," then Tuple_lit (exprlist_rest st [ e ]) else e

(* --- statements --- *)

let target_of_expr (e : expr) : target =
  match e with
  | Name n -> T_name n
  | Attr (o, a) -> T_attr (o, a)
  | Subscr (o, k) -> T_subscr (o, k)
  | Slice (o, lo, hi) -> T_slice (o, lo, hi)
  | Tuple_lit items ->
      T_tuple
        (List.map
           (function
             | Name n -> n
             | _ -> error "only simple names in tuple assignment")
           items)
  | _ -> error "invalid assignment target"

let aug_of_op = function
  | "+=" -> Add
  | "-=" -> Sub
  | "*=" -> Mult
  | "/=" -> Div
  | "//=" -> Floordiv
  | "%=" -> Mod
  | "**=" -> Pow
  | "<<=" -> Lshift
  | ">>=" -> Rshift
  | "&=" -> Bitand
  | "|=" -> Bitor
  | "^=" -> Bitxor
  | op -> error "unknown augmented assignment %s" op

(* names separated by ',', at least one *)
let rec names st acc =
  let n = expect_name st in
  if accept_op st "," then names st (n :: acc) else List.rev (n :: acc)

let rec parse_stmt st : stmt list =
  match peek st with
  | Lexer.NEWLINE ->
      advance st;
      []
  | Lexer.KW "if" -> [ parse_if st ]
  | Lexer.KW "while" ->
      advance st;
      let cond = parse_expr st in
      expect_op st ":";
      let body = parse_suite st in
      [ While (cond, body) ]
  | Lexer.KW "for" ->
      advance st;
      let first = expect_name st in
      let vars = if accept_op st "," then first :: names st [] else [ first ] in
      expect_kw st "in";
      let iter = parse_exprlist st in
      expect_op st ":";
      let body = parse_suite st in
      [ For (vars, iter, body) ]
  | Lexer.KW "def" ->
      advance st;
      let name = expect_name st in
      expect_op st "(";
      let params =
        if accept_op st ")" then []
        else begin
          let ps = names st [] in
          expect_op st ")";
          ps
        end
      in
      expect_op st ":";
      let body = parse_suite st in
      [ Def (name, params, body) ]
  | Lexer.KW "class" ->
      advance st;
      let name = expect_name st in
      let parent =
        if accept_op st "(" then begin
          if accept_op st ")" then None
          else begin
            let p = expect_name st in
            expect_op st ")";
            Some p
          end
        end
        else None
      in
      expect_op st ":";
      let body = parse_suite st in
      [ Class (name, parent, body) ]
  | _ -> parse_simple_line st

and parse_if st =
  expect_kw st "if";
  let cond = parse_expr st in
  expect_op st ":";
  let body = parse_suite st in
  let rest, els = if_arms st in
  If ((cond, body) :: rest, els)

and if_arms st =
  if accept_kw st "elif" then begin
    let c = parse_expr st in
    expect_op st ":";
    let b = parse_suite st in
    let rest, els = if_arms st in
    ((c, b) :: rest, els)
  end
  else if accept_kw st "else" then begin
    expect_op st ":";
    let b = parse_suite st in
    ([], b)
  end
  else ([], [])

and parse_simple_line st =
  let stmts = simple_stmts st [] in
  expect_newline st;
  stmts

(* the ';'-separated statements of one line *)
and simple_stmts st acc =
  let acc = parse_simple st :: acc in
  if accept_op st ";" && not (is_newline st) then simple_stmts st acc
  else List.rev acc

and parse_simple st : stmt =
  match peek st with
  | Lexer.KW "return" ->
      advance st;
      (match peek st with
      | Lexer.NEWLINE | Lexer.OP ";" -> Return None
      | _ -> Return (Some (parse_exprlist st)))
  | Lexer.KW "break" ->
      advance st;
      Break
  | Lexer.KW "continue" ->
      advance st;
      Continue
  | Lexer.KW "pass" ->
      advance st;
      Pass
  | Lexer.KW "global" ->
      advance st;
      Global (names st [])
  | Lexer.KW "del" ->
      advance st;
      let e = parse_expr st in
      (match e with
      | Subscr (o, k) -> Del (o, k)
      | _ -> error "only 'del x[k]' is supported")
  | _ -> (
      let e = parse_exprlist st in
      match peek st with
      | Lexer.OP "=" ->
          advance st;
          let rhs = parse_exprlist st in
          Assign (target_of_expr e, rhs)
      | Lexer.OP
          (( "+=" | "-=" | "*=" | "/=" | "//=" | "%=" | "**=" | "<<=" | ">>="
           | "&=" | "|=" | "^=" ) as op) ->
          advance st;
          let rhs = parse_exprlist st in
          Aug_assign (target_of_expr e, aug_of_op op, rhs)
      | _ -> Expr_stmt e)

and parse_suite st : stmt list =
  if accept_op st ";" then error "unexpected ';'"
  else if is_newline st then begin
    advance st;
    (match next st with
    | Lexer.INDENT -> ()
    | t -> error "expected indented block, got %s" (describe t));
    suite_stmts st []
  end
  else parse_simple_line st

(* a block's statements, up to and including its DEDENT *)
and suite_stmts st acc =
  match peek st with
  | Lexer.DEDENT ->
      advance st;
      List.rev acc
  | Lexer.EOF -> List.rev acc
  | _ -> suite_stmts st (List.rev_append (parse_stmt st) acc)

let parse (src : string) : program =
  let st = { toks = Lexer.tokenize src } in
  let rec go acc =
    match peek st with
    | Lexer.EOF -> List.rev acc
    | Lexer.NEWLINE | Lexer.DEDENT ->
        advance st;
        go acc
    | _ -> go (List.rev_append (parse_stmt st) acc)
  in
  go []
