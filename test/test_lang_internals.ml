(** Unit tests for the language frontends: pylite lexer/parser/compiler
    and the rklite reader/compiler. *)

module L = Mtj_pylite.Lexer
module P = Mtj_pylite.Parser
module A = Mtj_pylite.Ast
module BC = Mtj_pylite.Bytecode
module KR = Mtj_rklite.Reader

(* --- pylite lexer --- *)

let toks src = L.tokenize src

let test_lex_simple () =
  match toks "x = 1 + 2\n" with
  | [ L.NAME "x"; L.OP "="; L.INT 1; L.OP "+"; L.INT 2; L.NEWLINE; L.EOF ] ->
      ()
  | other -> Alcotest.failf "unexpected tokens (%d)" (List.length other)

let test_lex_indentation () =
  let t = toks "if x:\n    y = 1\nz = 2\n" in
  let indents = List.filter (( = ) L.INDENT) t in
  let dedents = List.filter (( = ) L.DEDENT) t in
  Alcotest.(check int) "one indent" 1 (List.length indents);
  Alcotest.(check int) "one dedent" 1 (List.length dedents)

let test_lex_nested_dedents () =
  let t = toks "if a:\n    if b:\n        x = 1\ny = 2\n" in
  Alcotest.(check int) "two dedents" 2
    (List.length (List.filter (( = ) L.DEDENT) t))

let test_lex_floats () =
  (match toks "x = 1.5\n" with
  | [ _; _; L.FLOAT f; _; _ ] -> Alcotest.(check (float 0.0)) "1.5" 1.5 f
  | _ -> Alcotest.fail "float");
  match toks "y = 2e3\n" with
  | [ _; _; L.FLOAT f; _; _ ] -> Alcotest.(check (float 0.0)) "2e3" 2000.0 f
  | _ -> Alcotest.fail "exponent float"

let token = Alcotest.testable L.pp_token ( = )

(* a decimal int literal reads up to max_int and no further *)
let test_lex_int_literals () =
  List.iter
    (fun (src, v) ->
      Alcotest.(check (list token))
        src [ L.INT v; L.NEWLINE; L.EOF ] (toks src))
    [ ("0", 0); ("007", 7); ("123456789012345678", 123456789012345678);
      ("4611686018427387903", max_int) ];
  Alcotest.check_raises "past max_int"
    (L.Syntax_error "invalid number literal: 4611686018427387904") (fun () ->
      ignore (toks "4611686018427387904"))

let test_lex_strings () =
  (match toks "s = \"a\\nb\"\n" with
  | [ _; _; L.STRING s; _; _ ] -> Alcotest.(check string) "escape" "a\nb" s
  | _ -> Alcotest.fail "string");
  match toks "s = 'it'\n" with
  | [ _; _; L.STRING s; _; _ ] -> Alcotest.(check string) "single" "it" s
  | _ -> Alcotest.fail "single-quoted"

let test_lex_comments_blank_lines () =
  let t = toks "# a comment\n\nx = 1  # trailing\n" in
  Alcotest.(check int) "one name" 1
    (List.length (List.filter (function L.NAME _ -> true | _ -> false) t))

let test_lex_multichar_ops () =
  match toks "x //= 2 ** 3\n" with
  | [ _; L.OP "//="; _; L.OP "**"; _; _; _ ] -> ()
  | _ -> Alcotest.fail "multichar operators"

let test_lex_every_operator () =
  List.iter
    (fun op ->
      Alcotest.(check (list token)) op [ L.OP op; L.NEWLINE; L.EOF ] (toks op))
    L.operators

let test_lex_longest_match () =
  List.iter
    (fun (src, l, op, r) ->
      Alcotest.(check (list token)) src
        [ L.NAME l; L.OP op; r; L.NEWLINE; L.EOF ]
        (toks src))
    [ ("a<<=b", "a", "<<=", L.NAME "b"); ("x**=2", "x", "**=", L.INT 2);
      ("a//b", "a", "//", L.NAME "b"); ("a<=b", "a", "<=", L.NAME "b");
      ("a!=b", "a", "!=", L.NAME "b") ];
  Alcotest.check_raises "lone !" (L.Syntax_error "unexpected character '!'")
    (fun () -> ignore (toks "!"))

let test_lex_keywords () =
  List.iter
    (fun kw ->
      Alcotest.(check (list token)) kw [ L.KW kw; L.NEWLINE; L.EOF ] (toks kw))
    L.keywords;
  List.iter
    (fun w ->
      Alcotest.(check (list token)) w [ L.NAME w; L.NEWLINE; L.EOF ] (toks w))
    [ "iff"; "Truee"; "_if"; "define" ]

let test_lex_paren_continuation () =
  (* newlines inside brackets do not end the logical line *)
  let t = toks "x = [1,\n     2]\n" in
  Alcotest.(check int) "one newline" 1
    (List.length (List.filter (( = ) L.NEWLINE) t))

let test_lex_error () =
  Alcotest.check_raises "bad char" (L.Syntax_error "unexpected character '?'")
    (fun () -> ignore (toks "x ? y\n"))

(* --- pylite parser --- *)

let parse1 src =
  match P.parse src with [ s ] -> s | l -> Alcotest.failf "got %d stmts" (List.length l)

let test_parse_precedence () =
  match parse1 "x = 1 + 2 * 3\n" with
  | A.Assign (A.T_name "x", A.Bin (A.Add, A.Int_lit 1, A.Bin (A.Mult, _, _)))
    ->
      ()
  | _ -> Alcotest.fail "precedence"

let test_parse_unary_power () =
  (match parse1 "x = -y\n" with
  | A.Assign (_, A.Un (A.Neg, A.Name "y")) -> ()
  | _ -> Alcotest.fail "unary");
  match parse1 "x = 2 ** 3 ** 2\n" with
  (* right-associative *)
  | A.Assign (_, A.Bin (A.Pow, A.Int_lit 2, A.Bin (A.Pow, _, _))) -> ()
  | _ -> Alcotest.fail "pow assoc"

let test_parse_chained_cmp () =
  match parse1 "x = 1 < y < 3\n" with
  | A.Assign (_, A.Bool_op (`And, A.Cmp (Mtj_rjit.Ops_intf.Lt, _, _), A.Cmp _))
    ->
      ()
  | _ -> Alcotest.fail "chain"

let test_parse_call_attr_chain () =
  match parse1 "x = a.b.c(1)[2]\n" with
  | A.Assign
      (_, A.Subscr (A.Call (A.Attr (A.Attr (A.Name "a", "b"), "c"), [ _ ]), _))
    ->
      ()
  | _ -> Alcotest.fail "postfix chain"

let test_parse_tuple_assign () =
  match parse1 "a, b = b, a\n" with
  | A.Assign (A.T_tuple [ "a"; "b" ], A.Tuple_lit [ A.Name "b"; A.Name "a" ])
    ->
      ()
  | _ -> Alcotest.fail "tuple assignment"

let test_parse_if_elif_else () =
  match parse1 "if a:\n    pass\nelif b:\n    pass\nelse:\n    pass\n" with
  | A.If ([ (A.Name "a", _); (A.Name "b", _) ], [ A.Pass ]) -> ()
  | _ -> Alcotest.fail "if/elif/else"

let test_parse_def_and_class () =
  match P.parse "def f(a, b):\n    return a\nclass C(B):\n    pass\n" with
  | [ A.Def ("f", [ "a"; "b" ], [ A.Return (Some _) ]);
      A.Class ("C", Some "B", [ A.Pass ]) ] ->
      ()
  | _ -> Alcotest.fail "def/class"

let test_parse_slice () =
  match parse1 "x = l[1:2]\n" with
  | A.Assign (_, A.Slice (A.Name "l", Some (A.Int_lit 1), Some (A.Int_lit 2)))
    ->
      ()
  | _ -> Alcotest.fail "slice"

let test_parse_not_in_is_not () =
  (match parse1 "x = a not in b\n" with
  | A.Assign (_, A.Cmp (Mtj_rjit.Ops_intf.Not_in, _, _)) -> ()
  | _ -> Alcotest.fail "not in");
  match parse1 "x = a is not b\n" with
  | A.Assign (_, A.Cmp (Mtj_rjit.Ops_intf.Is_not, _, _)) -> ()
  | _ -> Alcotest.fail "is not"

let test_parse_error_reported () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (P.parse "def f(:\n    pass\n");
       false
     with P.Syntax_error _ -> true)

(* --- pylite compiler --- *)

let compile src = Mtj_pylite.Compiler.compile_source src

let test_compile_loop_headers () =
  let code = compile "def f(n):\n    s = 0\n    for i in range(n):\n        s = s + i\n    return s\n" in
  (* the module code itself has no loops *)
  Alcotest.(check bool) "module has no headers" true
    (Array.for_all not code.BC.headers)

(* resolve the code object of the first function a module defines *)
let fn_code_of_module (mcode : BC.code) =
  let found = ref None in
  Array.iter
    (function
      | BC.MAKE_FUNCTION { code_ref; _ } when !found = None ->
          found := Some code_ref
      | _ -> ())
    mcode.BC.instrs;
  Mtj_pylite.Code_table.lookup (Option.get !found)

let test_compile_for_range_lowering () =
  (* for-range loops compile to FOR_RANGE, not to iterator objects *)
  let m = compile "def f(n):\n    for i in range(n):\n        pass\n" in
  let fcode = fn_code_of_module m in
  Alcotest.(check bool) "has FOR_RANGE" true
    (Array.exists
       (function BC.FOR_RANGE _ -> true | _ -> false)
       fcode.BC.instrs);
  Alcotest.(check bool) "has a loop header" true
    (Array.exists (fun b -> b) fcode.BC.headers)

let test_compile_stack_depth_positive () =
  let code = compile "x = (1 + 2) * (3 + (4 * 5))\n" in
  Alcotest.(check bool) "stacksize sane" true (code.BC.stacksize >= 3)

(* --- rklite reader --- *)

let test_reader_atoms () =
  match KR.read_all "(+ 1 2.5 \"s\" #t #\\a sym)" with
  | [ KR.Slist
        [ KR.Atom "+"; KR.Num 1; KR.Fnum 2.5; KR.Strlit "s"; KR.Atom "#t";
          KR.Strlit "a"; KR.Atom "sym" ] ] ->
      ()
  | _ -> Alcotest.fail "atoms"

let test_reader_quote_sugar () =
  match KR.read_all "'foo" with
  | [ KR.Slist [ KR.Atom "quote"; KR.Atom "foo" ] ] -> ()
  | _ -> Alcotest.fail "quote"

let test_reader_nesting_and_comments () =
  match KR.read_all "; comment\n(a (b [c]) d)" with
  | [ KR.Slist [ KR.Atom "a"; KR.Slist [ KR.Atom "b"; KR.Slist [ KR.Atom "c" ] ]; KR.Atom "d" ] ] ->
      ()
  | _ -> Alcotest.fail "nesting"

let test_reader_negative_numbers () =
  match KR.read_all "(-5 -2.5)" with
  | [ KR.Slist [ KR.Num (-5); KR.Fnum f ] ] when f = -2.5 -> ()
  | _ -> Alcotest.fail "negatives"

(* a token is a number only when it is a decimal numeral *)
let test_reader_decimal_numerals () =
  let read1 w =
    match KR.read_all w with [ e ] -> e | _ -> Alcotest.failf "%s: not one form" w
  in
  List.iter
    (fun w ->
      match read1 w with
      | KR.Atom a when a = w -> ()
      | _ -> Alcotest.failf "%s should read as a symbol" w)
    [ "0x10"; "1_000"; "0b1"; "0o7"; "nan"; "inf"; "infinity"; "-inf"; "+";
      "-"; "."; "1e"; "1e+"; "1.5.2"; "-x"; "..." ];
  List.iter
    (fun (w, v) ->
      match read1 w with
      | KR.Num n when n = v -> ()
      | _ -> Alcotest.failf "%s should read as the int %d" w v)
    [ ("0", 0); ("42", 42); ("+5", 5); ("-5", -5); ("007", 7) ];
  List.iter
    (fun (w, v) ->
      match read1 w with
      | KR.Fnum f when f = v -> ()
      | _ -> Alcotest.failf "%s should read as the float %g" w v)
    [ ("5.", 5.); (".5", 0.5); ("-2.5", -2.5); ("1e3", 1000.);
      ("2.5E-1", 0.25); ("+.5", 0.5); ("5.e1", 50.);
      ("99999999999999999999", 1e20) ]

let test_reader_unclosed () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (KR.read_all "(a (b)");
       false
     with KR.Syntax_error _ -> true)

(* --- rklite compiler --- *)

let test_kcompile_tailjump () =
  let code =
    Mtj_rklite.Kcompiler.compile_source
      "(define (f i) (if (< i 10) (f (+ i 1)) i)) (display (f 0))"
  in
  ignore code;
  (* the registered function code for f contains a self tail jump *)
  let found = ref false in
  for id = code.Mtj_rklite.Kbytecode.id - 5 to code.Mtj_rklite.Kbytecode.id do
    match Mtj_rklite.Kcode_table.lookup id with
    | c ->
        if
          Array.exists
            (function Mtj_rklite.Kbytecode.K_TAILJUMP _ -> true | _ -> false)
            c.Mtj_rklite.Kbytecode.instrs
        then found := true
    | exception _ -> ()
  done;
  Alcotest.(check bool) "self tail call becomes a jump" true !found

let test_kcompile_closure_captures () =
  let code =
    Mtj_rklite.Kcompiler.compile_source
      "(define (mk k) (lambda (x) (+ x k))) (display ((mk 1) 2))"
  in
  ignore code;
  let found = ref false in
  for id = code.Mtj_rklite.Kbytecode.id - 5 to code.Mtj_rklite.Kbytecode.id do
    match Mtj_rklite.Kcode_table.lookup id with
    | c -> if c.Mtj_rklite.Kbytecode.ncaptured > 0 then found := true
    | exception _ -> ()
  done;
  Alcotest.(check bool) "a code object captures" true !found

(* a name OCaml would read as a float binds like any other *)
let test_kcompile_binds_inf_nan =
  Test_rklite.check_program "inf and nan bind" ~expect:"6\n3\n"
    {|
(define (f x) (let ((inf (* x 2))) inf))
(define (g inf nan) (+ inf nan))
(display (f 3))
(newline)
(display (g 1 2))
(newline)
|}

(* --- the frontends on the host --- *)

(* OCaml 5 runs a minor collection before it fills an array of more
   than 256 elements, which starts in the major heap, with a young
   value.  A cold compile builds no such array, so its minor collections
   are only those its own allocation fills the minor heap for. *)
let test_cold_compile_forces_no_minor () =
  let heap = float (Gc.get ()).Gc.minor_heap_size in
  List.iter
    (fun (b : Mtj_benchmarks.Registry.bench) ->
      let (module V : Mtj_harness.Hosted.VM) =
        Mtj_harness.Hosted.vm b.Mtj_benchmarks.Registry.lang
      in
      let vm = V.create () in
      Gc.minor ();
      let collections = (Gc.quick_stat ()).Gc.minor_collections
      and words = Gc.minor_words () in
      ignore (Sys.opaque_identity (V.compile_bundle b.source));
      let collections = (Gc.quick_stat ()).Gc.minor_collections - collections
      and words = Gc.minor_words () -. words in
      Mtj_machine.Engine.release (V.engine vm);
      if float collections > words /. heap then
        Alcotest.failf "%s: %d minor collections for %.0f minor words" b.name
          collections words)
    Mtj_benchmarks.Registry.all

(* every prefix of every registry program compiles, or stops with its
   language's own syntax or compile error: end of input reaches no
   lexer, parser or reader path unguarded *)
let prop_prefixes_fail_cleanly =
  let programs = Array.of_list Mtj_benchmarks.Registry.all in
  let draw =
    QCheck.Gen.(
      int_bound (Array.length programs - 1) >>= fun k ->
      int_bound (String.length programs.(k).source) >|= fun len -> (k, len))
  in
  let print (k, len) = Printf.sprintf "%s, %d bytes" programs.(k).name len in
  QCheck.Test.make ~count:1000 ~long_factor:30
    ~name:"every prefix of a registry program fails cleanly"
    (QCheck.make ~print draw)
    (* any other exception fails the draw, and QCheck prints it *)
    (fun (k, len) ->
      let b = programs.(k) in
      let src = String.sub b.source 0 len in
      match b.lang with
      | Mtj_benchmarks.Registry.Py -> (
          Mtj_pylite.Code_table.reset ();
          match Mtj_pylite.Compiler.compile_source src with
          | _ -> true
          | exception (L.Syntax_error _ | Mtj_pylite.Compiler.Compile_error _) ->
              true)
      | Mtj_benchmarks.Registry.Rk -> (
          Mtj_rklite.Kcode_table.reset ();
          match Mtj_rklite.Kcompiler.compile_source src with
          | _ -> true
          | exception (KR.Syntax_error _ | Mtj_rklite.Kcompiler.Compile_error _)
            ->
              true))

(* --- code registries --- *)

(* each language's registry is its own instance of the shared functor,
   with its own domain-local store: creating an rklite VM (which resets
   rklite's registry) must not drop the pylite code compiled before it
   on the same domain, and each VM resolves its own code refs *)
let test_separate_registries () =
  let module Vm = Mtj_pylite.Vm in
  let module Kvm = Mtj_rklite.Kvm in
  let py = Vm.create () in
  let pcode = Vm.compile "def f(n):\n    return n + 1\nprint(f(41))\n" in
  let rk = Kvm.create () in
  let kcode = Kvm.compile "(define (g n) (+ n 1)) (display (g 41))" in
  Alcotest.(check bool) "pylite ids start at 0" true
    (pcode.BC.id < 1_000_000);
  Alcotest.(check bool) "rklite ids start at 1_000_000" true
    (kcode.Mtj_rklite.Kbytecode.id >= 1_000_000);
  let ok = function Mtj_rjit.Driver.Completed _ -> "ok" | _ -> "failed" in
  Alcotest.(check string) "pylite runs" "ok" (ok (Vm.run_code py pcode));
  Alcotest.(check string) "rklite runs" "ok" (ok (Kvm.run_code rk kcode));
  Alcotest.(check string) "pylite output" "42\n" (Vm.output py);
  Alcotest.(check string) "rklite output" "42" (Kvm.output rk)

let suite =
  [
    Alcotest.test_case "lex simple" `Quick test_lex_simple;
    Alcotest.test_case "lex indentation" `Quick test_lex_indentation;
    Alcotest.test_case "lex nested dedents" `Quick test_lex_nested_dedents;
    Alcotest.test_case "lex floats" `Quick test_lex_floats;
    Alcotest.test_case "lex int literals" `Quick test_lex_int_literals;
    Alcotest.test_case "lex strings" `Quick test_lex_strings;
    Alcotest.test_case "lex comments/blank lines" `Quick test_lex_comments_blank_lines;
    Alcotest.test_case "lex multichar ops" `Quick test_lex_multichar_ops;
    Alcotest.test_case "lex every operator" `Quick test_lex_every_operator;
    Alcotest.test_case "lex longest match" `Quick test_lex_longest_match;
    Alcotest.test_case "lex keywords" `Quick test_lex_keywords;
    Alcotest.test_case "lex paren continuation" `Quick test_lex_paren_continuation;
    Alcotest.test_case "lex error" `Quick test_lex_error;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse unary/power" `Quick test_parse_unary_power;
    Alcotest.test_case "parse chained comparison" `Quick test_parse_chained_cmp;
    Alcotest.test_case "parse postfix chain" `Quick test_parse_call_attr_chain;
    Alcotest.test_case "parse tuple assignment" `Quick test_parse_tuple_assign;
    Alcotest.test_case "parse if/elif/else" `Quick test_parse_if_elif_else;
    Alcotest.test_case "parse def/class" `Quick test_parse_def_and_class;
    Alcotest.test_case "parse slice" `Quick test_parse_slice;
    Alcotest.test_case "parse not-in / is-not" `Quick test_parse_not_in_is_not;
    Alcotest.test_case "parse error reported" `Quick test_parse_error_reported;
    Alcotest.test_case "compile loop headers" `Quick test_compile_loop_headers;
    Alcotest.test_case "compile FOR_RANGE lowering" `Quick test_compile_for_range_lowering;
    Alcotest.test_case "compile stack depth" `Quick test_compile_stack_depth_positive;
    Alcotest.test_case "reader atoms" `Quick test_reader_atoms;
    Alcotest.test_case "reader quote sugar" `Quick test_reader_quote_sugar;
    Alcotest.test_case "reader nesting/comments" `Quick test_reader_nesting_and_comments;
    Alcotest.test_case "reader negative numbers" `Quick test_reader_negative_numbers;
    Alcotest.test_case "reader unclosed" `Quick test_reader_unclosed;
    Alcotest.test_case "reader decimal numerals" `Quick
      test_reader_decimal_numerals;
    Alcotest.test_case "kcompile tail jump" `Quick test_kcompile_tailjump;
    Alcotest.test_case "kcompile closures" `Quick test_kcompile_closure_captures;
    Alcotest.test_case "kcompile binds inf and nan" `Quick
      test_kcompile_binds_inf_nan;
    Alcotest.test_case "separate code registries" `Quick test_separate_registries;
    Alcotest.test_case "cold compile forces no minor collection" `Quick
      test_cold_compile_forces_no_minor;
    QCheck_alcotest.to_alcotest prop_prefixes_fail_cleanly;
  ]
