(** rklite language tests, interpreter vs eager JIT. *)

module V = Mtj_rklite.Kvm
module C = Mtj_core.Config

let eager_jit =
  {
    C.default with
    C.jit_threshold = 7;
    bridge_threshold = 3;
    insn_budget = 50_000_000;
  }

let run_with config src =
  let outcome, vm = V.run ~config src in
  match outcome with
  | Mtj_rjit.Driver.Completed _ -> V.output vm
  | Mtj_rjit.Driver.Budget_exceeded -> Alcotest.fail "budget exceeded"
  | Mtj_rjit.Driver.Runtime_error e -> Alcotest.failf "runtime error: %s" e

let check_program name ?expect src () =
  let interp = run_with { C.no_jit with C.insn_budget = 50_000_000 } src in
  let jit = run_with eager_jit src in
  Alcotest.(check string) (name ^ ": interp vs jit") interp jit;
  match expect with
  | Some e -> Alcotest.(check string) (name ^ ": expected") e interp
  | None -> ()

let t name ?expect src =
  Alcotest.test_case name `Quick (check_program name ?expect src)

let suite =
  [
    t "arithmetic" ~expect:"10\n-1\n24\n3\n1\n2.5\n"
      {|
(display (+ 1 2 3 4)) (newline)
(display (- 1 2)) (newline)
(display (* 2 3 4)) (newline)
(display (quotient 7 2)) (newline)
(display (remainder 7 2)) (newline)
(display (/ 5 2)) (newline)
|};
    t "comparisons" ~expect:"#t\n#f\n#t\n#t\n"
      (* booleans print as Python-style in the shared runtime, so use
         predicates to normalize *)
      {|
(define (b v) (if v "#t" "#f"))
(display (b (< 1 2))) (newline)
(display (b (> 1 2))) (newline)
(display (b (= 3 3))) (newline)
(display (b (<= 1 1 2))) (newline)
|};
    t "named let loop" ~expect:"5050\n"
      {|
(display (let loop ((i 1) (s 0))
  (if (> i 100) s (loop (+ i 1) (+ s i)))))
(newline)
|};
    t "define function with self recursion" ~expect:"3628800\n"
      {|
(define (fact n)
  (if (<= n 1) 1 (* n (fact (- n 1)))))
(display (fact 10)) (newline)
|};
    t "tail-recursive loop via define" ~expect:"500500\n"
      {|
(define (go i s)
  (if (> i 1000) s (go (+ i 1) (+ s i))))
(display (go 1 0)) (newline)
|};
    t "mutual tail recursion" ~expect:"1\n0\n"
      {|
(define (even? n) (if (= n 0) 1 (odd? (- n 1))))
(define (odd? n) (if (= n 0) 0 (even? (- n 1))))
(display (even? 1000)) (newline)
(display (even? 1001)) (newline)
|};
    t "pairs" ~expect:"1\n2\n99\n"
      {|
(define p (cons 1 2))
(display (car p)) (newline)
(display (cdr p)) (newline)
(set-car! p 99)
(display (car p)) (newline)
|};
    t "list traversal" ~expect:"15\n"
      {|
(define (sum l) (if (null? l) 0 (+ (car l) (sum (cdr l)))))
(display (sum (list 1 2 3 4 5))) (newline)
|};
    t "vectors" ~expect:"3\n0\n42\n"
      {|
(define v (make-vector 3 0))
(display (vector-length v)) (newline)
(display (vector-ref v 1)) (newline)
(vector-set! v 1 42)
(display (vector-ref v 1)) (newline)
|};
    t "closures capture" ~expect:"8\n11\n"
      {|
(define (make-adder k) (lambda (x) (+ x k)))
(define add5 (make-adder 5))
(define add8 (make-adder 8))
(display (add5 3)) (newline)
(display (add8 3)) (newline)
|};
    t "closure over mutable state" ~expect:"1\n2\n3\n"
      {|
(define (make-counter)
  (let ((n 0))
    (lambda () (set! n (+ n 1)) n)))
(define c (make-counter))
(display (c)) (newline)
(display (c)) (newline)
(display (c)) (newline)
|};
    t "let and let*" ~expect:"7\n12\n"
      {|
(display (let ((a 3) (b 4)) (+ a b))) (newline)
(display (let* ((a 3) (b (* a 3))) (+ a b))) (newline)
|};
    t "letrec" ~expect:"55\n"
      {|
(display
  (letrec ((fib (lambda (n)
                  (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))))
    (fib 10)))
(newline)
|};
    t "cond and when" ~expect:"mid\nyes\n"
      {|
(define (classify x)
  (cond ((< x 0) "neg")
        ((< x 10) "mid")
        (else "big")))
(display (classify 5)) (newline)
(when (= 1 1) (display "yes") (newline))
|};
    t "and or" ~expect:"3\n1\n"
      {|
(display (and 1 2 3)) (newline)
(display (or 1 2)) (newline)
|};
    t "strings" ~expect:"5\nab-cd\n42\n"
      {|
(display (string-length "hello")) (newline)
(display (string-append "ab" "-" "cd")) (newline)
(display (number->string 42)) (newline)
|};
    t "floats" ~expect:"3.0\n8.0\n2.0\n"
      {|
(display (sqrt 9.0)) (newline)
(display (expt 2.0 3.0)) (newline)
(display (exact->inexact 2)) (newline)
|};
    t "bignums" ~expect:"2432902008176640000\n265252859812191058636308480000000\n"
      {|
(define (fact n) (if (<= n 1) 1 (* n (fact (- n 1)))))
(display (fact 20)) (newline)
(display (fact 30)) (newline)
|};
    t "quote" ~expect:"sym\nNone\n"
      {|
(display 'sym) (newline)
(display '()) (newline)
|};
    t "hot vector loop" ~expect:"328350\n"
      {|
(define v (make-vector 100 0))
(let fill ((i 0))
  (when (< i 100)
    (vector-set! v i (* i i))
    (fill (+ i 1))))
(display
  (let sum ((i 0) (s 0))
    (if (< i 100) (sum (+ i 1) (+ s (vector-ref v i))) s)))
(newline)
|};
    t "allocation in hot loop (cons)" ~expect:"4950\n"
      {|
(define (build n)
  (let loop ((i 0) (acc '()))
    (if (< i n) (loop (+ i 1) (cons i acc)) acc)))
(define (sum l)
  (let loop ((l l) (s 0))
    (if (null? l) s (loop (cdr l) (+ s (car l))))))
(display (sum (build 100))) (newline)
|};
    (* closures capturing a variable named like a primitive or a
       special form: the enclosing scope must still cell it *)
    t "capture a primitive's name" ~expect:"5"
      "(define (mk list) (lambda () list)) (display ((mk 5)))";
    t "call a captured primitive's name" ~expect:"6"
      "(define (mk max) (lambda (y) (max y)))\n\
       (display ((mk (lambda (z) (+ z 1))) 5))";
    t "capture a let-bound primitive's name" ~expect:"3"
      "(let ((list 3)) (display ((lambda () list))))";
    t "capture a special form's name" ~expect:"7"
      "(define (mk else) (lambda () else)) (display ((mk 7)))";
    (* a named let called other than by a self tail call: the
       enclosing scope must cell the loop closure *)
    t "non-tail named-let call" ~expect:"3"
      "(display (let loop ((i 0)) (if (< i 3) (+ 1 (loop (+ i 1))) 0)))";
    t "non-tail named-let call in a define" ~expect:"3"
      "(define (f) (let loop ((i 0)) (if (< i 3) (+ 1 (loop (+ i 1))) 0)))\n\
       (display (f))";
    (* a program's own define of a primitive's name is the function
       every call of that name reaches *)
    t "define shadows a primitive" ~expect:"3"
      "(define (list x) (if (= x 0) 0 (+ 1 (list (- x 1)))))\n\
       (display (list 3))";
    t "define shadows a primitive in a callee" ~expect:"9"
      "(define (g y) (max y))\n\
       (define (max y) (* y y))\n\
       (display (g 3))";
    (* a named let's inits are evaluated outside the loop: its name
       there is the enclosing binding *)
    t "named-let init sees the enclosing name" ~expect:"5"
      "(define loop 5) (display (let loop ((i loop)) i))";
    t "named-let init sees an enclosing local" ~expect:"6"
      "(define (f loop) (let loop ((i loop) (s 0))\n\
       \  (if (= i 0) s (loop (- i 1) (+ s i)))))\n\
       (display (f 3))";
    (* plain [let] binds its names only after every init: an init sees
       the enclosing binding of a name the same [let] rebinds; [let*]
       binds them one at a time *)
    t "let binds at once, let* in turn" ~expect:"12"
      "(define x 1)\n\
       (display (let ((x 2) (y x)) y))\n\
       (display (let* ((x 2) (y x)) y))";
    t "let inits see an enclosing local" ~expect:"21"
      "(define (f x) (let ((x 2) (y x)) ((lambda () (+ (* 10 x) y)))))\n\
       (display (f 1))";
    t "type-polymorphic loop"
      {|
(define (run n)
  (let loop ((i 0) (s 0))
    (if (>= i n)
        s
        (loop (+ i 1)
              (if (= (modulo i 2) 0)
                  (+ s i)
                  (+ s 1))))))
(display (run 200)) (newline)
|};
  ]
