(** S-expression reader for rklite. *)

exception Syntax_error of string

type sexp =
  | Atom of string
  | Num of int
  | Fnum of float
  | Strlit of string
  | Slist of sexp list

let error fmt = Printf.ksprintf (fun s -> raise (Syntax_error s)) fmt

let is_delim c =
  c = '(' || c = ')' || c = '[' || c = ']' || c = ' ' || c = '\t'
  || c = '\n' || c = '\r' || c = ';' || c = '"'

(* A token is a number only when it is a decimal numeral: an optional
   sign, then digits with an optional fraction or a fraction alone, then
   an optional exponent.  Everything else is a symbol, however OCaml's
   own number parsers would read it ([0x10], [1_000], [nan], [inf]). *)
type numeral = Not_numeral | Integer | Decimal

let is_digit c = c >= '0' && c <= '9'

(* where the run of digits in [w] from [i] ends *)
let rec digits_end w i =
  if i < String.length w && is_digit w.[i] then digits_end w (i + 1) else i

let numeral w =
  let n = String.length w in
  let i = if n > 0 && (w.[0] = '+' || w.[0] = '-') then 1 else 0 in
  let int_end = digits_end w i in
  let frac_end =
    if int_end < n && w.[int_end] = '.' then digits_end w (int_end + 1)
    else int_end
  in
  let has_digits = int_end > i || frac_end > int_end + 1 in
  if not has_digits then Not_numeral
  else if frac_end = n then if frac_end = int_end then Integer else Decimal
  else if w.[frac_end] = 'e' || w.[frac_end] = 'E' then
    let j = frac_end + 1 in
    let j = if j < n && (w.[j] = '+' || w.[j] = '-') then j + 1 else j in
    let exp_end = digits_end w j in
    if exp_end > j && exp_end = n then Decimal else Not_numeral
  else Not_numeral

let read_all (src : string) : sexp list =
  let n = String.length src in
  let i = ref 0 in
  let rec skip_ws () =
    if !i < n then
      match src.[!i] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr i;
          skip_ws ()
      | ';' ->
          while !i < n && src.[!i] <> '\n' do incr i done;
          skip_ws ()
      | _ -> ()
  in
  let rec read_one () : sexp =
    skip_ws ();
    if !i >= n then error "unexpected end of input";
    match src.[!i] with
    | '(' | '[' ->
        incr i;
        let items = ref [] in
        let rec go () =
          skip_ws ();
          if !i >= n then error "unclosed parenthesis";
          if src.[!i] = ')' || src.[!i] = ']' then incr i
          else begin
            items := read_one () :: !items;
            go ()
          end
        in
        go ();
        Slist (List.rev !items)
    | ')' | ']' -> error "unexpected ')'"
    | '\'' ->
        incr i;
        Slist [ Atom "quote"; read_one () ]
    | '"' ->
        incr i;
        let buf = Buffer.create 16 in
        let rec go () =
          if !i >= n then error "unterminated string";
          match src.[!i] with
          | '"' -> incr i
          | '\\' when !i + 1 < n ->
              (match src.[!i + 1] with
              | 'n' -> Buffer.add_char buf '\n'
              | 't' -> Buffer.add_char buf '\t'
              | c -> Buffer.add_char buf c);
              i := !i + 2;
              go ()
          | c ->
              Buffer.add_char buf c;
              incr i;
              go ()
        in
        go ();
        Strlit (Buffer.contents buf)
    | '#' when !i + 1 < n && src.[!i + 1] = 't' ->
        i := !i + 2;
        Atom "#t"
    | '#' when !i + 1 < n && src.[!i + 1] = 'f' ->
        i := !i + 2;
        Atom "#f"
    | '#' when !i + 1 < n && src.[!i + 1] = '\\' ->
        (* character literal: #\a, #\space, #\newline *)
        i := !i + 2;
        let start = !i in
        while !i < n && not (is_delim src.[!i]) do incr i done;
        let word = String.sub src start (!i - start) in
        let s =
          match word with
          | "space" -> " "
          | "newline" -> "\n"
          | "tab" -> "\t"
          | w when String.length w = 1 -> w
          | w -> error "unknown character literal #\\%s" w
        in
        Strlit s
    | _ ->
        let start = !i in
        while !i < n && not (is_delim src.[!i]) do incr i done;
        let word = String.sub src start (!i - start) in
        if word = "" then error "empty token";
        (match numeral word with
        | Not_numeral -> Atom word
        | Integer -> (
            (* past the native int range an integer reads as a float *)
            match int_of_string_opt word with
            | Some v -> Num v
            | None -> Fnum (float_of_string word))
        | Decimal -> Fnum (float_of_string word))
  in
  let forms = ref [] in
  let rec go () =
    skip_ws ();
    if !i < n then begin
      forms := read_one () :: !forms;
      go ()
    end
  in
  go ();
  List.rev !forms

let rec pp fmt = function
  | Atom a -> Format.pp_print_string fmt a
  | Num n -> Format.pp_print_int fmt n
  | Fnum f -> Format.pp_print_float fmt f
  | Strlit s -> Format.fprintf fmt "%S" s
  | Slist items ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp)
        items
