(** Indentation-aware lexer for pylite. *)

exception Syntax_error of string

type token =
  | NAME of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | OP of string       (* operators and punctuation, by spelling *)
  | KW of string       (* keywords *)
  | NEWLINE
  | INDENT
  | DEDENT
  | EOF

let keywords =
  [ "def"; "class"; "if"; "elif"; "else"; "while"; "for"; "in"; "return";
    "break"; "continue"; "pass"; "and"; "or"; "not"; "True"; "False";
    "None"; "is"; "global"; "del"; "lambda" ]

let pp_token fmt = function
  | NAME s -> Format.fprintf fmt "NAME(%s)" s
  | INT i -> Format.fprintf fmt "INT(%d)" i
  | FLOAT f -> Format.fprintf fmt "FLOAT(%g)" f
  | STRING s -> Format.fprintf fmt "STRING(%S)" s
  | OP s -> Format.fprintf fmt "OP(%s)" s
  | KW s -> Format.fprintf fmt "KW(%s)" s
  | NEWLINE -> Format.fprintf fmt "NEWLINE"
  | INDENT -> Format.fprintf fmt "INDENT"
  | DEDENT -> Format.fprintf fmt "DEDENT"
  | EOF -> Format.fprintf fmt "EOF"

let[@inline] is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let[@inline] is_digit c = c >= '0' && c <= '9'
let[@inline] is_name_char c = is_name_start c || is_digit c

(* operator and punctuation spellings, longest first *)
let operators =
  [ "**="; "//="; "<<="; ">>="; "=="; "!="; "<="; ">="; "+="; "-="; "*=";
    "/="; "%="; "&="; "|="; "^="; "**"; "//"; "<<"; ">>"; "("; ")"; "[";
    "]"; "{"; "}"; ","; ":"; "."; ";"; "+"; "-"; "*"; "/"; "%"; "<"; ">";
    "="; "&"; "|"; "^"; "~" ]

(* do [src]'s bytes from [i + k] match [word]'s from [k] up to [len]? *)
let rec same_bytes src i word k len =
  k = len || (src.[i + k] = word.[k] && same_bytes src i word (k + 1) len)

(* does [word], whose length is [len], occur in [src] at [i]?  compares
   in place, allocating nothing *)
let occurs_at src i len word =
  String.length word = len
  && i + len <= String.length src
  && same_bytes src i word 0 len

(* [keywords] grouped by first byte, each with its token, derived once,
   so a name is compared only against the keywords it starts like, and
   a keyword's token is shared, not built *)
let keywords_by_byte =
  let groups = Array.make 256 [] in
  List.iter
    (fun k ->
      let b = Char.code k.[0] in
      groups.(b) <- groups.(b) @ [ (k, KW k) ])
    keywords;
  groups

(* the keyword token spelled by [src]'s [len] bytes at [i], or [EOF]
   when those bytes spell a name *)
let rec find_keyword src i len = function
  | [] -> EOF
  | (k, tok) :: group ->
      if occurs_at src i len k then tok else find_keyword src i len group

let keyword_at src i len =
  find_keyword src i len keywords_by_byte.(Char.code src.[i])

(* [operators] grouped by first byte, each with its token, derived once;
   each group keeps the list's longest-first order, so its first match
   is the longest *)
let operators_by_byte =
  let groups = Array.make 256 [] in
  List.iter
    (fun op ->
      let b = Char.code op.[0] in
      groups.(b) <- groups.(b) @ [ (op, OP op) ])
    operators;
  groups

(* the longest operator token at [src]'s byte [i], or [EOF] when no
   operator starts there *)
let rec find_operator src i = function
  | [] -> EOF
  | (op, tok) :: group ->
      if occurs_at src i (String.length op) op then tok
      else find_operator src i group

let operator_at src i =
  find_operator src i operators_by_byte.(Char.code src.[i])

(* the float literal [src] holds from [start] to [stop] *)
let float_literal src start stop =
  let lx = String.sub src start (stop - start) in
  match float_of_string_opt lx with
  | Some f -> FLOAT f
  | None -> raise (Syntax_error ("invalid number literal: " ^ lx))

(* the int literal [src] holds from [start] to [stop] *)
let int_literal src start stop =
  let lx = String.sub src start (stop - start) in
  match int_of_string_opt lx with
  | Some v -> INT v
  | None -> raise (Syntax_error ("invalid number literal: " ^ lx))

(* where the exponent that starts at [src]'s byte [i] (its 'e') ends *)
let exponent_end src n i =
  let i = ref (i + 1) in
  if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
  while !i < n && is_digit src.[!i] do incr i done;
  !i

let error fmt = Printf.ksprintf (fun s -> raise (Syntax_error s)) fmt

let tokenize (src : string) : token list =
  let n = String.length src in
  (* no closure captures the scan state, so it stays in registers *)
  let tokens = ref [] in
  let indents = ref [ 0 ] in
  let paren_depth = ref 0 in
  let i = ref 0 in
  let line_start = ref true in
  while !i < n do
    if !line_start && !paren_depth = 0 then begin
      (* measure indentation; skip blank/comment lines *)
      let width = ref 0 in
      while !i < n && (src.[!i] = ' ' || src.[!i] = '\t') do
        width := !width + (if src.[!i] = '\t' then 8 else 1);
        incr i
      done;
      if !i >= n then ()
      else if src.[!i] = '\n' then incr i
      else if src.[!i] = '#' then begin
        while !i < n && src.[!i] <> '\n' do incr i done
      end
      else begin
        let width = !width in
        if width > List.hd !indents then begin
          indents := width :: !indents;
          tokens := INDENT :: !tokens
        end
        else begin
          while List.hd !indents > width do
            indents := List.tl !indents;
            tokens := DEDENT :: !tokens
          done;
          if List.hd !indents <> width then error "inconsistent indentation"
        end;
        line_start := false
      end
    end
    else begin
      let c = src.[!i] in
      if c = ' ' || c = '\t' || c = '\r' then incr i
      else if c = '\\' && !i + 1 < n && src.[!i + 1] = '\n' then i := !i + 2
      else if c = '#' then begin
        while !i < n && src.[!i] <> '\n' do incr i done
      end
      else if c = '\n' then begin
        incr i;
        if !paren_depth = 0 then begin
          tokens := NEWLINE :: !tokens;
          line_start := true
        end
      end
      else if is_digit c then begin
        let start = !i in
        while !i < n && is_digit src.[!i] do incr i done;
        if !i + 1 < n && src.[!i] = '.' && is_digit src.[!i + 1] then begin
          incr i;
          while !i < n && is_digit src.[!i] do incr i done;
          if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then
            i := exponent_end src n !i;
          tokens := float_literal src start !i :: !tokens
        end
        else if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
          (* "42else" reads digits then an exponent that is not one *)
          i := exponent_end src n !i;
          tokens := float_literal src start !i :: !tokens
        end
        else tokens := int_literal src start !i :: !tokens
      end
      else if is_name_start c then begin
        let start = !i in
        while !i < n && is_name_char src.[!i] do incr i done;
        let len = !i - start in
        match keyword_at src start len with
        | KW _ as kw -> tokens := kw :: !tokens
        | _ -> tokens := NAME (String.sub src start len) :: !tokens
      end
      else if c = '\'' || c = '"' then begin
        let quote = c in
        incr i;
        let buf = Buffer.create 16 in
        let closed = ref false in
        while (not !closed) && !i < n do
          let c = src.[!i] in
          if c = quote then begin
            closed := true;
            incr i
          end
          else if c = '\\' && !i + 1 < n then begin
            (match src.[!i + 1] with
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | '\\' -> Buffer.add_char buf '\\'
            | '\'' -> Buffer.add_char buf '\''
            | '"' -> Buffer.add_char buf '"'
            | '0' -> Buffer.add_char buf '\000'
            | other -> Buffer.add_char buf other);
            i := !i + 2
          end
          else begin
            Buffer.add_char buf c;
            incr i
          end
        done;
        if not !closed then error "unterminated string literal";
        tokens := STRING (Buffer.contents buf) :: !tokens
      end
      else
        match operator_at src !i with
        | OP op as tok ->
            (match op with
            | "(" | "[" | "{" -> incr paren_depth
            | ")" | "]" | "}" -> decr paren_depth
            | _ -> ());
            i := !i + String.length op;
            tokens := tok :: !tokens
        | _ -> error "unexpected character %C" c
    end
  done;
  (* close the final line and any open indentation *)
  (match !tokens with
  | NEWLINE :: _ | [] -> ()
  | _ -> tokens := NEWLINE :: !tokens);
  while List.hd !indents > 0 do
    indents := List.tl !indents;
    tokens := DEDENT :: !tokens
  done;
  tokens := EOF :: !tokens;
  List.rev !tokens
