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

(* the keyword test, derived once from [keywords] *)
let keyword_table =
  let t = Hashtbl.create 32 in
  List.iter (fun k -> Hashtbl.replace t k ()) keywords;
  t

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

let is_name_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_name_char c = is_name_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* operator and punctuation spellings, longest first *)
let operators =
  [ "**="; "//="; "<<="; ">>="; "=="; "!="; "<="; ">="; "+="; "-="; "*=";
    "/="; "%="; "&="; "|="; "^="; "**"; "//"; "<<"; ">>"; "("; ")"; "[";
    "]"; "{"; "}"; ","; ":"; "."; ";"; "+"; "-"; "*"; "/"; "%"; "<"; ">";
    "="; "&"; "|"; "^"; "~" ]

(* [operators] grouped by first byte, derived once; each group keeps the
   list's longest-first order, so its first match is the longest *)
let operators_by_byte =
  let groups = Array.make 256 [] in
  List.iter
    (fun op ->
      let b = Char.code op.[0] in
      groups.(b) <- groups.(b) @ [ op ])
    operators;
  groups

(* does [op], whose first byte is [src.[i]], occur in [src] at [i]?
   compares in place, allocating nothing *)
let op_at src i op =
  let len = String.length op in
  i + len <= String.length src
  &&
  let rec rest k = k = len || (src.[i + k] = op.[k] && rest (k + 1)) in
  rest 1

(* the first, so longest, spelling in [group] that occurs in [src] at [i] *)
let rec match_op src i = function
  | [] -> None
  | op :: group -> if op_at src i op then Some op else match_op src i group

let tokenize (src : string) : token list =
  let n = String.length src in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let indents = ref [ 0 ] in
  let paren_depth = ref 0 in
  let i = ref 0 in
  let line_start = ref true in
  let error fmt = Printf.ksprintf (fun s -> raise (Syntax_error s)) fmt in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  let handle_indent width =
    let cur = List.hd !indents in
    if width > cur then begin
      indents := width :: !indents;
      emit INDENT
    end
    else begin
      while List.hd !indents > width do
        indents := List.tl !indents;
        emit DEDENT
      done;
      if List.hd !indents <> width then error "inconsistent indentation"
    end
  in
  while !i < n do
    if !line_start && !paren_depth = 0 then begin
      (* measure indentation; skip blank/comment lines *)
      let start = !i in
      let width = ref 0 in
      while !i < n && (src.[!i] = ' ' || src.[!i] = '\t') do
        width := !width + (if src.[!i] = '\t' then 8 else 1);
        incr i
      done;
      if !i >= n then ()
      else if src.[!i] = '\n' then begin
        incr i;
        ignore start
      end
      else if src.[!i] = '#' then begin
        while !i < n && src.[!i] <> '\n' do incr i done
      end
      else begin
        handle_indent !width;
        line_start := false
      end
    end
    else begin
      let c = src.[!i] in
      if c = ' ' || c = '\t' || c = '\r' then incr i
      else if c = '\\' && peek 1 = Some '\n' then i := !i + 2
      else if c = '#' then begin
        while !i < n && src.[!i] <> '\n' do incr i done
      end
      else if c = '\n' then begin
        incr i;
        if !paren_depth = 0 then begin
          emit NEWLINE;
          line_start := true
        end
      end
      else if is_digit c then begin
        let start = !i in
        while !i < n && is_digit src.[!i] do incr i done;
        if
          !i < n && src.[!i] = '.'
          && (match peek 1 with Some d -> is_digit d | None -> false)
        then begin
          incr i;
          while !i < n && is_digit src.[!i] do incr i done;
          if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
            incr i;
            if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
            while !i < n && is_digit src.[!i] do incr i done
          end;
          let lx = String.sub src start (!i - start) in
          (match float_of_string_opt lx with
          | Some f -> emit (FLOAT f)
          | None ->
              raise (Syntax_error ("invalid number literal: " ^ lx)))
        end
        else if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
          incr i;
          if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
          while !i < n && is_digit src.[!i] do incr i done;
          let lx = String.sub src start (!i - start) in
          (match float_of_string_opt lx with
          | Some f -> emit (FLOAT f)
          | None ->
              (* "42else": digits then a name — not an exponent after all *)
              raise (Syntax_error ("invalid number literal: " ^ lx)))
        end
        else
          let lx = String.sub src start (!i - start) in
          (match int_of_string_opt lx with
          | Some v -> emit (INT v)
          | None ->
              raise (Syntax_error ("invalid number literal: " ^ lx)))
      end
      else if is_name_start c then begin
        let start = !i in
        while !i < n && is_name_char src.[!i] do incr i done;
        let word = String.sub src start (!i - start) in
        if Hashtbl.mem keyword_table word then emit (KW word)
        else emit (NAME word)
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
        emit (STRING (Buffer.contents buf))
      end
      else begin
        match match_op src !i operators_by_byte.(Char.code c) with
        | Some op ->
            (match op with
            | "(" | "[" | "{" -> incr paren_depth
            | ")" | "]" | "}" -> decr paren_depth
            | _ -> ());
            i := !i + String.length op;
            emit (OP op)
        | None -> error "unexpected character %C" c
      end
    end
  done;
  (* close the final line and any open indentation *)
  (match !tokens with
  | NEWLINE :: _ | [] -> ()
  | _ -> emit NEWLINE);
  while List.hd !indents > 0 do
    indents := List.tl !indents;
    emit DEDENT
  done;
  emit EOF;
  List.rev !tokens
