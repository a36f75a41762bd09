exception Lex_error of string * int * int

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || is_digit c

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_ws st
  | Some '/' when peek2 st = Some '/' ->
    while peek st <> None && peek st <> Some '\n' do
      advance st
    done;
    skip_ws st
  | Some '/' when peek2 st = Some '*' ->
    advance st;
    advance st;
    let rec go () =
      match (peek st, peek2 st) with
      | Some '*', Some '/' ->
        advance st;
        advance st
      | None, _ -> raise (Lex_error ("unterminated comment", st.line, st.col))
      | _ ->
        advance st;
        go ()
    in
    go ();
    skip_ws st
  | _ -> ()

let lex_number st ~line ~col =
  let start = st.pos in
  let peek_at k =
    if st.pos + k < String.length st.src then Some st.src.[st.pos + k]
    else None
  in
  while (match peek st with Some c when is_digit c -> true | _ -> false) do
    advance st
  done;
  let has_frac =
    match (peek st, peek2 st) with
    | Some '.', Some c when is_digit c -> true
    | _ -> false
  in
  if has_frac then begin
    advance st;
    while (match peek st with Some c when is_digit c -> true | _ -> false) do
      advance st
    done
  end;
  (* Optional exponent [eE][+-]?digits.  Taken only when a digit
     actually follows the (possibly signed) 'e', so an identifier
     hugging a number ("16elems") still lexes as INT then IDENT, and
     "1e+" stays INT PLUS rather than a lex error.  Needed so the
     canonical float formatter's output ("1e+16") round-trips. *)
  let has_exp =
    match peek st with
    | Some ('e' | 'E') -> (
      match peek2 st with
      | Some c when is_digit c -> true
      | Some ('+' | '-') -> (
        match peek_at 2 with Some c when is_digit c -> true | _ -> false)
      | _ -> false)
    | _ -> false
  in
  if has_exp then begin
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    while (match peek st with Some c when is_digit c -> true | _ -> false) do
      advance st
    done
  end;
  let text = String.sub st.src start (st.pos - start) in
  let out_of_range () =
    raise (Lex_error ("numeric literal out of range: " ^ text, line, col))
  in
  if has_frac || has_exp then begin
    (* an overflowing literal would print as an undeclared [inff] *)
    let x = float_of_string text in
    if Float.is_finite x then Token.FLOAT x else out_of_range ()
  end
  else
    match int_of_string_opt text with
    | Some n -> Token.INT n
    | None -> out_of_range ()

let lex_ident st =
  let start = st.pos in
  while (match peek st with Some c when is_ident c -> true | _ -> false) do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  if List.mem s Token.keywords then Token.KW s else Token.IDENT s

let next_token st =
  skip_ws st;
  let line = st.line and col = st.col in
  let tok =
    match peek st with
    | None -> Token.EOF
    | Some c when is_digit c -> lex_number st ~line ~col
    | Some c when is_ident_start c -> lex_ident st
    | Some c ->
      let two target result =
        if peek2 st = Some target then begin
          advance st;
          advance st;
          Some result
        end
        else None
      in
      let simple result =
        advance st;
        result
      in
      (match c with
      | '(' -> simple Token.LPAREN
      | ')' -> simple Token.RPAREN
      | '{' -> simple Token.LBRACE
      | '}' -> simple Token.RBRACE
      | '[' -> simple Token.LBRACKET
      | ']' -> simple Token.RBRACKET
      | ',' -> simple Token.COMMA
      | ';' -> simple Token.SEMI
      | '+' -> simple Token.PLUS
      | '-' -> simple Token.MINUS
      | '*' -> simple Token.STAR
      | '/' -> simple Token.SLASH
      | '%' -> simple Token.PERCENT
      | '&' -> simple Token.AMP
      | '|' -> simple Token.PIPE
      | '^' -> simple Token.CARET
      | '?' -> simple Token.QUESTION
      | ':' -> simple Token.COLON
      | '<' -> (
        match two '=' Token.LE with
        | Some t -> t
        | None -> (
          match two '<' Token.SHL with Some t -> t | None -> simple Token.LT))
      | '>' -> (
        match two '=' Token.GE with
        | Some t -> t
        | None -> (
          match two '>' Token.SHR with Some t -> t | None -> simple Token.GT))
      | '=' -> (
        match two '=' Token.EQ with Some t -> t | None -> simple Token.ASSIGN)
      | '!' -> (
        match two '=' Token.NE with
        | Some t -> t
        | None -> raise (Lex_error ("unexpected '!'", line, col)))
      | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, line, col)))
  in
  (tok, line, col)

let tokenize src =
  let st = { src; pos = 0; line = 1; col = 1 } in
  let rec go acc =
    let ((tok, _, _) as entry) = next_token st in
    if tok = Token.EOF then List.rev (entry :: acc) else go (entry :: acc)
  in
  go []
