(** Hand-written lexer for MiniJava.

    Supports line comments ([// ...]) and block comments ([/* ... */]).
    Produces a list of located tokens; errors carry precise locations.

    The scanner works on indices into the source: a character is read
    with [String.unsafe_get] only after a bounds check, identifiers and
    numbers are sliced out with one [String.sub], and the column is
    derived from the offset of the current line's first character, so
    only a newline touches the line bookkeeping.  Every character other
    than ['\n'] (['\r'] and ['\t'] included) is one column wide. *)

exception Error of string * Loc.t

type located = { tok : Token.t; loc : Loc.t }

type state = {
  src : string;
  len : int;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of the first character of [line] *)
}

let loc_at st pos = Loc.make ~file:st.file ~line:st.line ~col:(pos - st.bol + 1)

(* Step over the character at [pos], which must exist. *)
let advance st =
  if String.unsafe_get st.src st.pos = '\n' then (
    st.line <- st.line + 1;
    st.bol <- st.pos + 1);
  st.pos <- st.pos + 1

(* The character at [pos + k], or ['\000'] past the end; callers only
   compare the result against printable characters. *)
let char_at st k =
  let i = st.pos + k in
  if i < st.len then String.unsafe_get st.src i else '\000'

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c

let rec skip_trivia st =
  if st.pos < st.len then
    match String.unsafe_get st.src st.pos with
    | ' ' | '\t' | '\r' ->
        st.pos <- st.pos + 1;
        skip_trivia st
    | '\n' ->
        advance st;
        skip_trivia st
    | '/' -> (
        match char_at st 1 with
        | '/' ->
            (* up to, not over, the newline *)
            (match String.index_from_opt st.src st.pos '\n' with
            | Some i -> st.pos <- i
            | None -> st.pos <- st.len);
            skip_trivia st
        | '*' ->
            let start = loc_at st st.pos in
            st.pos <- st.pos + 2;
            let rec to_close () =
              if st.pos >= st.len then raise (Error ("unterminated block comment", start))
              else if String.unsafe_get st.src st.pos = '*' && char_at st 1 = '/' then
                st.pos <- st.pos + 2
              else (
                advance st;
                to_close ())
            in
            to_close ();
            skip_trivia st
        | _ -> ())
    | _ -> ()

let lex_string st =
  let start = loc_at st st.pos in
  st.pos <- st.pos + 1 (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= st.len then raise (Error ("unterminated string literal", start));
    match String.unsafe_get st.src st.pos with
    | '"' -> st.pos <- st.pos + 1
    | '\\' ->
        st.pos <- st.pos + 1;
        if st.pos >= st.len then raise (Error ("unterminated escape", start));
        (match String.unsafe_get st.src st.pos with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | c -> raise (Error (Printf.sprintf "bad escape '\\%c'" c, loc_at st st.pos)));
        st.pos <- st.pos + 1;
        go ()
    | c ->
        Buffer.add_char buf c;
        advance st;
        go ()
  in
  go ();
  Token.STRING (Buffer.contents buf)

(* Advance over the longest run of characters satisfying [p] and return
   it as one slice. *)
let slice_while st p =
  let start = st.pos in
  while st.pos < st.len && p (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done;
  String.sub st.src start (st.pos - start)

(* A punctuation token [n] characters wide. *)
let punct st n tok =
  st.pos <- st.pos + n;
  tok

let next_token st : located =
  skip_trivia st;
  let loc = loc_at st st.pos in
  if st.pos >= st.len then { tok = Token.EOF; loc }
  else
    let tok =
      match String.unsafe_get st.src st.pos with
      | '"' -> lex_string st
      | '0' .. '9' -> (
          match int_of_string_opt (slice_while st is_digit) with
          | Some n -> Token.INT n
          | None -> raise (Error ("integer literal out of range", loc)))
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> Token.of_ident (slice_while st is_ident_char)
      | '(' -> punct st 1 Token.LPAREN
      | ')' -> punct st 1 Token.RPAREN
      | '{' -> punct st 1 Token.LBRACE
      | '}' -> punct st 1 Token.RBRACE
      | '[' -> punct st 1 Token.LBRACKET
      | ']' -> punct st 1 Token.RBRACKET
      | ',' -> punct st 1 Token.COMMA
      | ';' -> punct st 1 Token.SEMI
      | ':' -> punct st 1 Token.COLON
      | '.' -> punct st 1 Token.DOT
      | '+' -> punct st 1 Token.PLUS
      | '-' -> punct st 1 Token.MINUS
      | '*' -> punct st 1 Token.STAR
      | '/' -> punct st 1 Token.SLASH
      | '%' -> punct st 1 Token.PERCENT
      | '=' -> if char_at st 1 = '=' then punct st 2 Token.EQ else punct st 1 Token.ASSIGN
      | '!' -> if char_at st 1 = '=' then punct st 2 Token.NEQ else punct st 1 Token.BANG
      | '<' -> if char_at st 1 = '=' then punct st 2 Token.LE else punct st 1 Token.LT
      | '>' -> if char_at st 1 = '=' then punct st 2 Token.GE else punct st 1 Token.GT
      | '&' ->
          if char_at st 1 = '&' then punct st 2 Token.ANDAND
          else raise (Error ("expected '&&'", loc))
      | '|' ->
          if char_at st 1 = '|' then punct st 2 Token.OROR
          else raise (Error ("expected '||'", loc))
      | c -> raise (Error (Printf.sprintf "unexpected character %C" c, loc))
    in
    { tok; loc }

(** Tokenize a whole source buffer.  The returned list always ends with a
    single [EOF] token carrying the end-of-input location. *)
let tokenize ?(file = "<string>") src : located list =
  let st = { src; len = String.length src; file; pos = 0; line = 1; bol = 0 } in
  let rec go acc =
    let lt = next_token st in
    match lt.tok with Token.EOF -> List.rev (lt :: acc) | _ -> go (lt :: acc)
  in
  go []
