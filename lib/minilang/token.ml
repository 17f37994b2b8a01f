(** Lexical tokens of MiniJava.

    The token set is deliberately Java-flavoured: the subject systems in
    [lib/corpus] are transliterations of real ZooKeeper / HBase / HDFS /
    Cassandra code, and keeping the surface syntax close to Java keeps the
    corpus readable next to the original tickets. *)

type t =
  | INT of int
  | STRING of string
  | IDENT of string
  (* keywords *)
  | KW_CLASS
  | KW_FIELD
  | KW_METHOD
  | KW_VAR
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_RETURN
  | KW_THROW
  | KW_TRY
  | KW_CATCH
  | KW_SYNCHRONIZED
  | KW_ASSERT
  | KW_BREAK
  | KW_CONTINUE
  | KW_NEW
  | KW_THIS
  | KW_TRUE
  | KW_FALSE
  | KW_NULL
  (* type keywords *)
  | KW_INT
  | KW_BOOL
  | KW_STR
  | KW_MAP
  | KW_LIST
  | KW_VOID
  | KW_ANY
  (* punctuation *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | COMMA
  | SEMI
  | COLON
  | DOT
  | ASSIGN (* = *)
  (* operators *)
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | EQ (* == *)
  | NEQ (* != *)
  | LT
  | LE
  | GT
  | GE
  | ANDAND
  | OROR
  | BANG
  | EOF

let keyword_table : (string * t) list =
  [
    ("class", KW_CLASS);
    ("field", KW_FIELD);
    ("method", KW_METHOD);
    ("var", KW_VAR);
    ("if", KW_IF);
    ("else", KW_ELSE);
    ("while", KW_WHILE);
    ("return", KW_RETURN);
    ("throw", KW_THROW);
    ("try", KW_TRY);
    ("catch", KW_CATCH);
    ("synchronized", KW_SYNCHRONIZED);
    ("assert", KW_ASSERT);
    ("break", KW_BREAK);
    ("continue", KW_CONTINUE);
    ("new", KW_NEW);
    ("this", KW_THIS);
    ("true", KW_TRUE);
    ("false", KW_FALSE);
    ("null", KW_NULL);
    ("int", KW_INT);
    ("bool", KW_BOOL);
    ("str", KW_STR);
    ("map", KW_MAP);
    ("list", KW_LIST);
    ("void", KW_VOID);
    ("any", KW_ANY);
  ]

module Keywords = Hashtbl.Make (String)

(* Built once and only read afterwards, so domains may share it. *)
let keywords : t Keywords.t =
  let tbl = Keywords.create 64 in
  List.iter (fun (s, kw) -> Keywords.replace tbl s kw) keyword_table;
  tbl

let of_ident s = match Keywords.find_opt keywords s with Some kw -> kw | None -> IDENT s

let to_string = function
  | INT n -> string_of_int n
  | STRING s -> Printf.sprintf "%S" s
  | IDENT s -> s
  | KW_CLASS -> "class"
  | KW_FIELD -> "field"
  | KW_METHOD -> "method"
  | KW_VAR -> "var"
  | KW_IF -> "if"
  | KW_ELSE -> "else"
  | KW_WHILE -> "while"
  | KW_RETURN -> "return"
  | KW_THROW -> "throw"
  | KW_TRY -> "try"
  | KW_CATCH -> "catch"
  | KW_SYNCHRONIZED -> "synchronized"
  | KW_ASSERT -> "assert"
  | KW_BREAK -> "break"
  | KW_CONTINUE -> "continue"
  | KW_NEW -> "new"
  | KW_THIS -> "this"
  | KW_TRUE -> "true"
  | KW_FALSE -> "false"
  | KW_NULL -> "null"
  | KW_INT -> "int"
  | KW_BOOL -> "bool"
  | KW_STR -> "str"
  | KW_MAP -> "map"
  | KW_LIST -> "list"
  | KW_VOID -> "void"
  | KW_ANY -> "any"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | COMMA -> ","
  | SEMI -> ";"
  | COLON -> ":"
  | DOT -> "."
  | ASSIGN -> "="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | EQ -> "=="
  | NEQ -> "!="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | ANDAND -> "&&"
  | OROR -> "||"
  | BANG -> "!"
  | EOF -> "<eof>"

let equal (a : t) (b : t) = a = b

let pp ppf t = Fmt.string ppf (to_string t)
