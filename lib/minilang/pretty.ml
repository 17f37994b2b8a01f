(** Pretty-printer for MiniJava.

    The printer produces a canonical concrete syntax: parsing its output
    yields an AST equal (up to locations and sids) to the input.  The
    single-line statement form ([stmt_head_to_string]) is the textual key
    used to match a semantic rule's *target statement* against code.

    Everything is written into one [Buffer] per call: a whole program is
    rendered without building an intermediate string per expression or
    a list of lines. *)

let typ = Ast.typ_to_string

let expr_prec (e : Ast.expr) : int =
  match e.e with
  | Ast.Binop (Ast.Or, _, _) -> 1
  | Ast.Binop (Ast.And, _, _) -> 2
  | Ast.Binop ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), _, _) -> 3
  | Ast.Binop ((Ast.Add | Ast.Sub), _, _) -> 4
  | Ast.Binop ((Ast.Mul | Ast.Div | Ast.Mod), _, _) -> 5
  | Ast.Unop _ -> 6
  | Ast.Int_lit _ | Ast.Bool_lit _ | Ast.Str_lit _ | Ast.Null_lit | Ast.Var _
  | Ast.This | Ast.Field _ | Ast.Call _ | Ast.Method_call _ | Ast.New _ ->
      7

(* A string literal quoted exactly as [Printf]'s [%S] does. *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (String.escaped s);
  Buffer.add_char buf '"'

let rec add_expr buf (ctx : int) (e : Ast.expr) : unit =
  let prec = expr_prec e in
  if prec < ctx then Buffer.add_char buf '(';
  (match e.e with
  | Ast.Int_lit n -> Buffer.add_string buf (string_of_int n)
  | Ast.Bool_lit true -> Buffer.add_string buf "true"
  | Ast.Bool_lit false -> Buffer.add_string buf "false"
  | Ast.Str_lit s -> add_quoted buf s
  | Ast.Null_lit -> Buffer.add_string buf "null"
  | Ast.Var x -> Buffer.add_string buf x
  | Ast.This -> Buffer.add_string buf "this"
  | Ast.Field (o, f) ->
      add_expr buf 7 o;
      Buffer.add_char buf '.';
      Buffer.add_string buf f
  | Ast.Binop (op, a, b) ->
      (* [&&]/[||] parse right-associatively; arithmetic parses
         left-associatively; comparisons are non-associative, so both of
         their operands need a strictly higher precedence context. *)
      let lp, rp =
        match op with
        | Ast.And | Ast.Or -> (prec + 1, prec)
        | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod -> (prec, prec + 1)
        | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (prec + 1, prec + 1)
      in
      add_expr buf lp a;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Ast.binop_to_string op);
      Buffer.add_char buf ' ';
      add_expr buf rp b
  | Ast.Unop (op, a) ->
      Buffer.add_string buf (Ast.unop_to_string op);
      add_expr buf 6 a
  | Ast.Call (f, args) ->
      Buffer.add_string buf f;
      add_args buf args
  | Ast.Method_call (o, m, args) ->
      add_expr buf 7 o;
      Buffer.add_char buf '.';
      Buffer.add_string buf m;
      add_args buf args
  | Ast.New (c, args) ->
      Buffer.add_string buf "new ";
      Buffer.add_string buf c;
      add_args buf args);
  if prec < ctx then Buffer.add_char buf ')'

(* ["(a, b, c)"] *)
and add_args buf args =
  Buffer.add_char buf '(';
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_string buf ", ";
      add_expr buf 0 a)
    args;
  Buffer.add_char buf ')'

let add_lvalue buf = function
  | Ast.Lv_var x -> Buffer.add_string buf x
  | Ast.Lv_field (o, f) ->
      add_expr buf 7 o;
      Buffer.add_char buf '.';
      Buffer.add_string buf f

(* [f buf x] rendered into a fresh buffer. *)
let render f x =
  let buf = Buffer.create 64 in
  f buf x;
  Buffer.contents buf

let expr_to_string (e : Ast.expr) : string = render (fun buf -> add_expr buf 0) e

let lvalue_to_string lv = render add_lvalue lv

(* ["<kw> (<e>)"], the head of [if], [while] and [synchronized]. *)
let add_cond buf kw c =
  Buffer.add_string buf kw;
  Buffer.add_string buf " (";
  add_expr buf 0 c;
  Buffer.add_char buf ')'

let add_decl buf kw x ty init =
  Buffer.add_string buf kw;
  Buffer.add_char buf ' ';
  Buffer.add_string buf x;
  Buffer.add_string buf ": ";
  Buffer.add_string buf (typ ty);
  (match init with
  | None -> ()
  | Some e ->
      Buffer.add_string buf " = ";
      add_expr buf 0 e);
  Buffer.add_char buf ';'

let add_stmt_head buf (st : Ast.stmt) =
  let add = Buffer.add_string buf in
  match st.s with
  | Ast.Decl (x, ty, init) -> add_decl buf "var" x ty init
  | Ast.Assign (lv, e) ->
      add_lvalue buf lv;
      add " = ";
      add_expr buf 0 e;
      add ";"
  | Ast.If (c, _, []) ->
      add_cond buf "if" c;
      add " { ... }"
  | Ast.If (c, _, _) ->
      add_cond buf "if" c;
      add " { ... } else { ... }"
  | Ast.While (c, _) ->
      add_cond buf "while" c;
      add " { ... }"
  | Ast.Return None -> add "return;"
  | Ast.Return (Some e) ->
      add "return ";
      add_expr buf 0 e;
      add ";"
  | Ast.Throw e ->
      add "throw ";
      add_expr buf 0 e;
      add ";"
  | Ast.Try _ -> add "try { ... } catch (...) { ... }"
  | Ast.Sync (o, _) ->
      add_cond buf "synchronized" o;
      add " { ... }"
  | Ast.Expr e ->
      add_expr buf 0 e;
      add ";"
  | Ast.Assert (c, m) ->
      add "assert (";
      add_expr buf 0 c;
      add ", ";
      add_quoted buf m;
      add ");"
  | Ast.Break -> add "break;"
  | Ast.Continue -> add "continue;"

(** One-line rendering of a statement head; nested blocks are elided as
    ["{ ... }"].  This is the canonical "code text" form for matching target
    statements against LLM output. *)
let stmt_head_to_string (st : Ast.stmt) : string = render add_stmt_head st

(* Multi-line forms write every line followed by ['\n'] at [2 * depth]
   spaces of indentation; [lines_to_string] drops the final newline, so
   the result is the lines joined by ["\n"]. *)

let pad buf depth =
  for _ = 1 to 2 * depth do
    Buffer.add_char buf ' '
  done

let rec add_stmt_lines buf (depth : int) (st : Ast.stmt) : unit =
  pad buf depth;
  match st.s with
  | Ast.Decl _ | Ast.Assign _ | Ast.Return _ | Ast.Throw _ | Ast.Expr _
  | Ast.Assert _ | Ast.Break | Ast.Continue ->
      add_stmt_head buf st;
      Buffer.add_char buf '\n'
  | Ast.If (c, b1, b2) ->
      add_cond buf "if" c;
      Buffer.add_string buf " {\n";
      add_block buf (depth + 1) b1;
      if b2 <> [] then (
        pad buf depth;
        Buffer.add_string buf "} else {\n";
        add_block buf (depth + 1) b2);
      close_brace buf depth
  | Ast.While (c, b) ->
      add_cond buf "while" c;
      Buffer.add_string buf " {\n";
      add_block buf (depth + 1) b;
      close_brace buf depth
  | Ast.Try (b, x, h) ->
      Buffer.add_string buf "try {\n";
      add_block buf (depth + 1) b;
      pad buf depth;
      Buffer.add_string buf "} catch (";
      Buffer.add_string buf x;
      Buffer.add_string buf ") {\n";
      add_block buf (depth + 1) h;
      close_brace buf depth
  | Ast.Sync (o, b) ->
      add_cond buf "synchronized" o;
      Buffer.add_string buf " {\n";
      add_block buf (depth + 1) b;
      close_brace buf depth

and add_block buf depth (b : Ast.block) = List.iter (add_stmt_lines buf depth) b

and close_brace buf depth =
  pad buf depth;
  Buffer.add_string buf "}\n"

let add_method_lines buf (depth : int) (m : Ast.method_decl) : unit =
  pad buf depth;
  Buffer.add_string buf "method ";
  Buffer.add_string buf m.Ast.m_name;
  Buffer.add_char buf '(';
  List.iteri
    (fun i (x, ty) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf x;
      Buffer.add_string buf ": ";
      Buffer.add_string buf (typ ty))
    m.Ast.m_params;
  Buffer.add_char buf ')';
  (match m.Ast.m_ret with
  | Ast.T_void -> ()
  | t ->
      Buffer.add_string buf ": ";
      Buffer.add_string buf (typ t));
  Buffer.add_string buf " {\n";
  add_block buf (depth + 1) m.Ast.m_body;
  close_brace buf depth

let add_field_line buf (f : Ast.field_decl) : unit =
  pad buf 1;
  add_decl buf "field" f.Ast.f_name f.Ast.f_typ f.Ast.f_init;
  Buffer.add_char buf '\n'

let add_class_lines buf (c : Ast.class_decl) : unit =
  Buffer.add_string buf "class ";
  Buffer.add_string buf c.Ast.c_name;
  Buffer.add_string buf " {\n";
  List.iter (add_field_line buf) c.Ast.c_fields;
  List.iter (add_method_lines buf 1) c.Ast.c_methods;
  Buffer.add_string buf "}\n"

let lines_to_string f x =
  let buf = Buffer.create 1024 in
  f buf x;
  let n = Buffer.length buf in
  if n = 0 then "" else Buffer.sub buf 0 (n - 1)

(** Render a whole program back to canonical concrete syntax: every
    class, then every top-level method, each followed by an empty line. *)
let program_to_string (p : Ast.program) : string =
  lines_to_string
    (fun buf p ->
      List.iter
        (fun c ->
          add_class_lines buf c;
          Buffer.add_char buf '\n')
        p.Ast.p_classes;
      List.iter
        (fun f ->
          add_method_lines buf 0 f;
          Buffer.add_char buf '\n')
        p.Ast.p_funcs)
    p

let stmt_to_string (st : Ast.stmt) : string = lines_to_string (fun buf -> add_stmt_lines buf 0) st

let method_to_string (m : Ast.method_decl) : string =
  lines_to_string (fun buf -> add_method_lines buf 0) m
