(** Canonical pretty-printer for MiniJava.

    Parsing the printer's output yields an AST equal (up to locations and
    statement ids) to the input; printing is a fixpoint after one cycle.
    The one-line statement form is the textual key used to match a
    semantic rule's target statement against code.

    {b Byte-identity contract.} The printed text is an identity, not a
    display: the engine's report-cache keys ([Engine.Fingerprint]), the
    incremental diff ([Engine.Incremental], [Diffing.Prog_diff]), the
    test-selection index ([Oracle.Test_select]) and learned target
    statements are all computed from it.  Any change to a printed byte
    changes those keys and invalidates persisted caches and rules, so
    the output of every function here is pinned by digest in the
    [minilang.pins] tests; change it only on purpose. *)

val expr_to_string : Ast.expr -> string

val lvalue_to_string : Ast.lvalue -> string

(** One-line rendering of a statement head; nested blocks elided as
    ["{ ... }"]. *)
val stmt_head_to_string : Ast.stmt -> string

(** Multi-line rendering of a full statement. *)
val stmt_to_string : Ast.stmt -> string

val method_to_string : Ast.method_decl -> string

(** Render a whole program back to canonical concrete syntax. *)
val program_to_string : Ast.program -> string
