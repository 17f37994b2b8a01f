(* Tests for the line diff / unified patch / structural program diff. *)

open Diffing

let text_a = "alpha\nbravo\ncharlie\ndelta\necho"

let text_b = "alpha\nbravo-modified\ncharlie\ndelta\nfoxtrot\necho"

(* ------------------------------------------------------------------ *)
(* Line diff                                                           *)
(* ------------------------------------------------------------------ *)

let test_identity () =
  let edits = Line_diff.diff text_a text_a in
  Alcotest.(check bool) "identity diff" true (Line_diff.is_identity edits)

let test_adds_and_dels () =
  let edits = Line_diff.diff text_a text_b in
  let adds, dels = Line_diff.stats edits in
  Alcotest.(check (pair int int)) "stats" (2, 1) (adds, dels);
  Alcotest.(check (list string))
    "added lines" [ "bravo-modified"; "foxtrot" ] (Line_diff.added_lines edits);
  Alcotest.(check (list string)) "deleted lines" [ "bravo" ] (Line_diff.deleted_lines edits)

let test_apply_reconstructs () =
  let edits = Line_diff.diff text_a text_b in
  Alcotest.(check string) "apply yields new text" text_b (Line_diff.apply text_a edits)

let test_apply_rejects_mismatch () =
  let edits = Line_diff.diff text_a text_b in
  match Line_diff.apply "completely\ndifferent" edits with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_unified_format () =
  let edits = Line_diff.diff text_a text_b in
  let u = Line_diff.to_unified ~old_label:"a/f" ~new_label:"b/f" edits in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("contains " ^ frag) true (Astring_contains.contains u frag))
    [ "--- a/f"; "+++ b/f"; "@@ -"; "-bravo"; "+bravo-modified"; "+foxtrot"; " charlie" ]

let test_hunks_grouping () =
  (* two changes far apart produce two hunks with default context *)
  let old_text = String.concat "\n" (List.init 30 (fun i -> "line" ^ string_of_int i)) in
  let new_text =
    String.concat "\n"
      (List.init 30 (fun i ->
           if i = 2 then "LINE2" else if i = 25 then "LINE25" else "line" ^ string_of_int i))
  in
  let hunks = Line_diff.hunks (Line_diff.diff old_text new_text) in
  Alcotest.(check int) "two hunks" 2 (List.length hunks)

let test_empty_texts () =
  Alcotest.(check bool) "empty vs empty" true (Line_diff.is_identity (Line_diff.diff "" ""));
  let edits = Line_diff.diff "" "one\ntwo" in
  Alcotest.(check (pair int int)) "pure addition" (2, 0) (Line_diff.stats edits)

(* property: apply (diff a b) a = b *)
let gen_text =
  QCheck.make
    ~print:(fun s -> s)
    QCheck.Gen.(
      map (String.concat "\n")
        (list_size (int_bound 12) (oneofl [ "a"; "b"; "c"; "dd"; "ee"; "" ])))

let prop_diff_apply_roundtrip =
  QCheck.Test.make ~count:300 ~name:"apply (diff a b) a = b"
    (QCheck.pair gen_text gen_text) (fun (a, b) ->
      String.equal (Line_diff.apply a (Line_diff.diff a b)) b)

(* ------------------------------------------------------------------ *)
(* Structural program diff                                             *)
(* ------------------------------------------------------------------ *)

let old_src =
  {|
class S {
  field closing: bool = false;
  method isClosing(): bool { return this.closing; }
}
class P {
  method act(s: S) {
    if (s == null) {
      throw "gone";
    }
    doWork(s);
  }
}
method doWork(s: S) { }
|}

let new_src =
  {|
class S {
  field closing: bool = false;
  method isClosing(): bool { return this.closing; }
}
class P {
  method act(s: S) {
    if (s == null || s.isClosing()) {
      throw "gone";
    }
    doWork(s);
  }
  method actQuick(s: S) {
    doWork(s);
  }
}
method doWork(s: S) { }
|}

let test_prog_diff_added_guard () =
  let d =
    Prog_diff.compare_programs (Minilang.Parser.program old_src)
      (Minilang.Parser.program new_src)
  in
  Alcotest.(check (list string)) "added method" [ "P.actQuick" ] d.Prog_diff.added_methods;
  Alcotest.(check (list string)) "no removed methods" [] d.Prog_diff.removed_methods;
  let guards = Prog_diff.all_added_guards d in
  Alcotest.(check int) "one added guard" 1 (List.length guards);
  let g = List.hd guards in
  Alcotest.(check string) "guard method" "P.act" g.Prog_diff.g_method;
  Alcotest.(check string)
    "guard condition" "s == null || s.isClosing()"
    (Minilang.Pretty.expr_to_string g.Prog_diff.g_cond);
  Alcotest.(check bool) "early exit" true (g.Prog_diff.g_kind = Prog_diff.Early_exit);
  Alcotest.(check int) "one protected stmt" 1 (List.length g.Prog_diff.g_protected)

let test_prog_diff_wrapper_guard () =
  let old_p = Minilang.Parser.program "method f(x: int) { work(x); } method work(x: int) { }" in
  let new_p =
    Minilang.Parser.program
      "method f(x: int) { if (x > 0) { work(x); } } method work(x: int) { }"
  in
  let guards = Prog_diff.all_added_guards (Prog_diff.compare_programs old_p new_p) in
  Alcotest.(check int) "one guard" 1 (List.length guards);
  Alcotest.(check bool) "wrapper kind" true
    ((List.hd guards).Prog_diff.g_kind = Prog_diff.Wrapper)

let test_prog_diff_continue_guard_is_early_exit () =
  let old_p =
    Minilang.Parser.program
      "method f(l: list) { var i: int = 0; while (i < listSize(l)) { work(i); i = i + 1; } } method work(x: int) { }"
  in
  let new_p =
    Minilang.Parser.program
      "method f(l: list) { var i: int = 0; while (i < listSize(l)) { if (i == 3) { i = i + 1; continue; } work(i); i = i + 1; } } method work(x: int) { }"
  in
  let guards = Prog_diff.all_added_guards (Prog_diff.compare_programs old_p new_p) in
  Alcotest.(check int) "one guard" 1 (List.length guards);
  let g = List.hd guards in
  Alcotest.(check bool) "continue-guard is early-exit" true
    (g.Prog_diff.g_kind = Prog_diff.Early_exit);
  Alcotest.(check bool) "protects the work call" true
    (List.exists
       (fun st -> List.mem "work" (Minilang.Ast.callees_of_stmt st))
       g.Prog_diff.g_protected)

let test_prog_diff_no_change () =
  let p = Minilang.Parser.program old_src in
  let d = Prog_diff.compare_programs p (Minilang.Parser.program old_src) in
  Alcotest.(check int) "no changed methods" 0 (List.length d.Prog_diff.changed_methods)

let test_textutil_tokens () =
  Alcotest.(check (list string))
    "camelCase split"
    [ "create"; "ephemeral"; "node"; "on"; "closing"; "session" ]
    (Textutil.word_tokens "createEphemeralNode on_closing  session!");
  Alcotest.(check bool) "contains_sub" true (Textutil.contains_sub "hello world" "lo wo");
  Alcotest.(check bool) "not contains" false (Textutil.contains_sub "hello" "xyz");
  Alcotest.(check bool) "empty needle" true (Textutil.contains_sub "hello" "");
  Alcotest.(check bool) "both empty" true (Textutil.contains_sub "" "");
  Alcotest.(check bool) "needle longer than haystack" false (Textutil.contains_sub "lo" "hello");
  Alcotest.(check bool) "needle equals haystack" true (Textutil.contains_sub "hello" "hello");
  Alcotest.(check bool) "at the end" true (Textutil.contains_sub "hello" "llo");
  Alcotest.(check bool) "partial match at the end" false (Textutil.contains_sub "hello" "lox");
  Alcotest.(check bool) "overlapping prefix" true (Textutil.contains_sub "aaab" "aab")

let suite =
  [
    ( "diffing.line",
      [
        Alcotest.test_case "identity" `Quick test_identity;
        Alcotest.test_case "adds and dels" `Quick test_adds_and_dels;
        Alcotest.test_case "apply reconstructs" `Quick test_apply_reconstructs;
        Alcotest.test_case "apply rejects mismatch" `Quick test_apply_rejects_mismatch;
        Alcotest.test_case "unified format" `Quick test_unified_format;
        Alcotest.test_case "hunk grouping" `Quick test_hunks_grouping;
        Alcotest.test_case "empty texts" `Quick test_empty_texts;
        QCheck_alcotest.to_alcotest prop_diff_apply_roundtrip;
      ] );
    ( "diffing.structural",
      [
        Alcotest.test_case "extended guard detected" `Quick test_prog_diff_added_guard;
        Alcotest.test_case "wrapper guard" `Quick test_prog_diff_wrapper_guard;
        Alcotest.test_case "continue-guard early exit" `Quick
          test_prog_diff_continue_guard_is_early_exit;
        Alcotest.test_case "no change" `Quick test_prog_diff_no_change;
        Alcotest.test_case "text utilities" `Quick test_textutil_tokens;
      ] );
  ]
