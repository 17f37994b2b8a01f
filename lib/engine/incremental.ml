(** Incremental invalidation between consecutive program versions.

    Given versions [prev] and [cur], the scheduler wants to re-enqueue
    only the rules whose verdict can have changed.  The decision uses
    [lib/diffing]'s structural diff (text-matched, so immune to the
    global sid renumbering an edit causes) plus call-graph reachability:

    {e invalidation rule} — a rule must be re-enforced iff

    - any method in its region (see {!Fingerprint.region}) was added,
      removed, or changed; or
    - any added or removed statement matches the rule's target spec (a
      statement elsewhere can become, or stop being, a resolved target —
      target resolution scans the whole program); or
    - it is a lock-discipline rule and anything changed at all (its
      region is the whole program).

    Everything else reuses the report computed on [prev] verbatim.  This
    pre-pass is strictly cheaper than fingerprinting: one diff per
    version pair, then per rule a set intersection against the region
    recorded when the rule last ran. *)

open Minilang

type change_summary = {
  ch_methods : string list;
      (** qualified names added, removed, or changed, sorted *)
  ch_stmt_texts : string list;
      (** printed heads of every added/removed statement, including every
          statement of added/removed methods *)
}

let no_changes (s : change_summary) = s.ch_methods = [] && s.ch_stmt_texts = []

(* every printed statement head of a method, recursively *)
let method_stmt_texts (p : Ast.program) (qname : string) : string list =
  List.concat_map
    (fun (cls, m) ->
      if Ast.qualified_name cls m = qname then begin
        let acc = ref [] in
        Ast.iter_stmts (fun st -> acc := Pretty.stmt_head_to_string st :: !acc) m.Ast.m_body;
        !acc
      end
      else [])
    (Ast.methods_of_program p)

(** Structural diff of two versions, summarized for invalidation. *)
let summarize ~(prev : Ast.program) ~(cur : Ast.program) : change_summary =
  let d = Diffing.Prog_diff.compare_programs prev cur in
  let changed =
    List.map (fun (mc : Diffing.Prog_diff.method_change) -> mc.Diffing.Prog_diff.mc_qname)
      d.Diffing.Prog_diff.changed_methods
  in
  let stmt_texts =
    List.concat_map
      (fun (mc : Diffing.Prog_diff.method_change) ->
        mc.Diffing.Prog_diff.mc_added_stmts @ mc.Diffing.Prog_diff.mc_removed_stmts)
      d.Diffing.Prog_diff.changed_methods
    @ List.concat_map (method_stmt_texts cur) d.Diffing.Prog_diff.added_methods
    @ List.concat_map (method_stmt_texts prev) d.Diffing.Prog_diff.removed_methods
  in
  {
    ch_methods =
      List.sort_uniq compare
        (d.Diffing.Prog_diff.added_methods @ d.Diffing.Prog_diff.removed_methods
       @ changed);
    ch_stmt_texts = List.sort_uniq compare stmt_texts;
  }

(* does a statement's printed head mention the target spec?  An empty
   target text mentions nothing. *)
let stmt_matches_target (spec : Semantics.Rule.target_spec) (text : string) : bool =
  let contains hay needle = needle <> "" && Diffing.Textutil.contains_sub hay needle in
  match spec with
  | Semantics.Rule.Call_to { callee; _ } -> contains text (callee ^ "(")
  | Semantics.Rule.Stmt_text t -> contains text t

(** Must [rule] be re-enforced after [changes]?  [region] is the method
    set recorded when the rule was last enforced (on [prev]). *)
let rule_affected (changes : change_summary) ~(region : string list)
    (rule : Semantics.Rule.t) : bool =
  match rule.Semantics.Rule.body with
  | Semantics.Rule.Lock_discipline _ -> not (no_changes changes)
  | Semantics.Rule.State_guard { target; _ } ->
      List.exists (fun m -> List.mem m region) changes.ch_methods
      || List.exists (stmt_matches_target target) changes.ch_stmt_texts
