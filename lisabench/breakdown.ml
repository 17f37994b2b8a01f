(** The outside-in breakdown of the work that has no span of its own in
    the program: the engine's prepare layer ([Callgraph.build],
    [Fingerprint.*] and [Checker.prepare], which [checker.prepare]
    times only as a whole) and the serve request path's assembly,
    parsing and fingerprinting.  Each is re-run from the public calls of
    its layers on the inputs the real path saw, with a {!Span} around
    every call, and checked against the real path's result. *)

open Minilang
module C = Engine.Checker

let time = Span.time

(* [Test_select.select]: the index, then one top-k query per path *)
let select p rule (tree : Analysis.Paths.exec_tree) ~k =
  time "oracle.select" @@ fun () ->
  let ix = time "oracle.index" (fun () -> Oracle.Test_select.index_of_tests p) in
  List.map
    (fun ep ->
      {
        Oracle.Test_select.sel_path = ep;
        sel_tests =
          Oracle.Tfidf.top_k ix ~query:(Oracle.Test_select.query_of_path rule ep) ~k;
      })
    tree.Analysis.Paths.et_paths

(** [Checker.prepare] re-composed: returns the selected tests, the
    target statements and the number of static paths. *)
let prepare (config : C.config) ~graph p (rule : Semantics.Rule.t) =
  match rule.Semantics.Rule.body with
  | Semantics.Rule.Lock_discipline _ -> (Interp.test_names p, [], 0)
  | Semantics.Rule.State_guard { target; _ } ->
      let targets =
        time "semantics.resolve" (fun () -> Semantics.Rulebook.resolve_targets p target)
      in
      let trees =
        time "analysis.exec_tree" (fun () ->
            List.map
              (fun (_, (st : Ast.stmt)) -> Analysis.Paths.exec_tree p graph st.Ast.sid)
              targets)
      in
      let paths =
        List.fold_left (fun n t -> n + List.length t.Analysis.Paths.et_paths) 0 trees
      in
      Span.count ~into:Span.breakdown "analysis.exec_paths.count" (float_of_int paths);
      let tests =
        match config.C.selection with
        | C.All_tests -> Interp.test_names p
        | C.Pseudo_random { seed; k } -> Oracle.Test_select.select_random p ~seed ~k
        | C.Rag k ->
            let sels = List.concat_map (fun tree -> select p rule tree ~k) trees in
            let names = Oracle.Test_select.selected_tests sels in
            if names = [] then Interp.test_names p else names
      in
      (tests, List.map (fun (_, (st : Ast.stmt)) -> st.Ast.sid) targets, paths)

let summary (pr : C.prepared) =
  ( pr.C.prep_tests,
    (match pr.C.prep_kind with
    | C.Prep_guard { pg_targets; _ } ->
        List.map (fun (_, (st : Ast.stmt)) -> st.Ast.sid) pg_targets
    | C.Prep_lock _ -> []),
    List.length (C.prepared_static_paths pr) )

(** The engine's prepare layer for one [enforce] call, twice: first the
    real calls ([Checker.prepare] on a shared call graph, as
    [Scheduler.enforce] makes them), timed as a whole, then re-composed
    under spans.  Returns the real calls' seconds, the re-composition's
    seconds and whether both prepared the same tests, targets and
    paths for every rule. *)
let prepare_layer (config : C.config) p rules =
  let t0 = Unix.gettimeofday () in
  ignore (Engine.Fingerprint.program p);
  let graph = Analysis.Callgraph.build p in
  let methods = Engine.Fingerprint.methods p in
  let prepared =
    List.map
      (fun rule ->
        let pr = C.prepare ~config ~graph p rule in
        ignore (Engine.Fingerprint.job_key ~config ~graph ~methods pr);
        ignore (Engine.Fingerprint.region graph pr);
        pr)
      rules
  in
  let t1 = Unix.gettimeofday () in
  let mine =
    Span.traced ~into:Span.breakdown @@ fun () ->
    time "engine.fingerprint" (fun () -> ignore (Engine.Fingerprint.program p));
    let graph = time "analysis.callgraph" (fun () -> Analysis.Callgraph.build p) in
    let methods = time "engine.fingerprint" (fun () -> Engine.Fingerprint.methods p) in
    List.map2
      (fun rule pr ->
        let s = prepare config ~graph p rule in
        (* the fingerprints take the real prepared value, equal to [s] *)
        time "engine.fingerprint" (fun () ->
            ignore (Engine.Fingerprint.job_key ~config ~graph ~methods pr);
            ignore (Engine.Fingerprint.region graph pr));
        s)
      rules prepared
  in
  (t1 -. t0, Unix.gettimeofday () -. t1, mine = List.map summary prepared)

(** The serve request path that every request pays, hit or miss:
    assemble the release, parse it, fingerprint it. *)
let request_path (reg : Corpus.Registry.t) ~system ~version =
  Span.traced ~into:Span.breakdown @@ fun () ->
  let src = time "corpus.source" (fun () -> Corpus.Registry.source_of reg system ~version) in
  let p =
    time "minilang.parse" (fun () ->
        Parser.program ~file:(Printf.sprintf "%s-v%d.mj" system version) src)
  in
  time "engine.fingerprint" (fun () -> ignore (Engine.Fingerprint.program p))
