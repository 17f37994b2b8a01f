(** The three workloads' passes over the real entry points, their
    known-answer checks against what the corpus generator planted, and
    the per-layer metrics of a traced run. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

(** Nearest-rank percentile, [q] in [0, 1]. *)
let percentile q (xs : float list) =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = percentile 0.5 xs

let ratio a b = if a +. b > 0. then a /. (a +. b) else 0.

(** Every process-global cache a pass can warm, emptied so that each
    pass starts equally cold. *)
let reset_caches () =
  Lisa.Chaos.reset_shared_state ();
  Smt.Solver.reset_theory_memo ();
  Smt.Solver.reset_learned ();
  Smt.Absdom.reset_memo ()

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let ticket_ids : (string, string) Hashtbl.t = Hashtbl.create 256

(** The id of a case's original ticket: the prefix of every rule id
    learned from it. *)
let ticket_id (c : Corpus.Case.t) =
  match Hashtbl.find_opt ticket_ids c.Corpus.Case.case_id with
  | Some id -> id
  | None ->
      let id = (Corpus.Case.original_ticket c).Oracle.Ticket.ticket_id in
      Hashtbl.replace ticket_ids c.Corpus.Case.case_id id;
      id

(** The generator's planted answer: case [c]'s rule must fire exactly at
    the releases that put it at one of its regression stages. *)
let planted_fires (c : Corpus.Case.t) version =
  List.mem
    (Corpus.Registry.stage_at_version c version)
    c.Corpus.Case.regression_stages

let rule_id (r : Engine.Checker.rule_report) =
  r.Engine.Checker.rep_rule.Semantics.Rule.rule_id

let tiers_of (ts : Triage.triaged list) =
  List.filter_map
    (fun (t : Triage.triaged) ->
      Option.map
        (fun tier -> (rule_id t.Triage.t_report, Triage.tier_to_string tier))
        (Triage.rule_tier t))
    ts

let violating_ids reports =
  List.map rule_id (List.filter Engine.Checker.has_violations reports)

(** A known-answer check over the findings of one (system, version)
    verdict: [cases] are the cases whose rules the rulebook holds.
    Returns (verdicts attempted, verdicts wrong): one verdict per case,
    plus one wrong verdict per finding no case accounts for. *)
let check_findings (cases : Corpus.Case.t list) ~version (ids : string list) =
  let wrong_cases =
    List.filter
      (fun c ->
        let fires = List.exists (has_prefix ~prefix:(ticket_id c)) ids in
        fires <> planted_fires c version)
      cases
  in
  let stray =
    List.filter
      (fun id ->
        not
          (List.exists
             (fun c -> planted_fires c version && has_prefix ~prefix:(ticket_id c) id)
             cases))
      ids
  in
  (List.length cases, List.length wrong_cases + List.length stray)

type gc_mark = { g_words : float; g_major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    g_words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    g_major = s.Gc.major_collections;
  }

let words_mb w = w *. float_of_int (Sys.word_size / 8) /. 1048576.

(** The largest major heap seen by {!sample_heap} over the first
    [samples] calls after {!reset_heap}.  The measured phase samples it
    at every verdict, from a compacted heap, so set-up memory does not
    count; and only over a fixed amount of work, because the heap keeps
    growing from pass to pass (see [gc.retained_mb] in the traced run),
    so a peak over the whole run would grow with the host's speed. *)
let heap_peak = ref 0

let heap_samples_left = ref 0

let reset_heap ~samples =
  heap_peak := 0;
  heap_samples_left := samples

let sample_heap () =
  if !heap_samples_left > 0 then begin
    decr heap_samples_left;
    heap_peak := max !heap_peak (Gc.quick_stat ()).Gc.heap_words
  end

let peak_heap_mb () = words_mb (float_of_int !heap_peak)

(** The live major heap after a full collection, in words. *)
let live_words () =
  Gc.full_major ();
  float_of_int (Gc.quick_stat ()).Gc.heap_words

(** What one run of a workload reports. *)
type outcome = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;
      (** end-to-end metrics, trace 0, before {!host_factor} scales them *)
  named : (string * float * string * bool) list;
      (** the same figures and others under workload-specific names, with
          units, and whether {!host_factor} scales them *)
  layers : (string * float) list;  (** per-layer metrics, trace 1 *)
  notes : string list;  (** extra lines printed before the result *)
}

let ms x = 1000. *. x

(* ------------------------------------------------------------------ *)
(* Timing: the best of repeated passes, item by item                   *)
(* ------------------------------------------------------------------ *)

(* A pass is cut into items (one case learned, one verdict) that
   {!item} times in the order the pass runs them.  The passes of an
   untraced run are identical (same inputs, same starting state), so
   every item is timed once per pass and its time is the fastest of
   those: on a host shared with other tenants, a core's speed switches
   between levels some 45% apart every second or so (a fixed CPU loop
   read 20 or 29 ms), and how long a run spends at each level differs
   from run to run.  An item takes milliseconds, so one of its passes
   almost always runs at the fast level.  Each item includes the
   collector work its allocation triggers.

   The host can also stay slow for a whole run (up to 1.8x).  So while
   the passes run, a fixed reference task is timed every
   [probe_every_s]; it uses nothing of the program and allocates
   nothing, so it leaves the collector alone.  The run's figures are
   scaled by its fastest reference time against [reference_ms], the
   reference's time at this host's fast level ({!host_factor}). *)

let item_log : (bool * float) list ref = ref []

let probing = ref false

let last_probe = ref 0.

let probe_every_s = 0.05

(** The reference task's fastest time on this repository's 2-vCPU VM
    at its fast level, in ms: the host speed the figures are given at. *)
let reference_ms = 0.80

(** The run's fastest reference time, in ms. *)
let ref_best = ref Float.infinity

let reference_data = Array.init 32768 (fun i -> (i * 7919) land 32767)

(** The reference task: a chain of dependent loads over a 256 KB array,
    with arithmetic. *)
let reference_task () =
  let x = ref 1 and s = ref 0 in
  for i = 1 to 150_000 do
    x := reference_data.((!x + i) land 32767);
    s := !s + (!x * !x)
  done;
  !s

(** Time the reference task, with its array first read into the cache,
    so that its time does not depend on what the program left there;
    returns it in ms. *)
let probe () =
  ignore (Sys.opaque_identity (Array.fold_left ( + ) 0 reference_data));
  let t0 = now () in
  ignore (Sys.opaque_identity (reference_task ()));
  let t1 = now () in
  let t = ms (t1 -. t0) in
  ref_best := Float.min !ref_best t;
  last_probe := t1;
  t

(** How much slower the host ran than at [reference_ms]: the run's
    times are divided by it, its rates multiplied. *)
let host_factor () = !ref_best /. reference_ms

(** Time [f] as the pass's next item; [verdict] marks the items whose
    times are the latency samples. *)
let item ~verdict f =
  if !probing && now () -. !last_probe >= probe_every_s then ignore (probe ());
  let t0 = now () in
  let v = f () in
  item_log := (verdict, ms (now () -. t0)) :: !item_log;
  v

(** Run [pass] with its items timed and the reference probed: its
    result and its item log, in run order. *)
let run_items pass =
  item_log := [];
  probing := true;
  ignore (probe ());
  let v = pass () in
  probing := false;
  let log = List.rev !item_log in
  item_log := [];
  (v, log)

type best = {
  mutable passes : int;
  mutable best_ms : float array;  (** per item, the fastest pass's ms *)
  mutable verdict : bool array;
}

let best () = { passes = 0; best_ms = [||]; verdict = [||] }

(** Fold one pass's item log (in run order) into [b]; every pass must
    run the same items. *)
let add_pass b log =
  let log = Array.of_list log in
  if b.passes = 0 then begin
    b.best_ms <- Array.map snd log;
    b.verdict <- Array.map fst log
  end
  else if Array.map fst log <> b.verdict then
    failwith "lisabench: a pass ran other items than the first"
  else Array.iteri (fun i (_, t) -> b.best_ms.(i) <- Float.min b.best_ms.(i) t) log;
  b.passes <- b.passes + 1

(** Run [pass], folding its item times into [b]. *)
let timed_pass b pass =
  let v, log = run_items pass in
  add_pass b log;
  v

(** [timed_pass] in a child process forked from this one, so that every
    pass starts from this process's state and leaves it as it was; the
    pass's result comes back marshalled.  The child must not run other
    domains' work: [Unix.fork] fails while other domains run. *)
let forked_pass b (pass : unit -> 'a) : 'a =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      (try
         let v, log = run_items pass in
         Marshal.to_channel oc (log, !ref_best, v) [];
         close_out oc
       with e -> prerr_endline ("lisabench: forked pass: " ^ Printexc.to_string e));
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let result = try Some (Marshal.from_channel ic) with End_of_file -> None in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match result with
      | Some ((log : (bool * float) list), rb, (v : 'a)) ->
          ref_best := Float.min !ref_best rb;
          add_pass b log;
          v
      | None -> failwith "lisabench: a forked pass ended without a result"

(** A whole pass at every item's best, in seconds. *)
let best_pass_s b = Array.fold_left ( +. ) 0. b.best_ms /. 1000.

(** The verdict items' best times, in ms: the latency samples. *)
let best_verdicts b =
  List.filteri (fun i _ -> b.verdict.(i)) (Array.to_list b.best_ms)

(** Passes with caches emptied before each, until [seconds] are spent
    and at least [min_reps] ran: each pass's result, and the item
    times' best. *)
let repeat ~seconds ~min_reps pass =
  let b = best () in
  let t_end = now () +. seconds in
  let rec go acc n =
    if n >= min_reps && now () >= t_end then (List.rev acc, b)
    else begin
      reset_caches ();
      let r = timed_pass b pass in
      go (r :: acc) (n + 1)
    end
  in
  go [] 0

(* ------------------------------------------------------------------ *)
(* The layer calls the scan and CI passes make                         *)
(* ------------------------------------------------------------------ *)

(* While tracing: each engine created, and every [enforce] call's
   program and rules, for the engine counters and the prepare-layer
   breakdown after the pass. *)
let engines : Engine.Scheduler.t list ref = ref []

let enforced : (Minilang.Ast.program * Semantics.Rule.t list) list ref = ref []

let engine_config ~jobs = { Engine.Scheduler.default_config with Engine.Scheduler.jobs }

(** A fresh engine's [enforce], as [Pipeline.enforce_with] calls it. *)
let engine ~jobs =
  let e = Engine.Scheduler.create ~config:(engine_config ~jobs) () in
  let seen = ref false in
  if Span.tracing () then engines := e :: !engines;
  fun p book ->
    let reports = Lisa.Pipeline.enforce_with e p book in
    if Span.tracing () then begin
      enforced := (p, Semantics.Rulebook.rules book) :: !enforced;
      if !seen then Span.count "diffing.summarize.count" 1.;
      List.iter
        (fun (r : Engine.Checker.rule_report) ->
          Span.count "symexec.hits.count" (float_of_int (List.length r.Engine.Checker.rep_traces));
          Span.count "symexec.branches_total" (float_of_int r.Engine.Checker.rep_branches_total);
          Span.count "symexec.branches_recorded"
            (float_of_int r.Engine.Checker.rep_branches_recorded))
        reports
    end;
    seen := true;
    reports

let parse ~file src = Span.time "minilang.parse" (fun () -> Minilang.Parser.program ~file src)

(** [Registry.program_of]: assemble the release, then parse it. *)
let program_of reg system ~version =
  let src =
    Span.time "corpus.source" (fun () -> Corpus.Registry.source_of reg system ~version)
  in
  parse ~file:(Printf.sprintf "%s-v%d.mj" system version) src

(** [Case.program_at]. *)
let program_at (c : Corpus.Case.t) stage =
  let src = Span.time "corpus.source" (fun () -> c.Corpus.Case.source stage) in
  parse ~file:(Printf.sprintf "%s@stage%d.mj" c.Corpus.Case.case_id stage) src

(** A ticket bundle, whose regression-test list parses the stages on
    either side of the fix. *)
let ticket_at c stage = Span.time "corpus.ticket" (fun () -> Corpus.Case.ticket_at c stage)

let original_ticket c = Span.time "corpus.ticket" (fun () -> Corpus.Case.original_ticket c)

(** [Pipeline.learn]'s accepted rules. *)
let learn ticket =
  let o = Span.time "lisa.learn" (fun () -> Lisa.Pipeline.learn ticket) in
  Span.count "lisa.rules.accepted" (float_of_int (List.length o.Lisa.Pipeline.accepted));
  Span.count "lisa.rules.inferred"
    (float_of_int (List.length o.Lisa.Pipeline.accepted + List.length o.Lisa.Pipeline.rejected));
  o.Lisa.Pipeline.accepted

(** [System_scan.learn_system_book], each case's learning an item. *)
let system_book reg system =
  let book = Semantics.Rulebook.create ~system in
  List.iter
    (fun c ->
      item ~verdict:false (fun () ->
          Semantics.Rulebook.add_all book (learn (original_ticket c))))
    (Corpus.Registry.cases_of reg system);
  book

let run_tests p =
  if Span.tracing () then
    Span.count "minilang.tests.count"
      (float_of_int (List.length (Minilang.Interp.test_names p)));
  Span.time "minilang.tests" (fun () -> Lisa.Ci.run_tests p)

let count_tiers (w, c, l) =
  Span.count "triage.findings.count" (float_of_int (w + c + l));
  Span.count "triage.witnessed" (float_of_int w)

(** [Triage.triage_reports] over the violating reports. *)
let triage p reports =
  let ts =
    Span.time "triage.replay" (fun () ->
        Triage.triage_reports ~config:Triage.default_config p
          (List.filter Engine.Checker.has_violations reports))
  in
  if Span.tracing () then count_tiers (Triage.tier_counts ts);
  ts

(* ------------------------------------------------------------------ *)
(* Traced-run metrics shared by every workload                         *)
(* ------------------------------------------------------------------ *)

type counters = {
  solves : int;
  full : int;
  saved : int;
  memo_h : int;
  memo_m : int;
  intern_h : int;
  intern_m : int;
}

let counters () =
  {
    solves = Smt.Solver.solve_count ();
    full = Smt.Solver.full_solve_count ();
    saved = Smt.Solver.fastpath_saved_count ();
    memo_h = Smt.Memo.hits ();
    memo_m = Smt.Memo.misses ();
    intern_h = Smt.Formula.intern_hits ();
    intern_m = Smt.Formula.intern_misses ();
  }

let counters_zero =
  { solves = 0; full = 0; saved = 0; memo_h = 0; memo_m = 0; intern_h = 0; intern_m = 0 }

let counters_add a b =
  {
    solves = a.solves + b.solves;
    full = a.full + b.full;
    saved = a.saved + b.saved;
    memo_h = a.memo_h + b.memo_h;
    memo_m = a.memo_m + b.memo_m;
    intern_h = a.intern_h + b.intern_h;
    intern_m = a.intern_m + b.intern_m;
  }

let counters_delta a b =
  {
    solves = b.solves - a.solves;
    full = b.full - a.full;
    saved = b.saved - a.saved;
    memo_h = b.memo_h - a.memo_h;
    memo_m = b.memo_m - a.memo_m;
    intern_h = b.intern_h - a.intern_h;
    intern_m = b.intern_m - a.intern_m;
  }

(** After a traced scan or CI pass: the engines' cache counters, and the
    prepare-layer breakdown of every [enforce] call.  Returns the real
    prepare calls' seconds, the re-composition's seconds and whether
    they prepared the same. *)
let after_engine_pass () =
  List.iter
    (fun e ->
      let s = Engine.Scheduler.stats e in
      Span.add "engine.report_cache.hits" (float_of_int s.Engine.Stats.report_hits);
      Span.add "engine.report_cache.misses" (float_of_int s.Engine.Stats.report_misses);
      Span.add "engine.incremental.reuses" (float_of_int s.Engine.Stats.incremental_reuses);
      Span.add "engine.jobs_run.count" (float_of_int s.Engine.Stats.jobs_run))
    !engines;
  let config = (engine_config ~jobs:1).Engine.Scheduler.checker in
  let r =
    List.fold_left
      (fun (a, b, ok) (p, rules) ->
        let a', b', ok' = Breakdown.prepare_layer config p rules in
        (a +. a', b +. b', ok && ok'))
      (0., 0., true) (List.rev !enforced)
  in
  engines := [];
  enforced := [];
  r

let serve_layer_names =
  [
    "serve.hit_ratio"; "serve.hit_p50_ms"; "serve.miss_p50_ms";
    "serve.queue_p99_ms"; "serve.run_p50_ms"; "serve.shed.count";
    "serve.error.count"; "loadgen.late_p99_ms"; "loadgen.backlog_max";
  ]

(* the engine's own spans: what in [engine.enforce] no layer span covers *)
let engine_own = [ "engine.enforce"; "engine.prepare"; "engine.execute"; "engine.job" ]

(** Per-layer metrics from one traced run: [reps] traced passes (their
    spans in [Span.real], the outside-in breakdown in
    [Span.breakdown]), whose mean wall time is [wall_s], the SMT
    counters over those passes, and the untraced passes' allocation and
    major collections. *)
let layer_metrics ~reps ~wall_s ~(smt : counters) ~alloc_words ~majors ~retained_words ~overhead
    ~prepare_gap ~setup_synth_ms ~fail_ratio ~(serve : (string * float) list) =
  let per_rep x = x /. float_of_int reps in
  let bd = Span.breakdown in
  (* a name is timed on the real path or in the breakdown, never both *)
  let ms name = per_rep (Span.self_ms name +. Span.self_ms ~t:bd name) in
  let total name = per_rep (Span.total_ms name) in
  let n name = per_rep (float_of_int (Span.calls name + Span.calls ~t:bd name)) in
  let c name = per_rep (Span.counter name +. Span.counter ~t:bd name) in
  let share a b = if b > 0. then a /. b else 0. in
  let f = float_of_int in
  [
    ("corpus.synth_ms", setup_synth_ms);
    ("corpus.source_ms", ms "corpus.source");
    ("corpus.ticket_ms", ms "corpus.ticket");
    ("minilang.parse_ms", ms "minilang.parse");
    ("minilang.parse.count", n "minilang.parse");
    ("minilang.tests_ms", ms "minilang.tests");
    ("minilang.tests.count", c "minilang.tests.count");
    ("oracle.infer_ms", ms "oracle.infer");
    ("oracle.infer.count", n "oracle.infer");
    ("oracle.index_ms", ms "oracle.index");
    ("oracle.index.count", n "oracle.index");
    ("oracle.select_ms", ms "oracle.select");
    ("oracle.select.count", n "oracle.select");
    ("lisa.learn_ms", ms "lisa.learn");
    ("lisa.learn.count", n "lisa.learn");
    ( "lisa.learn.accept_ratio",
      share (Span.counter "lisa.rules.accepted") (Span.counter "lisa.rules.inferred") );
    ("semantics.resolve_ms", ms "semantics.resolve");
    ("analysis.callgraph_ms", ms "analysis.callgraph");
    ("analysis.exec_tree_ms", ms "analysis.exec_tree");
    ("analysis.exec_paths.count", c "analysis.exec_paths.count");
    ("diffing.summarize_ms", ms "engine.incremental");
    ("diffing.summarize.count", c "diffing.summarize.count");
    ("engine.enforce_ms", total "engine.enforce");
    ("engine.enforce.count", n "engine.enforce");
    ("engine.prepare_ms", total "checker.prepare");
    ("engine.execute_ms", ms "checker.execute");
    ("engine.fingerprint_ms", ms "engine.fingerprint");
    ( "engine.report_cache.hit_ratio",
      ratio (Span.counter "engine.report_cache.hits") (Span.counter "engine.report_cache.misses")
    );
    ( "engine.incremental.reuse_ratio",
      share
        (Span.counter "engine.incremental.reuses")
        (Span.counter "engine.incremental.reuses"
        +. Span.counter "engine.report_cache.hits"
        +. Span.counter "engine.report_cache.misses") );
    ("engine.jobs_run.count", c "engine.jobs_run.count");
    ("engine.unattributed_ms", List.fold_left (fun a name -> a +. ms name) 0. engine_own);
    ("symexec.concolic_ms", ms "concolic.run");
    ("symexec.hits.count", c "symexec.hits.count");
    ( "symexec.branch_record_ratio",
      share (Span.counter "symexec.branches_recorded") (Span.counter "symexec.branches_total") );
    ("smt.judge_ms", ms "smt.solve");
    ("smt.solve.count", per_rep (f smt.solves));
    ("smt.full_solve.count", per_rep (f smt.full));
    ("smt.memo.hit_ratio", ratio (f smt.memo_h) (f smt.memo_m));
    ("smt.fastpath.saved_ratio", ratio (f smt.saved) (f smt.full));
    ("core.intern.hit_ratio", ratio (f smt.intern_h) (f smt.intern_m));
    ("triage.replay_ms", ms "triage.replay" +. total "triage.witness");
    ("triage.findings.count", c "triage.findings.count");
    ( "triage.witnessed_ratio",
      share (Span.counter "triage.witnessed") (Span.counter "triage.findings.count") );
    ("serve.request_ms", ms "serve.request");
  ]
  @ List.map
      (fun name -> (name, Option.value ~default:0. (List.assoc_opt name serve)))
      serve_layer_names
  @ [
      ("gc.alloc_mb", words_mb alloc_words);
      ("gc.major.count", f majors);
      ("gc.retained_mb", words_mb retained_words);
      ("trace.overhead_ratio", overhead);
      ("trace.pass_ms", wall_s *. 1000.);
      ("trace.prepare_gap_ratio", prepare_gap);
      ("fail_ratio", fail_ratio);
    ]

(** The stages table of a traced run: every span's self ms per traced
    pass and its share of the pass's wall time, then the inclusive
    stages, and the outside-in breakdown of what has no span. *)
let stages_table ~workload ~reps ~wall_s =
  let per_rep x = x /. float_of_int reps in
  let wall_ms = wall_s *. 1000. in
  let share x = if wall_ms > 0. then 100. *. x /. wall_ms else 0. in
  let rows = Span.all () in
  let lines =
    Printf.sprintf "stages %s (traced real path, mean of %d passes, wall %.1f ms):" workload
      reps wall_ms
    :: Printf.sprintf "  %-24s %10s %7s %8s" "span (self)" "ms" "share" "calls"
    :: List.map
         (fun (name, self) ->
           Printf.sprintf "  %-24s %10.2f %6.1f%% %8.0f" name (per_rep self)
             (share (per_rep self))
             (per_rep (float_of_int (Span.calls name))))
         rows
  in
  let covered = List.fold_left (fun a (_, v) -> a +. per_rep v) 0. rows in
  let inclusive =
    List.filter_map
      (fun name ->
        if Span.calls name = 0 then None
        else
          let v = per_rep (Span.total_ms name) in
          Some (Printf.sprintf "%s %.1f ms (%.1f%%)" name v (share v)))
      [ "lisa.learn"; "engine.enforce"; "minilang.tests"; "triage.replay"; "serve.request" ]
  in
  let bd = Span.breakdown in
  let bd_rows = Span.all ~t:bd () in
  let bd_total = List.fold_left (fun a (_, v) -> a +. v) 0. bd_rows in
  let part name = if bd_total > 0. then 100. *. Span.total_ms ~t:bd name /. bd_total else 0. in
  lines
  @ [
      Printf.sprintf "  %-24s %10.2f %6.1f%%" "(outside any span)" (wall_ms -. covered)
        (share (wall_ms -. covered));
      "  inclusive stages: " ^ String.concat ", " inclusive;
    ]
  @
  if bd_rows = [] then []
  else
    [
      Printf.sprintf "  %s, re-composed from outside (%.1f ms per pass):"
        (if workload = "serve-mixed" then
           "request path paid by every request (assemble, parse, fingerprint)"
         else "engine prepare layer (Fingerprint, Callgraph.build, Checker.prepare)")
        (per_rep bd_total);
      "    self: "
      ^ String.concat ", "
          (List.map
             (fun (name, v) ->
               Printf.sprintf "%s %.1f%%" name (if bd_total > 0. then 100. *. v /. bd_total else 0.))
             bd_rows)
      ^
      if Span.calls ~t:bd "oracle.select" = 0 then ""
      else Printf.sprintf "; test selection (oracle.select incl. oracle.index) %.1f%%" (part "oracle.select");
    ]

(* ------------------------------------------------------------------ *)
(* scan-synth                                                          *)
(* ------------------------------------------------------------------ *)

type scan_row = {
  sr_system : string;
  sr_version : int;
  sr_ids : string list;  (** violating rule ids *)
  sr_tiers : (string * string) list;  (** triage tier per violating rule *)
}

let render_scan rows =
  String.concat "\n"
    (List.map
       (fun r ->
         Printf.sprintf "%s v%d: %s [%s]" r.sr_system r.sr_version
           (String.concat "," r.sr_ids)
           (String.concat "," (List.map (fun (a, b) -> a ^ "=" ^ b) r.sr_tiers)))
       rows)

(** One scan of every system at every scan version, as
    [System_scan.run_engine ~triage] composes it: one engine, each
    system's book learned once.  Items: each case learned into its
    system's book, and each release verdict (assemble + parse + enforce
    + triage). *)
let scan ~jobs (reg : Corpus.Registry.t) =
  let enforce = engine ~jobs in
  List.concat_map
    (fun system ->
      let book = system_book reg system in
      List.map
        (fun version ->
          let reports, ts =
            item ~verdict:true (fun () ->
                let p = program_of reg system ~version in
                let reports = enforce p book in
                (reports, triage p reports))
          in
          sample_heap ();
          {
            sr_system = system;
            sr_version = version;
            sr_ids = violating_ids reports;
            sr_tiers = tiers_of ts;
          })
        reg.Corpus.Registry.scan_versions)
    reg.Corpus.Registry.systems

let check_scan (reg : Corpus.Registry.t) rows =
  List.fold_left
    (fun (a, w) r ->
      let a', w' =
        check_findings
          (Corpus.Registry.cases_of reg r.sr_system)
          ~version:r.sr_version r.sr_ids
      in
      (a + a', w + w'))
    (0, 0) rows

(* ------------------------------------------------------------------ *)
(* ci-gate                                                             *)
(* ------------------------------------------------------------------ *)

type gate = Shipped | Blocked | Tests_failed

(** One history through the gate, as [Lisa.Ci.replay ~triage] runs it
    (its own engine at jobs 1): per stage the test suite, then the
    rulebook, then triage; a fix landing at the stage is learned
    afterwards.  Items: each commit's time to verdict, and each
    learning step after it. *)
let ci (c : Corpus.Case.t) =
  let enforce = engine ~jobs:1 in
  let book = Semantics.Rulebook.create ~system:c.Corpus.Case.system in
  let verdicts = ref [] in
  for stage = 0 to c.Corpus.Case.n_stages - 1 do
    let verdict =
      item ~verdict:true (fun () ->
          let p = program_at c stage in
          if run_tests p <> [] then Tests_failed
          else if List.exists Triage.blocking (triage p (enforce p book)) then Blocked
          else Shipped)
    in
    sample_heap ();
    verdicts := (stage, verdict) :: !verdicts;
    item ~verdict:false (fun () ->
        match ticket_at c stage with
        | None -> ()
        | Some ticket -> Semantics.Rulebook.add_all book (learn ticket))
  done;
  List.rev !verdicts

(** Wrong gate verdicts of one history: a commit must be blocked exactly
    at the case's regression stages and shipped everywhere else. *)
let ci_wrong (c : Corpus.Case.t) verdicts =
  List.length
    (List.filter
       (fun (stage, v) ->
         v <> if List.mem stage c.Corpus.Case.regression_stages then Blocked else Shipped)
       verdicts)

let ci_commits (reg : Corpus.Registry.t) =
  List.fold_left (fun n c -> n + c.Corpus.Case.n_stages) 0 reg.Corpus.Registry.cases
