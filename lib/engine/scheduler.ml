(** The enforcement engine: job-scheduled, parallel, incremental, cached
    rulebook enforcement.

    One [enforce] call turns a (program version, rulebook) pair into one
    job per rule and drains the job queue through four layers, cheapest
    first:

    1. {e incremental pre-pass} — if this engine enforced a previous
       version, diff the two ({!Incremental}) and reuse the previous
       report for every rule whose region is untouched (no prepare, no
       fingerprint, no execution);
    2. {e report cache} — remaining rules run {!Checker.prepare} (cheap
       statics) and look up their {!Fingerprint.job_key}; a hit returns
       the memoized report;
    3. {e worker pool} — true misses become prioritized jobs executed on
       {!Pool} ([jobs = 1] is bit-for-bit the serial semantics);
    4. {e SMT verdict cache} — inside every executed job, path-condition
       judgments go through {!Smt.Memo}.

    Reports come back in rulebook order regardless of pool width, and
    every layer can be disabled independently (the cold-serial
    configuration reproduces the historic [Checker.check_book]
    behaviour exactly).

    Telemetry: every phase runs under a [Telemetry.Trace] span
    ([engine.enforce] > [engine.incremental] / [engine.prepare] /
    [engine.execute] > [engine.job]), counts accumulate through the
    {!Stats} recorder into [Telemetry.Metrics], and all wall time is
    read from [Telemetry.Clock]. *)

open Minilang
module Trace = Telemetry.Trace
module Clock = Telemetry.Clock

type config = {
  jobs : int;  (** worker domains; 1 = serial on the calling domain *)
  report_cache : bool;  (** layer 2: fingerprint-keyed report memo *)
  smt_cache : bool;  (** layer 4: {!Smt.Memo} verdict cache *)
  incremental : bool;  (** layer 1: diff-based cross-version reuse *)
  checker : Checker.config;
  max_retries : int;
      (** failed jobs are re-run up to this many times before quarantine *)
  retry_backoff_ms : int;
      (** base backoff before a retry round, doubled per attempt and
          capped at 8x; 0 = retry immediately (what tests use) *)
  job_times_cap : int;
      (** ring capacity for per-job wall times kept in {!Stats} *)
}

let default_config =
  {
    jobs = 1;
    report_cache = true;
    smt_cache = true;
    incremental = true;
    checker = Checker.default_config;
    max_retries = 2;
    retry_backoff_ms = 5;
    job_times_cap = 1024;
  }

(** The cold, serial configuration: every layer off — including the
    checker's path-condition trie, so each trace is solved
    independently.  Reproduces the historic one-shot checker exactly;
    the benchmark's baseline (its report equality against the default
    mode doubles as the trie's byte-identity check). *)
let cold_config =
  {
    default_config with
    report_cache = false;
    smt_cache = false;
    incremental = false;
    checker = { Checker.default_config with Checker.trie = false };
  }

(* what the engine remembers about the last version it enforced *)
type memory = {
  mem_program : Ast.program;
  mem_fp : string;
  mem_entries : (string * (string list * Checker.rule_report)) list;
      (** rule id -> (region at last run, report) *)
}

type t = {
  config : config;
  recorder : Stats.recorder;
  reports : (string, Checker.rule_report) Cache.t;
  mutable last : memory option;
}

let create ?(config = default_config) () : t =
  {
    config;
    recorder = Stats.recorder ~job_times_cap:config.job_times_cap ();
    reports = Cache.create ~name:"reports" ();
    last = None;
  }

let config t = t.config

let stats t = Stats.snapshot t.recorder

let report_cache_size t = Cache.size t.reports

(** Drop all cached state (reports and version memory). *)
let invalidate t =
  Cache.reset t.reports;
  t.last <- None

let no_change_summary =
  { Incremental.ch_methods = []; Incremental.ch_stmt_texts = [] }

(* capped exponential backoff: base, 2*base, 4*base, ... <= 8*base *)
let backoff_ms (cfg : config) ~(attempt : int) : int =
  if cfg.retry_backoff_ms <= 0 then 0
  else
    let factor = 1 lsl min 3 (max 0 (attempt - 1)) in
    min (cfg.retry_backoff_ms * factor) (8 * cfg.retry_backoff_ms)

(* trace-only counter snapshots of the two cache tiers *)
let trace_cache_counters t =
  if Trace.enabled () then begin
    let s = Stats.snapshot t.recorder in
    Trace.counter "engine.report_cache"
      [
        ("hits", float_of_int s.Stats.report_hits);
        ("misses", float_of_int s.Stats.report_misses);
        ("entries", float_of_int (Cache.size t.reports));
      ];
    Trace.counter "engine.smt_cache"
      [
        ("hits", float_of_int s.Stats.smt_hits);
        ("misses", float_of_int s.Stats.smt_misses);
        ("solver_calls", float_of_int s.Stats.solver_calls);
      ];
    Trace.counter "engine.intern"
      [
        ("hits", float_of_int s.Stats.intern_hits);
        ("misses", float_of_int s.Stats.intern_misses);
        ("size", float_of_int s.Stats.intern_size);
      ];
    (* the incremental solver core's counters *)
    Trace.counter "smt.assume.push"
      [ ("count", float_of_int s.Stats.assume_pushes) ];
    Trace.counter "smt.assume.pop"
      [ ("count", float_of_int s.Stats.assume_pops) ];
    Trace.counter "smt.propagations"
      [ ("count", float_of_int s.Stats.propagations) ];
    Trace.counter "smt.learned"
      [ ("count", float_of_int s.Stats.learned_conflicts) ];
    (* contention-free hot-path counters: shard-lock waits, zero-lock
       front-cache hits, batched clause publications *)
    Trace.counter "core.shard.contention"
      [ ("count", float_of_int s.Stats.shard_contention) ];
    Trace.counter "smt.memo.local_hits"
      [ ("count", float_of_int s.Stats.memo_local_hits) ];
    Trace.counter "smt.learned.batched"
      [ ("count", float_of_int s.Stats.learned_batched) ];
    Trace.counter "smt.trie.nodes"
      [ ("count", float_of_int s.Stats.trie_nodes) ];
    Trace.counter "smt.trie.shared"
      [ ("count", float_of_int s.Stats.trie_shared) ];
    (* pre-solver fast-path ladder: abstract-domain refutations, root
       BCP conflicts, trie-subtree subsumptions, total searches saved *)
    Trace.counter "smt.fastpath.interval"
      [ ("count", float_of_int s.Stats.fastpath_interval) ];
    Trace.counter "smt.fastpath.bcp"
      [ ("count", float_of_int s.Stats.fastpath_bcp) ];
    Trace.counter "smt.fastpath.subsumed"
      [ ("count", float_of_int s.Stats.fastpath_subsumed) ];
    Trace.counter "smt.fastpath.saved"
      [ ("count", float_of_int s.Stats.fastpath_saved) ];
    Trace.counter "smt.memo.local_evict"
      [ ("count", float_of_int s.Stats.memo_local_evict) ]
  end

(** Enforce a rulebook against a program version through the engine. *)
let enforce (t : t) (p : Ast.program) (book : Semantics.Rulebook.t) :
    Checker.rule_report list =
  Trace.with_span ~cat:"engine" "engine.enforce" @@ fun () ->
  let cfg = t.config in
  let t0 = Clock.now () in
  let smt_hits0 = Smt.Memo.hits () and smt_misses0 = Smt.Memo.misses () in
  let intern_hits0 = Smt.Formula.intern_hits ()
  and intern_misses0 = Smt.Formula.intern_misses () in
  let solver0 = Smt.Solver.solve_count () in
  let push0 = Smt.Solver.assume_push_count ()
  and pop0 = Smt.Solver.assume_pop_count ()
  and propagations0 = Smt.Solver.propagation_count ()
  and learned0 = Smt.Solver.learned_count () in
  let contention0 = Core.Hc.contention_total ()
  and local_hits0 = Smt.Memo.local_hits ()
  and batched0 = Smt.Solver.learned_batch_count () in
  let trie_nodes0 = Smt.Pctrie.nodes_total ()
  and trie_shared0 = Smt.Pctrie.shared_total () in
  let fp_interval0 = Smt.Solver.fastpath_interval_count ()
  and fp_bcp0 = Smt.Solver.fastpath_bcp_count ()
  and fp_subsumed0 = Smt.Solver.fastpath_subsumed_count ()
  and fp_saved0 = Smt.Solver.fastpath_saved_count ()
  and local_evict0 = Smt.Memo.local_evictions () in
  let memo_was = Smt.Memo.enabled () in
  Smt.Memo.set_enabled cfg.smt_cache;
  Fun.protect ~finally:(fun () -> Smt.Memo.set_enabled memo_was) @@ fun () ->
  let rules = Semantics.Rulebook.rules book in
  let program_fp = Fingerprint.program p in
  (* layer 1: incremental pre-pass against the previous version.  The
     diff is forced at the first rule the memory has an entry for, so a
     book the last enforcement never saw (e.g. another system's) pays
     nothing for it. *)
  let reused, fresh =
    Trace.with_span ~cat:"engine" "engine.incremental" @@ fun () ->
    match t.last with
    | Some mem when cfg.incremental ->
        let changes =
          lazy
            (if mem.mem_fp = program_fp then no_change_summary
             else Incremental.summarize ~prev:mem.mem_program ~cur:p)
        in
        List.partition_map
          (fun (rule : Semantics.Rule.t) ->
            match List.assoc_opt rule.Semantics.Rule.rule_id mem.mem_entries with
            | Some (region, report)
              when not
                     (Incremental.rule_affected (Lazy.force changes) ~region
                        rule) ->
                Either.Left (rule.Semantics.Rule.rule_id, (region, report))
            | _ -> Either.Right rule)
          rules
    | _ -> ([], rules)
  in
  Stats.bump ~by:(List.length reused) t.recorder Stats.Incremental_reuses;
  (* layer 2: prepare the rest and consult the report cache.  One call
     graph and one test index serve every rule of this version; the
     index is built on first use, so lock-only books and non-RAG
     selections never pay for it. *)
  let prepared_rules =
    Trace.with_span ~cat:"engine" "engine.prepare" @@ fun () ->
    let graph = Analysis.Callgraph.build p in
    let index = lazy (Oracle.Test_select.index_of_tests p) in
    let methods = Fingerprint.methods p in
    List.map
      (fun rule ->
        let pr = Checker.prepare ~config:cfg.checker ~graph ~index p rule in
        let key = Fingerprint.job_key ~config:cfg.checker ~graph ~methods pr in
        let region = Fingerprint.region graph pr in
        (Job.make ~program_fp ~key pr, region))
      fresh
  in
  let cached, to_run =
    List.partition_map
      (fun ((job : Job.t), region) ->
        match if cfg.report_cache then Cache.find t.reports job.Job.key else None with
        | Some report -> Either.Left (job.Job.rule_id, (region, report))
        | None -> Either.Right (job, region))
      prepared_rules
  in
  Stats.bump ~by:(List.length cached) t.recorder Stats.Report_hits;
  Stats.bump ~by:(List.length to_run) t.recorder Stats.Report_misses;
  (* layer 3: execute the misses on the worker pool, expensive first.
     The pool collects per-slot results instead of re-raising: failed
     jobs are retried with capped deterministic backoff, and jobs still
     failing after [max_retries] rounds are quarantined behind a
     placeholder report — one crashing rule never takes down the run. *)
  let scheduled = Array.of_list (Job.schedule (List.map fst to_run)) in
  let run_job (job : Job.t) =
    Trace.with_span ~cat:"engine" ~args:[ ("rule", job.Job.rule_id) ]
      "engine.job"
    @@ fun () ->
    let j0 = Clock.now () in
    let report = Checker.execute ~config:cfg.checker p job.Job.prepared in
    (job, report, Clock.now () -. j0)
  in
  let results =
    Trace.with_span ~cat:"engine"
      ~args:[ ("scheduled", string_of_int (Array.length scheduled)) ]
      "engine.execute"
    @@ fun () ->
    let results =
      Pool.map_results ~init:Domain_ctx.enter ~finish:Domain_ctx.leave
        ~jobs:cfg.jobs run_job scheduled
    in
    let rec retry_failures attempt =
      let failed = Pool.failures results in
      if failed <> [] && attempt <= cfg.max_retries then begin
        let ms = backoff_ms cfg ~attempt in
        List.iter
          (fun (slot, e) ->
            Resilience.Events.emit
              (Resilience.Events.Job_retry
                 {
                   job = scheduled.(slot).Job.rule_id;
                   attempt;
                   backoff_ms = ms;
                   reason = Printexc.to_string e;
                 }))
          failed;
        Stats.bump ~by:(List.length failed) t.recorder Stats.Retries;
        if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.);
        let slots = Array.of_list (List.map fst failed) in
        let rerun =
          Pool.map_results ~init:Domain_ctx.enter ~finish:Domain_ctx.leave
            ~jobs:cfg.jobs
            (fun slot -> run_job scheduled.(slot))
            slots
        in
        Array.iteri (fun k r -> results.(slots.(k)) <- r) rerun;
        retry_failures (attempt + 1)
      end
    in
    retry_failures 1;
    results
  in
  let executed =
    Array.to_list results
    |> List.mapi (fun slot result ->
           match result with
           | Ok v -> v
           | Error e ->
               let job = scheduled.(slot) in
               let reason = Printexc.to_string e in
               Resilience.Events.emit
                 (Resilience.Events.Job_quarantined
                    {
                      job = job.Job.rule_id;
                      attempts = cfg.max_retries + 1;
                      reason;
                    });
               Stats.quarantine t.recorder job.Job.rule_id;
               let report =
                 Checker.quarantined_report
                   job.Job.prepared.Checker.prep_rule ~reason
               in
               (job, report, 0.))
  in
  let region_of_job (job : Job.t) =
    match
      List.find_opt (fun ((j : Job.t), _) -> j.Job.job_id = job.Job.job_id) to_run
    with
    | Some (_, region) -> region
    | None -> []
  in
  let ran =
    List.map
      (fun ((job : Job.t), report, wall) ->
        (* degraded reports never enter the cache: they describe a bad
           moment (open breaker, exhausted budget), not the program, and
           must not poison later healthy enforcements *)
        if cfg.report_cache && not (Checker.is_degraded report) then
          Cache.add t.reports job.Job.key report;
        if Checker.is_degraded report then
          Stats.bump t.recorder Stats.Degraded_jobs;
        Stats.bump t.recorder Stats.Jobs_run;
        Stats.add_job_time t.recorder
          {
            Stats.jt_job_id = job.Job.job_id;
            Stats.jt_rule_id = job.Job.rule_id;
            Stats.jt_wall_s = wall;
          };
        (job.Job.rule_id, (region_of_job job, report)))
      executed
  in
  (* assemble in rulebook order and refresh the version memory *)
  let entries = reused @ cached @ ran in
  let reports_in_order =
    List.map
      (fun (rule : Semantics.Rule.t) ->
        match List.assoc_opt rule.Semantics.Rule.rule_id entries with
        | Some (_, report) -> report
        | None -> assert false (* every rule fell into exactly one layer *))
      rules
  in
  (* degraded reports are also kept out of the incremental memory: the
     next enforcement must re-run those rules, not reuse their gaps *)
  let durable_entries =
    List.filter
      (fun (_, (_, report)) -> not (Checker.is_degraded report))
      entries
  in
  t.last <-
    Some { mem_program = p; mem_fp = program_fp; mem_entries = durable_entries };
  (* bookkeeping *)
  Stats.bump t.recorder Stats.Enforcements;
  Stats.bump ~by:(Smt.Memo.hits () - smt_hits0) t.recorder Stats.Smt_hits;
  Stats.bump ~by:(Smt.Memo.misses () - smt_misses0) t.recorder Stats.Smt_misses;
  Stats.bump
    ~by:(Smt.Formula.intern_hits () - intern_hits0)
    t.recorder Stats.Intern_hits;
  Stats.bump
    ~by:(Smt.Formula.intern_misses () - intern_misses0)
    t.recorder Stats.Intern_misses;
  Stats.bump
    ~by:(Smt.Solver.solve_count () - solver0)
    t.recorder Stats.Solver_calls;
  Stats.bump
    ~by:(Smt.Solver.assume_push_count () - push0)
    t.recorder Stats.Assume_pushes;
  Stats.bump
    ~by:(Smt.Solver.assume_pop_count () - pop0)
    t.recorder Stats.Assume_pops;
  Stats.bump
    ~by:(Smt.Solver.propagation_count () - propagations0)
    t.recorder Stats.Propagations;
  Stats.bump
    ~by:(Smt.Solver.learned_count () - learned0)
    t.recorder Stats.Learned_conflicts;
  Stats.bump
    ~by:(Core.Hc.contention_total () - contention0)
    t.recorder Stats.Shard_contention;
  Stats.bump
    ~by:(Smt.Memo.local_hits () - local_hits0)
    t.recorder Stats.Memo_local_hits;
  Stats.bump
    ~by:(Smt.Solver.learned_batch_count () - batched0)
    t.recorder Stats.Learned_batched;
  Stats.bump
    ~by:(Smt.Pctrie.nodes_total () - trie_nodes0)
    t.recorder Stats.Trie_nodes;
  Stats.bump
    ~by:(Smt.Pctrie.shared_total () - trie_shared0)
    t.recorder Stats.Trie_shared;
  Stats.bump
    ~by:(Smt.Solver.fastpath_interval_count () - fp_interval0)
    t.recorder Stats.Fastpath_interval;
  Stats.bump
    ~by:(Smt.Solver.fastpath_bcp_count () - fp_bcp0)
    t.recorder Stats.Fastpath_bcp;
  Stats.bump
    ~by:(Smt.Solver.fastpath_subsumed_count () - fp_subsumed0)
    t.recorder Stats.Fastpath_subsumed;
  Stats.bump
    ~by:(Smt.Solver.fastpath_saved_count () - fp_saved0)
    t.recorder Stats.Fastpath_saved;
  Stats.bump
    ~by:(Smt.Memo.local_evictions () - local_evict0)
    t.recorder Stats.Memo_local_evict;
  Stats.add_wall t.recorder (Clock.now () -. t0);
  trace_cache_counters t;
  reports_in_order

(** The reports that carry violations. *)
let findings (reports : Checker.rule_report list) : Checker.rule_report list =
  List.filter Checker.has_violations reports

(** Violating rule ids of an enforcement, in rulebook order — the
    stable summary benchmarks and tests compare across configurations. *)
let finding_ids (reports : Checker.rule_report list) : string list =
  List.map
    (fun (r : Checker.rule_report) -> r.Checker.rep_rule.Semantics.Rule.rule_id)
    (findings reports)

(** Rule ids whose reports are degraded (lost evidence), in rulebook
    order.  A clean run returns []. *)
let degraded_ids (reports : Checker.rule_report list) : string list =
  List.filter_map
    (fun (r : Checker.rule_report) ->
      if Checker.is_degraded r then
        Some r.Checker.rep_rule.Semantics.Rule.rule_id
      else None)
    reports
