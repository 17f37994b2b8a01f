(* trace_check FILE [REQUIRED_NAME ...]

   Validates a Chrome-trace JSON file produced by `--trace`: the file
   must be well-formed JSON (checked with Telemetry.Json_check, the
   same validator the unit tests use), contain at least one complete
   ("ph":"X") span, and mention every required event name given on the
   command line.  A required name written as `counter:NAME` must not
   only be present but appear on a counter ("ph":"C") event — the trace
   export writes one event per line, so the check is per-line (used for
   the engine's smt.* solver-core counters).  Exit 0 on success, 1 with
   a message otherwise.  Used by `make trace`, the `make check` trace
   smoke (the engine's pipeline spans and smt.* solver-core counters,
   including the pre-solver fast-path ladder `smt.fastpath.interval` /
   `smt.fastpath.bcp` / `smt.fastpath.subsumed` / `smt.fastpath.saved`
   and the cache-pressure series `smt.memo.local_evict`),
   the serve-daemon smoke, which requires the `serve.request` span and
   the `counter:serve.queue` depth/shed series, and the witness-replay
   triage smoke (`make triage`), which requires the `triage.witness`
   replay span and the `counter:triage.tier.*` tier series. *)

let contains = Diffing.Textutil.contains_sub

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  match Array.to_list Sys.argv with
  | _ :: path :: required ->
      let body =
        try read_file path
        with Sys_error e ->
          Printf.eprintf "trace_check: cannot read %s: %s\n" path e;
          exit 1
      in
      (match Telemetry.Json_check.validate body with
      | Ok () -> ()
      | Error e ->
          Printf.eprintf "trace_check: %s is not valid JSON: %s\n" path e;
          exit 1);
      if not (contains body "\"ph\":\"X\"") then begin
        Printf.eprintf "trace_check: %s has no complete (\"ph\":\"X\") spans\n"
          path;
        exit 1
      end;
      let lines = String.split_on_char '\n' body in
      let missing =
        List.filter
          (fun name ->
            match String.index_opt name ':' with
            | Some i when String.sub name 0 i = "counter" ->
                (* counter:NAME — the name must sit on a "ph":"C" event *)
                let n = String.sub name (i + 1) (String.length name - i - 1) in
                let needle = Printf.sprintf "\"name\":%S" n in
                not
                  (List.exists
                     (fun line ->
                       contains line needle && contains line "\"ph\":\"C\"")
                     lines)
            | _ -> not (contains body (Printf.sprintf "\"name\":%S" name)))
          required
      in
      if missing <> [] then begin
        Printf.eprintf "trace_check: %s is missing event name(s): %s\n" path
          (String.concat ", " missing);
        exit 1
      end;
      Printf.printf "trace_check: %s OK (%d required name(s) present)\n" path
        (List.length required)
  | _ ->
      prerr_endline "usage: trace_check FILE [REQUIRED_NAME ...]";
      exit 1
