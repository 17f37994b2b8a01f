(** serve-mixed: a seeded request schedule, an open-loop generator that
    drives one in-process {!Serve.Daemon} through its own admission path
    ([serve_channels]: its queue, its shedding) over one pipe
    connection, and a closed loop for the traced run. *)

module P = Serve.Protocol

let now = Unix.gettimeofday

type req = {
  id : string;
  line : string;  (** the JSONL request *)
  system : string;
  version : int;
  case : Corpus.Case.t option;  (** case-scoped request (ticket 0) *)
}

(** [n] enforce requests: three in four name a (system, version) key,
    one in four scopes the rulebook to a case of that system; keys are
    drawn Zipf-like (weight 1/sqrt rank) over a seeded ranking of every
    (system, scan version) pair.  The exponent is 1/2, not 1: at 1 the
    top key drew 18% of the requests, so which system the seed ranked
    first set the run's figures (the service p50 moved by up to 30%
    across five seeds); at 1/2 the top key draws 5% and the top tenth 27%. *)
let schedule ?(prefix = "r") ~seed (reg : Corpus.Registry.t) n : req array =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let keys =
    Array.of_list
      (List.concat_map
         (fun s -> List.map (fun v -> (s, v)) reg.Corpus.Registry.scan_versions)
         reg.Corpus.Registry.systems)
  in
  for i = Array.length keys - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- t
  done;
  let cdf =
    let acc = ref 0. in
    Array.mapi
      (fun rank _ ->
        acc := !acc +. (1. /. sqrt (float_of_int (rank + 1)));
        !acc)
      keys
  in
  let total = cdf.(Array.length cdf - 1) in
  let pick () =
    let u = Random.State.float rng total in
    let rec find i = if i >= Array.length cdf - 1 || cdf.(i) > u then i else find (i + 1) in
    keys.(find 0)
  in
  Array.init n (fun k ->
      let system, version = pick () in
      let id = Printf.sprintf "%s%d" prefix k in
      if Random.State.int rng 4 = 0 then
        let cases = Array.of_list (Corpus.Registry.cases_of reg system) in
        let c = cases.(Random.State.int rng (Array.length cases)) in
        {
          id;
          line =
            Printf.sprintf {|{"id":"%s","op":"enforce","case":"%s","version":%d}|}
              id c.Corpus.Case.case_id version;
          system;
          version;
          case = Some c;
        }
      else
        {
          id;
          line =
            Printf.sprintf {|{"id":"%s","op":"enforce","system":"%s","version":%d}|}
              id system version;
          system;
          version;
          case = None;
        })

let signature reqs = String.concat "\n" (Array.to_list (Array.map (fun r -> r.line) reqs))

(** Known answer for one enforce response: its findings must be the
    planted verdict for its (system, version) — the whole system's
    cases, or just the named case for a case-scoped request. *)
let wrong_findings (reg : Corpus.Registry.t) (r : req) (ids : string list) =
  let cases =
    match r.case with
    | Some c -> [ c ]
    | None -> Corpus.Registry.cases_of reg r.system
  in
  snd (Workload.check_findings cases ~version:r.version ids) > 0

(* ------------------------------------------------------------------ *)
(* Open loop over the daemon's admission path                          *)
(* ------------------------------------------------------------------ *)

type sample = {
  s_req : req;
  s_seg : int;  (** which rate segment sent it *)
  s_due : float;
  s_sent : float;
  s_backlog : int;  (** requests outstanding when it was sent *)
  mutable s_done : float;  (** response time; [nan] while unanswered *)
  mutable s_resp : P.response option;
}

(** Latency from the request's due time, in ms; an unanswered request
    counts from its due time to [give_up]. *)
let latency_ms ~give_up s =
  1000. *. ((if Float.is_nan s.s_done then give_up else s.s_done) -. s.s_due)

let ok_enforce s =
  match s.s_resp with Some (P.Ok_enforce _) -> true | _ -> false

(** Drive [daemon] through [serve_channels] with segments of requests.
    Once a segment's backlog has drained, [next seg prev] gets the index
    of the next segment and the previous segment's samples and returns
    its (rate in requests per second, requests), sent open loop, or
    [None] to stop.  One pipe pair is the single connection; the
    generator and response reader are this thread, the daemon's accept
    loop a second thread of this domain, and the daemon adds its one
    worker domain.  Returns every sample and the time the generator
    gave up waiting. *)
let drive (daemon : Serve.Daemon.t)
    (next : int -> sample list -> (float * req array) option) =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let server =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr req_r in
        let oc = Unix.out_channel_of_descr resp_w in
        Serve.Daemon.serve_channels daemon ic oc;
        close_out oc;
        close_in ic)
      ()
  in
  let pending : (string, sample) Hashtbl.t = Hashtbl.create 1024 in
  let samples = ref [] in
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let eof = ref false in
  let take_lines () =
    let s = Buffer.contents buf in
    Buffer.clear buf;
    let rec go start =
      match String.index_from_opt s start '\n' with
      | Some nl ->
          let line = String.sub s start (nl - start) in
          (match P.parse_response line with
          | Ok resp -> (
              match Hashtbl.find_opt pending (P.response_id resp) with
              | Some smp ->
                  smp.s_done <- now ();
                  smp.s_resp <- Some resp;
                  Hashtbl.remove pending (P.response_id resp)
              | None -> ())
          | Error _ -> ());
          go (nl + 1)
      | None -> Buffer.add_substring buf s start (String.length s - start)
    in
    go 0
  in
  (* wait up to [timeout] s for responses and consume what arrived *)
  let poll timeout =
    if not !eof then
      match Unix.select [ resp_r ] [] [] (Float.max 0. timeout) with
      | [], _, _ -> ()
      | _ ->
          let n = Unix.read resp_r chunk 0 (Bytes.length chunk) in
          if n = 0 then eof := true
          else begin
            Buffer.add_subbytes buf chunk 0 n;
            take_lines ()
          end
  in
  let drain ~limit =
    let deadline = now () +. limit in
    while Hashtbl.length pending > 0 && now () < deadline && not !eof do
      poll (deadline -. now ())
    done
  in
  let send seg rate reqs =
    let start = now () +. 0.001 in
    Array.mapi
      (fun i r ->
        let due = start +. (float_of_int i /. rate) in
        let rec wait () =
          let t = now () in
          if t < due then begin
            poll (due -. t);
            wait ()
          end
        in
        wait ();
        let backlog = Hashtbl.length pending in
        let msg = r.line ^ "\n" in
        ignore (Unix.write_substring req_w msg 0 (String.length msg));
        let smp =
          {
            s_req = r;
            s_seg = seg;
            s_due = due;
            s_sent = now ();
            s_backlog = backlog;
            s_done = Float.nan;
            s_resp = None;
          }
        in
        Hashtbl.replace pending r.id smp;
        poll 0.;
        smp)
      reqs
    |> Array.to_list
  in
  let rec segments seg prev =
    drain ~limit:30.;
    match next seg prev with
    | None -> ()
    | Some (rate, reqs) ->
        let smps = send seg rate reqs in
        samples := List.rev_append smps !samples;
        segments (seg + 1) smps
  in
  segments 0 [];
  drain ~limit:30.;
  let give_up = now () in
  Unix.close req_w;
  (* EOF ends the accept loop; the daemon drains its queue and returns *)
  while not !eof do
    poll 1.
  done;
  Thread.join server;
  Unix.close resp_r;
  (List.rev !samples, give_up)

(** Did the backlog grow over a segment?  Compares the mean number of
    outstanding requests over the segment's last quarter with its first
    quarter. *)
let backlog_grew (seg : sample list) =
  let a = Array.of_list seg in
  let n = Array.length a in
  if n < 8 then false
  else
    let mean lo hi =
      let s = ref 0 in
      for i = lo to hi - 1 do
        s := !s + a.(i).s_backlog
      done;
      float_of_int !s /. float_of_int (hi - lo)
    in
    let first = mean 0 (n / 4) and last = mean (n - (n / 4)) n in
    last > (2. *. first) +. 2.

(* ------------------------------------------------------------------ *)
(* Closed loop                                                         *)
(* ------------------------------------------------------------------ *)

let summary_of (resp : P.response) =
  match resp with
  | P.Ok_enforce { summary; _ } ->
      Some (summary.P.sum_findings, summary.P.sum_tiers)
  | _ -> None

(** The daemon's responses to [reqs], one request after the other
    through [handle_line] on the calling thread (no queue). *)
let closed_loop (daemon : Serve.Daemon.t) reqs =
  Array.map (fun r -> Serve.Daemon.handle_line daemon r.line) reqs
