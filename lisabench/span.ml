(** Layer timing for the traced run.  The program's own
    [Telemetry.Trace] spans ([engine.enforce], [checker.prepare],
    [oracle.infer], [smt.solve], [serve.request], ...) are recorded on
    the real path, and the benchmark adds spans of its own around the
    public calls it makes itself ([Parser.program], [Pipeline.learn],
    [Triage.triage_reports], ...), so both nest in one tree.  {!collect}
    folds the recorded spans into a table of self time (a span's time
    minus its children's), total time and calls per name. *)

module Trace = Telemetry.Trace

type acc = { mutable self_s : float; mutable total_s : float; mutable calls : int }

type table = {
  spans : (string, acc) Hashtbl.t;
  counts : (string, float) Hashtbl.t;
}

let create () = { spans = Hashtbl.create 64; counts = Hashtbl.create 64 }

(** The real path's layers, and the outside-in breakdown of the layers
    that have no span of their own. *)
let real = create ()

let breakdown = create ()

let reset () =
  List.iter
    (fun t ->
      Hashtbl.reset t.spans;
      Hashtbl.reset t.counts)
    [ real; breakdown ];
  Trace.reset ()

(** A span of the benchmark's own around one public call; costs one
    atomic load while tracing is off. *)
let time name f = Trace.with_span ~cat:"lisabench" name f

let tracing = Trace.enabled

(** Add [n] to the counter [name] of [into]. *)
let add ?(into = real) name n =
  Hashtbl.replace into.counts name
    (n +. Option.value ~default:0. (Hashtbl.find_opt into.counts name))

(** {!add}, while tracing only. *)
let count ?into name n = if tracing () then add ?into name n

(** Run [f] with tracing on, then fold its spans into [into]. *)
let traced ~into f =
  Trace.reset ();
  Trace.set_enabled true;
  let v = Fun.protect ~finally:(fun () -> Trace.set_enabled false) f in
  let spans = Trace.spans () in
  Trace.reset ();
  let children = Hashtbl.create 1024 in
  List.iter
    (fun (s : Trace.span) ->
      Option.iter
        (fun p ->
          Hashtbl.replace children p
            (s.Trace.sp_dur +. Option.value ~default:0. (Hashtbl.find_opt children p)))
        s.Trace.sp_parent)
    spans;
  List.iter
    (fun (s : Trace.span) ->
      let a =
        match Hashtbl.find_opt into.spans s.Trace.sp_name with
        | Some a -> a
        | None ->
            let a = { self_s = 0.; total_s = 0.; calls = 0 } in
            Hashtbl.replace into.spans s.Trace.sp_name a;
            a
      in
      let inner = Option.value ~default:0. (Hashtbl.find_opt children s.Trace.sp_id) in
      a.self_s <- a.self_s +. s.Trace.sp_dur -. inner;
      a.total_s <- a.total_s +. s.Trace.sp_dur;
      a.calls <- a.calls + 1)
    spans;
  v

let find t name = Hashtbl.find_opt t.spans name

let self_ms ?(t = real) name =
  match find t name with Some a -> a.self_s *. 1000. | None -> 0.

let total_ms ?(t = real) name =
  match find t name with Some a -> a.total_s *. 1000. | None -> 0.

let calls ?(t = real) name = match find t name with Some a -> a.calls | None -> 0

let counter ?(t = real) name = Option.value ~default:0. (Hashtbl.find_opt t.counts name)

(** Every span name of [t] with its self ms, largest first. *)
let all ?(t = real) () =
  Hashtbl.fold (fun name a l -> (name, a.self_s *. 1000.) :: l) t.spans []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
