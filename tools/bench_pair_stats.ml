(* bench_pair_stats BENCHMARK_JSON DIR N

   Summarises the runs tools/bench_pair.sh leaves in DIR: for every pair
   i in 1..N, DIR/base-i.txt and DIR/change-i.txt each hold the output
   of one `lisabench/run.sh --trace 0` run, whose last line is the JSON
   result object.  For each end-to-end metric BENCHMARK_JSON declares it
   prints both sides' median and quartiles, the change/base ratio of the
   medians, and in how many pairs the change was better ("wins") or
   worse ("losses") in the metric's declared direction.

   Quartiles interpolate linearly between order statistics (the
   "type 7" rule), so with N = 10 the quartiles sit at 3.25 and 7.75.

   Exit 0 when every run is `correct` with `failed` 0, 1 otherwise (the
   table is printed either way), 2 on unreadable input. *)

module J = Serve.Jsonu

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("bench_pair_stats: " ^ m); exit 2) fmt

let last_line path =
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  match List.rev lines with l :: _ -> l | [] -> die "%s: empty output" path

type run = { correct : bool; failed : int; metrics : J.t }

let read_run path =
  match J.parse (last_line path) with
  | Error e -> die "%s: last line is not JSON: %s" path e
  | Ok j -> (
      let field k f = Option.bind (J.member k j) f in
      match (field "correct" J.to_bool, field "failed" J.to_int, J.member "metrics" j) with
      | Some correct, Some failed, Some metrics -> { correct; failed; metrics }
      | _ -> die "%s: result line lacks correct/failed/metrics" path)

let value (r : run) name =
  Option.bind (J.member name r.metrics) (fun m -> Option.bind (J.member "value" m) J.to_float)

(* Linear interpolation between order statistics at quantile [q]. *)
let quantile q (xs : float array) =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  let h = q *. float_of_int (n - 1) in
  let lo = truncate h in
  let hi = min (n - 1) (lo + 1) in
  s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let () =
  let spec_path, dir, n =
    match Sys.argv with
    | [| _; spec; dir; n |] -> (
        match int_of_string_opt n with
        | Some n when n > 0 -> (spec, dir, n)
        | _ -> die "N must be a positive integer, got %S" n)
    | _ -> die "usage: bench_pair_stats BENCHMARK_JSON DIR N"
  in
  let metrics =
    match J.parse (In_channel.with_open_bin spec_path In_channel.input_all) with
    | Error e -> die "%s: %s" spec_path e
    | Ok j ->
        List.filter_map
          (fun m ->
            match
              (Option.bind (J.member "name" m) J.to_str, Option.bind (J.member "better" m) J.to_str)
            with
            | Some name, Some better -> Some (name, better = "higher")
            | _ -> None)
          (Option.value ~default:[] (Option.bind (J.member "end_to_end" j) J.to_list))
  in
  let runs side = Array.init n (fun i -> read_run (Printf.sprintf "%s/%s-%d.txt" dir side (i + 1))) in
  let base = runs "base" and change = runs "change" in
  Printf.printf "%-18s %-6s %32s %32s %7s %5s %6s\n" "metric" "better" "base median [q1, q3]"
    "change median [q1, q3]" "ratio" "wins" "losses";
  List.iter
    (fun (name, higher) ->
      let values runs =
        Array.map
          (fun r -> match value r name with Some v -> v | None -> die "metric %s missing" name)
          runs
      in
      let b = values base and c = values change in
      let wins = ref 0 and losses = ref 0 in
      Array.iteri
        (fun i bv ->
          let d = if higher then c.(i) -. bv else bv -. c.(i) in
          if d > 0. then incr wins else if d < 0. then incr losses)
        b;
      let cell xs =
        Printf.sprintf "%.4g [%.4g, %.4g]" (quantile 0.5 xs) (quantile 0.25 xs) (quantile 0.75 xs)
      in
      Printf.printf "%-18s %-6s %32s %32s %6.3fx %5d %6d\n" name
        (if higher then "higher" else "lower")
        (cell b) (cell c)
        (quantile 0.5 c /. quantile 0.5 b)
        !wins !losses)
    metrics;
  let bad side runs =
    Array.to_list runs
    |> List.mapi (fun i r -> (i + 1, r))
    |> List.filter (fun (_, r) -> (not r.correct) || r.failed <> 0)
    |> List.map (fun (i, r) ->
           Printf.sprintf "%s-%d (correct %b, failed %d)" side i r.correct r.failed)
  in
  match bad "base" base @ bad "change" change with
  | [] -> Printf.printf "all %d runs correct, failed 0\n" (2 * n)
  | l ->
      Printf.printf "NOT CORRECT: %s\n" (String.concat ", " l);
      exit 1
