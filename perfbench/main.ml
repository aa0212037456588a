(* The benchmark's executable: one workload, one fresh process.

     main.exe --workload paper-15k|churn-epochs|serve-ingest --seed N
              --seconds S --trace 0|1

   Prints a human-readable report, then as its last line one JSON
   object {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics of an untraced run, or the per-layer metrics of a traced
   one.  Exits 1 when the workload's correctness gate fails, 2 on a
   usage error. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-15k|churn-epochs|serve-ingest --seed N --seconds S \
     --trace 0|1";
  exit 2

let workloads =
  [
    ("paper-15k", fun ~seed ~seconds ~trace -> Paper.run ~seed ~seconds ~trace ());
    ("churn-epochs", fun ~seed ~seconds ~trace -> Churn_epochs.run ~seed ~seconds ~trace ());
    ("serve-ingest", fun ~seed ~seconds ~trace -> Serve_ingest.run ~seed ~seconds ~trace ());
  ]

let parse_args argv =
  let rec go acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list argv))

let () =
  Serve_ingest.run_client_if_requested ();
  let args = parse_args Sys.argv in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let name = get "workload" in
  let run = match List.assoc_opt name workloads with Some f -> f | None -> usage () in
  let seed = int_arg "seed" and seconds = float_of_int (int_arg "seconds") in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let trace = Trace.create ~enabled:traced in
  let t0 = Clock.now_ns () in
  let o = run ~seed ~seconds ~trace in
  Printf.printf "%s seed %d: %.2f s in process, gate %s\n" name seed (Clock.seconds_since t0)
    (match o.Metric.gate with Ok () -> "ok" | Error e -> "FAILED: " ^ e);
  let metrics =
    if traced then Metric.complete Metric.per_layer_names o.Metric.per_layer
    else Metric.complete Metric.end_to_end_names o.Metric.end_to_end
  in
  if traced then begin
    let out = Printf.sprintf "_build/perfbench/trace-%s-%d.json" name seed in
    (try
       if not (Sys.file_exists (Filename.dirname out)) then Sys.mkdir (Filename.dirname out) 0o755;
       Trace.write_chrome trace out;
       Printf.printf "%d spans written to %s\n" (Trace.count trace) out
     with Sys_error e -> Printf.printf "trace not written: %s\n" e);
    print_endline "per-layer self time (span minus children), summed over traced passes:";
    List.iter
      (fun (n, s, k) -> Printf.printf "  %-28s %10.4f s  %7d spans\n" n s k)
      (Trace.self_seconds trace)
  end;
  List.iter (fun m -> Printf.printf "  %-28s %14.6f %s\n" m.Metric.name m.Metric.value m.Metric.unit_) metrics;
  print_endline
    (Metric.result_line ~correct:(Result.is_ok o.Metric.gate) ~attempted:o.Metric.attempted
       ~failed:o.Metric.failed metrics);
  if Result.is_error o.Metric.gate then exit 1
