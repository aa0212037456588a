type t = { name : string; unit_ : string; value : float }

let v name unit_ value = { name; unit_; value }

let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

let result_line ~correct ~attempted ~failed metrics =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun m ->
      if not (valid_name m.name) then invalid_arg ("invalid metric name " ^ m.name);
      if Hashtbl.mem seen m.name then invalid_arg ("duplicate metric " ^ m.name);
      Hashtbl.add seen m.name ())
    metrics;
  Rpi_json.to_string
    (Rpi_json.Obj
       [
         ("correct", Rpi_json.Bool correct);
         ("attempted", Rpi_json.Int attempted);
         ("failed", Rpi_json.Int failed);
         ( "metrics",
           Rpi_json.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    Rpi_json.Obj
                      [ ("value", Rpi_json.Float m.value); ("unit", Rpi_json.String m.unit_) ]
                  ))
                metrics) );
       ])

type outcome = {
  gate : (unit, string) result;
  attempted : int;
  failed : int;
  end_to_end : t list;
  per_layer : t list;
}

let end_to_end_names =
  [ ("setup_s", "s"); ("wall_s", "s"); ("peak_rss_mb", "MiB"); ("op_p50_ms", "ms"); ("op_tail_ms", "ms") ]

let per_layer_names =
  [
    (* paper-15k *)
    ("engine.prepare_s", "s");
    ("engine.propagate_s", "s");
    ("engine.ns_per_as_atom", "ns");
    ("engine.pops", "count");
    ("engine.alloc_mw", "Mword");
    ("engine.promoted_mw", "Mword");
    ("engine.propagate_rss_mb", "MiB");
    ("vantage.extract_s", "s");
    ("vantage.routes", "count");
    ("mrt.write_s", "s");
    ("mrt.parse_s", "s");
    ("mrt.bytes", "bytes");
    ("mrt.rss_mb", "MiB");
    ("gao.infer_s", "s");
    ("gao.accuracy", "ratio");
    ("export_infer.analyze_s", "s");
    ("export_infer.sa_prefixes", "count");
    ("import_infer.analyze_s", "s");
    (* churn-epochs *)
    ("churn.events", "count");
    ("engine.repropagate_ms", "ms");
    ("engine.repropagate_pops", "count");
    ("engine.state_results_ms", "ms");
    ("engine.state_results_rss_mb", "MiB");
    ("vantage.rib_at_ms", "ms");
    ("export_infer.analyze_ms", "ms");
    ("engine.epoch_alloc_mw", "Mword");
    (* serve-ingest *)
    ("replay.step_ms", "ms");
    ("registry.publish_ms", "ms");
    ("state.prefixes_recomputed", "count");
    ("state.updates_applied", "count");
    ("serve.fresh_p50_ms", "ms");
    ("registry.respond_us", "us");
    ("server.busy_s", "s");
    ("server.requests", "count");
    ("server.query_p99_us", "us");
    (* every workload *)
    ("trace.unattributed_s", "s");
    ("trace.overhead_s", "s");
  ]

let complete catalogue ms =
  List.iter
    (fun m ->
      match List.assoc_opt m.name catalogue with
      | Some u when String.equal u m.unit_ -> ()
      | Some u -> invalid_arg (Printf.sprintf "metric %s in %s, declared in %s" m.name m.unit_ u)
      | None -> invalid_arg ("metric outside the catalogue: " ^ m.name))
    ms;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> String.equal m.name name) ms with
      | Some m -> m
      | None -> v name unit_ 0.0)
    catalogue
