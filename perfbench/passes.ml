let run ?(between = ignore) ~trace ~seconds ~min_untraced pass =
  let off = Trace.create ~enabled:false in
  let traced = Trace.enabled trace in
  let t0 = Clock.now_ns () in
  let warm = pass ~tr:off ~index:(-1) in
  let untraced = ref [] and with_trace = ref [] and index = ref 0 in
  let enough () =
    if traced then !untraced <> [] && !with_trace <> []
    else List.length !untraced >= min_untraced
  in
  while (not (enough ())) || Clock.seconds_since t0 < seconds do
    between ();
    if traced && !index mod 2 = 0 then with_trace := pass ~tr:trace ~index:!index :: !with_trace
    else untraced := pass ~tr:off ~index:!index :: !untraced;
    incr index
  done;
  (warm, List.rev !untraced, List.rev !with_trace)
