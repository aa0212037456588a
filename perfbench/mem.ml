let peak_rss_mb () =
  let prefix = "VmHWM:" in
  let np = String.length prefix in
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0.0
          | Some line ->
              if String.length line > np && String.equal (String.sub line 0 np) prefix then
                Scanf.sscanf (String.sub line np (String.length line - np)) " %d" float_of_int
                /. 1024.0
              else go ()
        in
        go ())
  with Sys_error _ | Scanf.Scan_failure _ | Failure _ | End_of_file -> 0.0

let reset_peak () =
  try
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5");
    true
  with Sys_error _ -> false

type alloc = { alloc_mw : float; promoted_mw : float }

let measure f =
  let (_ : bool) = reset_peak () in
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  let minor = s1.Gc.minor_words -. s0.Gc.minor_words in
  let major = s1.Gc.major_words -. s0.Gc.major_words in
  let promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words in
  (v, { alloc_mw = (minor +. major -. promoted) /. 1e6; promoted_mw = promoted /. 1e6 }, peak_rss_mb ())
