(* Nanosecond monotonic clock (CLOCK_MONOTONIC through bechamel's
   allocation-free stub).  Every timing the benchmark reports is a
   difference of two readings of this clock. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* [timed f] runs [f] and returns its duration in seconds with its value. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (seconds_since t0, v)

(* [sampler f] is [(sample, median_s)]: [sample ()] runs and times [f],
   [median_s ()] is the median duration of the samples so far. *)
let sampler f =
  let times = ref [] in
  let sample () =
    let s, v = timed f in
    times := s :: !times;
    v
  in
  (sample, fun () -> Stats.median (Array.of_list !times))

let timed_median n f =
  let times = Array.make (max 1 n) 0.0 and last = ref None in
  Array.iteri
    (fun i _ ->
      last := None;
      let s, v = timed f in
      times.(i) <- s;
      last := Some v)
    times;
  (Stats.median times, Option.get !last)
