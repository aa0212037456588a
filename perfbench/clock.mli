(** Nanosecond monotonic clock. *)

val now_ns : unit -> int
(** Current reading of CLOCK_MONOTONIC, in nanoseconds. *)

val seconds_since : int -> float
(** Seconds elapsed since a {!now_ns} reading. *)

val timed : (unit -> 'a) -> float * 'a
(** [timed f] is [f ()] with its duration in seconds. *)

val sampler : (unit -> 'a) -> (unit -> 'a) * (unit -> float)
(** [sampler f] is [(sample, median_s)]: [sample ()] is [f ()], timed;
    [median_s ()] is the median duration in seconds of the samples taken
    so far ([nan] before the first). *)

val timed_median : int -> (unit -> 'a) -> float * 'a
(** [timed_median n f] runs [f] [n] times (at least once) and returns
    the median duration in seconds with the last value; earlier values
    are dropped before the next run starts. *)
