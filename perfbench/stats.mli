(** Order statistics for reported timings. *)

val percentile : float array -> float -> (float, string) result
(** [percentile samples q] is the nearest-rank [q]-quantile
    ([0 < q < 1]) of [samples] (any order; not modified).  Refused with
    [Error] when fewer than 10 samples lie beyond the rank,
    so a p99 needs at least 1000 samples and a p95 at least 200. *)

val median : float array -> float
(** Median (mean of the two middle samples for an even count); [nan] on
    an empty array.  Medians of a handful of passes are allowed — the
    tail rule applies to {!percentile} only. *)
