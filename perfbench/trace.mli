(** In-memory spans around the layer calls of a workload.

    A span has a name, a start and an end (ns, {!Clock}), the span that
    was open on the same domain when it started (its parent), and an
    optional epoch or request id.  Spans stay in memory until
    {!write_chrome} dumps them as Chrome trace-event JSON.  A disabled
    tracer records nothing and {!span} is a direct call. *)

type t

val create : enabled:bool -> t
val enabled : t -> bool

val span : t -> ?id:int -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a span named [name]. *)

val add : t -> ?id:int -> string -> start_ns:int -> stop_ns:int -> unit
(** Record an already-measured interval as a child of the current span
    (used by the load generator, which times requests itself). *)

val count : t -> int
(** Spans recorded so far. *)

val self_seconds : t -> (string * float * int) list
(** Per span name: summed self time in seconds (duration minus the
    time its children cover) and the number of spans, sorted by name. *)

val total_seconds : t -> string -> float
(** Summed duration of every span named so. *)

val write_chrome : t -> string -> unit
(** Write every span as Chrome trace-event JSON ([ph = "X"], times in
    microseconds, the domain as [tid]). *)

val self_of : t -> string -> float * int
(** Self time in seconds and span count of one span name (0 when absent). *)
