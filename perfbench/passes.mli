(** Repeated passes of a workload's measured phase. *)

val run :
  ?between:(unit -> unit) ->
  trace:Trace.t ->
  seconds:float ->
  min_untraced:int ->
  (tr:Trace.t -> index:int -> 'a) ->
  'a * 'a list * 'a list
(** [run ~trace ~seconds ~min_untraced pass] runs one warm-up pass
    ([index = -1], untraced, not measured: it grows the heap and fills
    the caches), then passes until [seconds] have elapsed since the
    warm-up started.  An untraced run makes at least [min_untraced]
    passes; a traced run alternates traced ([tr = trace]) and untraced
    passes, at least one of each, so the tracing overhead is their
    difference.  [between] (default: nothing) runs before each pass
    after the warm-up.  Returns the warm-up, the untraced and the
    traced passes, each in run order. *)
