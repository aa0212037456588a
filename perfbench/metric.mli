(** Named metrics and the benchmark's result line. *)

type t = { name : string; unit_ : string; value : float }

val v : string -> string -> float -> t
(** [v name unit value]. *)

val valid_name : string -> bool
(** At most 64 characters of [A-Za-z0-9_.-], starting with a letter or
    a digit. *)

val result_line : correct:bool -> attempted:int -> failed:int -> t list -> string
(** The one-line JSON result:
    [{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}].
    @raise Invalid_argument on an invalid or repeated metric name. *)

type outcome = {
  gate : (unit, string) result;  (** The workload's correctness gate. *)
  attempted : int;  (** Operations attempted (passes, epochs or requests). *)
  failed : int;  (** Of which failed, were refused or timed out. *)
  end_to_end : t list;  (** Metrics a user of the system sees; untraced runs only. *)
  per_layer : t list;  (** Per-layer metrics; traced runs only. *)
}
(** What one run of a workload produces. *)

val end_to_end_names : (string * string) list
(** Every end-to-end metric [(name, unit)], as declared in BENCHMARK.json;
    each workload reports all of them. *)

val per_layer_names : (string * string) list
(** Every per-layer metric [(name, unit)], as declared in BENCHMARK.json. *)

val complete : (string * string) list -> t list -> t list
(** [complete catalogue ms]: one metric per catalogue entry, in
    catalogue order, taken from [ms] — a layer the workload does not
    call reports 0.
    @raise Invalid_argument when [ms] holds a name outside the
    catalogue or a unit that differs from it. *)
