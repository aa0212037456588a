(** Correctness gates.  Each returns [Error] naming the first violation;
    a workload whose gate fails exits nonzero. *)

module Engine = Rpi_sim.Engine
module Rib = Rpi_bgp.Rib

val all_converged : Engine.result list -> (unit, string) result
(** Every atom's propagation reached its fixpoint. *)

val tables_roundtrip : (string * Rib.t * Rib.t) list -> (unit, string) result
(** Every [(label, source, parsed)] table parsed back {!Rib.equal} to the
    table that was written, up to the two fields TABLE_DUMP has no column
    for: a locally originated route parses back as eBGP with its next hop
    as router id. *)

val accuracy_floor : floor:float -> float -> (unit, string) result
(** Relationship-inference accuracy at or above [floor]. *)

val results_equal : Engine.result list -> Engine.result list -> (unit, string) result
(** Incremental results match a fresh batch solve: same atoms, same
    convergence, same best route and candidate list at every retained
    AS ([steps] may differ — the incremental solver accumulates them). *)

val serve_clean : errors:int -> sheds:int -> timeouts:int -> (unit, string) result
(** No protocol error, shed or timed-out request. *)

val responses_equal : expected:string array -> got:string array -> (unit, string) result
(** Served response bodies byte-equal to the in-process rendering. *)

val first_error : (unit, string) result list -> (unit, string) result
(** The first [Error], else [Ok ()]. *)
