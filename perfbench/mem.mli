(** Process memory and allocation attribution. *)

val peak_rss_mb : unit -> float
(** VmHWM of this process in MiB (0 where /proc is unavailable). *)

type alloc = { alloc_mw : float; promoted_mw : float }
(** Words allocated (minor + direct major - promoted) and promoted, in
    millions. *)

val measure : (unit -> 'a) -> 'a * alloc * float
(** [measure f] runs [f] and returns its allocation ([Gc.quick_stat]
    deltas) and the VmHWM in MiB reached while it ran (after a reset;
    the process-lifetime peak when resetting is unavailable). *)
