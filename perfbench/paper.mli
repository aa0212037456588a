(** [paper-15k]: the paper's pipeline at paper scale.

    Set-up generates a heavy-tailed topology ({!Rpi_topo.Gen.generate_scaled})
    and its vantages — both fixed, like the paper's one Internet — and,
    from the run's seed, announcement atoms from stub and Tier-3 origins,
    a share of them selectively announced.  One measured pass then runs, from those
    inputs to every report: {!Rpi_sim.Engine.prepare},
    {!Rpi_sim.Engine.propagate_all}, the collector table
    ({!Rpi_sim.Vantage.collector_rib}) through a TABLE_DUMP write and
    parse, {!Rpi_relinfer.Gao.infer} on the parsed collector paths, and
    for each Looking-Glass vantage {!Rpi_sim.Vantage.rib_at}, the dump
    round trip, {!Rpi_core.Export_infer.analyze} and
    {!Rpi_core.Import_infer.analyze} on the inferred graph.  Two more
    Looking-Glass sweeps follow each untraced measured pass on the same
    converged state, outside [wall_s], for more per-Looking-Glass
    samples. *)

val run : ?n:int -> seed:int -> seconds:float -> trace:Trace.t -> unit -> Metric.outcome
(** Set up, then run passes until [seconds] have elapsed (at least four
    untraced; a traced run alternates untraced and traced passes, so at
    least two).  The world is [n] ASes (default 15000) from topology seed
    2002, 512 atoms x 4 prefixes, 30% selective, Tier-1 + 8 Tier-2
    collector feeds, 14 Looking Glasses (4 Tier-1, 6 Tier-2, 4 Tier-3).
    [setup_s] is the median of one set-up before the warm-up and seven
    before each later pass, so its samples span the run; the Gao
    accuracy gate's floor is 0.6. *)
