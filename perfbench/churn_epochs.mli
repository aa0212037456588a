(** [churn-epochs]: the incremental write path.

    The [churn-persistence] world — {!Rpi_dataset.Scenario.small_config}
    (310 ASes) with the atypical-preference and prefix-override
    minorities zeroed so the stable state is unique; scenario seed 42,
    517 atoms — under a {!Rpi_topo.Churn} stream drawn from the run's
    seed.  Each epoch is {!Rpi_sim.Engine.repropagate}
    of the epoch's deltas, {!Rpi_sim.Engine.state_results},
    {!Rpi_sim.Vantage.rib_at} at AS1 and {!Rpi_core.Export_infer.analyze}:
    from a delta batch going in to the SA report coming out.  At
    untimed checkpoints the incremental results are compared with a
    fresh {!Rpi_sim.Engine.prepare} + {!Rpi_sim.Engine.propagate_all} on
    {!Rpi_sim.Engine.state_graph}. *)

val run :
  ?topology:Rpi_topo.Gen.config -> seed:int -> seconds:float -> trace:Trace.t -> unit -> Metric.outcome
(** Set up, then replay the whole 240-epoch stream from a freshly
    announced state until [seconds] have elapsed (at least one pass; a
    traced run alternates untraced and traced passes), with a batch
    cross-check every 80 epochs.  [topology] (default: the small
    scenario's) sizes the world; [setup_s] is the median of 19
    set-ups. *)
