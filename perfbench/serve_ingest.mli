(** [serve-ingest]: reads beside writes on the daemon.

    Set-up plans a replay ({!Rpi_serve.Replay.plan}), applies its first
    epochs and starts an in-process {!Rpi_serve.Server} ([jobs = 1]) on a
    unix socket.  Then, at the same time:

    - a feeder domain, on a fixed cadence, steps the remaining replay
      epochs and then withdraw/announce flap cycles of one collector
      route, each followed by {!Rpi_serve.Registry.publish};
    - a client process runs a closed loop over 2 persistent
      connections, 16 requests in flight on each, with the seeded
      70/15/10/5 verb mix (per-prefix sa-status, whole-vantage
      sa-status, import-pref, stats) and pre-rendered frames, timing
      each request from being sent to being answered.

    After the feeder stops, every request of the mix is answered again
    and compared byte for byte with {!Rpi_serve.Registry.respond_rendered}
    on the final snapshot, and the client's pipelined bursts of the mix
    measure the time to answer a fixed batch. *)

val run : seed:int -> seconds:float -> trace:Trace.t -> unit -> Metric.outcome
(** Set up, then the three phases above; the closed loop takes 75% of
    [seconds] and the bursts the rest (at least 3).  The world is the
    daemon's built-in replay, 8 epochs planned and 4 applied during
    set-up ([setup_s] is the median of 5 set-ups); the mix holds 2048
    requests, a burst 16384, and the feeder runs every 50 ms.  The
    client runs as a child process of this executable, which must
    therefore call {!run_client_if_requested} first thing. *)

val run_client_if_requested : unit -> unit
(** When this process was started as the load-generating client of a
    {!run} (its only argument is the client flag), serve the parent's
    jobs and exit; otherwise return at once. *)
