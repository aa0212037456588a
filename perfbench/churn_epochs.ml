module Asn = Rpi_bgp.Asn
module Scenario = Rpi_dataset.Scenario
module Atom = Rpi_sim.Atom
module Engine = Rpi_sim.Engine
module Vantage = Rpi_sim.Vantage
module Churn = Rpi_topo.Churn
module Export_infer = Rpi_core.Export_infer

(* The churn-persistence experiment's world (scenario seed 42: 310 ASes,
   517 atoms) with the minorities that break uniqueness zeroed. *)
let world_config topology =
  {
    Scenario.small_config with
    Scenario.seed = 42;
    topology;
    p_atypical_neighbor = 0.0;
    p_atypical_prefix = 0.0;
    p_prefix_override = 0.0;
  }

(* Epochs per pass, epochs between batch cross-checks, and set-ups per
   run ([setup_s] is their median; 19 take about 3 s). *)
let epochs = 240
let checkpoint_every = 80
let setups = 19

type world = {
  s : Scenario.t;
  stream : Churn.epoch list;
  atom_of : int -> Atom.t;
  policy : Rpi_sim.Policy.t;
}

let vantage = Asn.of_int 1

(* The world is fixed; the seed drives the churn stream. *)
let setup ~topology ~seed =
  let s = Scenario.build ~config:(world_config topology) () in
  let atoms = s.Scenario.atoms in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (a : Atom.t) -> Hashtbl.replace by_id a.Atom.id a) atoms;
  let stream =
    Churn.generate (Rpi_prng.Prng.create ~seed:(seed + epochs)) ~graph:s.Scenario.graph
      ~atom_ids:(List.map (fun (a : Atom.t) -> a.Atom.id) atoms)
      ~epochs
  in
  { s; stream; atom_of = Hashtbl.find by_id; policy = Scenario.policy_of s vantage }

(* A freshly announced state: every atom solved once, the starting
   point of each pass (untimed). *)
let fresh_state w =
  let net = w.s.Scenario.network in
  let st = Engine.init_state net in
  Engine.repropagate net st (List.map (fun a -> Engine.Delta.Announce a) w.s.Scenario.atoms)

let batch_results w st =
  let s = w.s in
  let net =
    Engine.prepare ~graph:(Engine.state_graph st) ~import:(Scenario.import_of s)
      ~transit_scope:(Scenario.transit_scope_of s) ~lp_overrides:(Scenario.lp_override_quads s) ()
  in
  Engine.propagate_all net ~retain:s.Scenario.retain (Engine.state_atoms st)

let origins_of st =
  let tbl = Asn.Table.create 64 in
  List.iter
    (fun (a : Atom.t) ->
      let existing = Option.value ~default:[] (Asn.Table.find_opt tbl a.Atom.origin) in
      Asn.Table.replace tbl a.Atom.origin (a.Atom.prefixes @ existing))
    (Engine.state_atoms st);
  Asn.Table.fold (fun o ps acc -> (o, ps) :: acc) tbl []

type pass = {
  wall_s : float;
  epoch_ms : float array;
  events : int;
  pops : int;
  gate : (unit, string) result;
  alloc_mw : float;  (* summed over epochs (traced passes only) *)
  results_rss_mb : float;  (* max over epochs (traced passes only) *)
}

let steps_by_atom results =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun (r : Engine.result) -> Hashtbl.replace tbl r.Engine.atom.Atom.id r.Engine.steps) results;
  tbl

let one_pass w ~tr ~index =
  let net = w.s.Scenario.network and retain = w.s.Scenario.retain in
  let traced = Trace.enabled tr in
  let st = fresh_state w in
  let prev_steps = ref (steps_by_atom (Engine.state_results st ~retain)) in
  let epoch_ms = Array.make (List.length w.stream) 0.0 in
  let events = ref 0 and pops = ref 0 and gate = ref (Ok ()) in
  let alloc_mw = ref 0.0 and rss = ref 0.0 and checks_ns = ref 0 in
  let t_pass = Clock.now_ns () in
  Trace.span tr ~id:index "pass" (fun () ->
      List.iteri
        (fun i (ep : Churn.epoch) ->
          let epoch () =
            Trace.span tr ~id:ep.Churn.index "epoch" (fun () ->
                let deltas = List.map (Engine.Delta.of_event ~atom_of:w.atom_of) ep.Churn.events in
                let (_ : Engine.state) =
                  Trace.span tr "engine.repropagate" (fun () -> Engine.repropagate net st deltas)
                in
                let state_results () =
                  Trace.span tr "engine.state_results" (fun () -> Engine.state_results st ~retain)
                in
                let results =
                  if traced then begin
                    let r, _, peak = Mem.measure state_results in
                    rss := Float.max !rss peak;
                    r
                  end
                  else state_results ()
                in
                let rib =
                  Trace.span tr "vantage.rib_at" (fun () ->
                      Vantage.rib_at ~policy:w.policy ~vantage results)
                in
                let (_ : Export_infer.report) =
                  Trace.span tr "export_infer.analyze" (fun () ->
                      Export_infer.analyze (Engine.state_graph st) ~provider:vantage ~origins:(origins_of st) rib)
                in
                (List.length deltas, results))
          in
          let t0 = Clock.now_ns () in
          let (n_events, results), alloc =
            if traced then
              let v, a, _ = Mem.measure epoch in
              (v, a.Mem.alloc_mw)
            else (epoch (), 0.0)
          in
          epoch_ms.(i) <- float_of_int (Clock.now_ns () - t0) *. 1e-6;
          alloc_mw := !alloc_mw +. alloc;
          events := !events + n_events;
          (* Untimed from here: work counts and the batch cross-check,
             in their own span so they stay out of the pass's self time. *)
          let c0 = Clock.now_ns () in
          Trace.span tr "check" (fun () ->
              let steps = steps_by_atom results in
              Hashtbl.iter
                (fun id s ->
                  pops := !pops + (s - Option.value ~default:0 (Hashtbl.find_opt !prev_steps id)))
                steps;
              prev_steps := steps;
              if (i + 1) mod checkpoint_every = 0 || i + 1 = List.length w.stream then
                if Result.is_ok !gate then
                  gate :=
                    Result.map_error
                      (Printf.sprintf "epoch %d: %s" ep.Churn.index)
                      (Gates.results_equal results (batch_results w st)));
          checks_ns := !checks_ns + (Clock.now_ns () - c0))
        w.stream);
  {
    wall_s = float_of_int (Clock.now_ns () - t_pass - !checks_ns) *. 1e-9;
    epoch_ms;
    events = !events;
    pops = !pops;
    gate = !gate;
    alloc_mw = !alloc_mw;
    results_rss_mb = !rss;
  }

let run ?(topology = Scenario.small_config.Scenario.topology) ~seed ~seconds ~trace () =
  let setup_s, w = Clock.timed_median setups (fun () -> setup ~topology ~seed) in
  let warm, untraced, traced =
    Passes.run ~trace ~seconds ~min_untraced:2 (fun ~tr ~index -> one_pass w ~tr ~index)
  in
  let gate = Gates.first_error (List.map (fun p -> p.gate) ((warm :: untraced) @ traced)) in
  let n_epochs = List.length w.stream in
  let wall = Stats.median (Array.of_list (List.map (fun p -> p.wall_s) untraced)) in
  let end_to_end =
    if Trace.enabled trace then []
    else
      let epochs = Array.concat (List.map (fun p -> p.epoch_ms) untraced) in
      let pct q = match Stats.percentile epochs q with Ok v -> v | Error e -> failwith e in
      [
        Metric.v "setup_s" "s" setup_s;
        Metric.v "wall_s" "s" wall;
        Metric.v "peak_rss_mb" "MiB" (Mem.peak_rss_mb ());
        Metric.v "op_p50_ms" "ms" (Stats.median epochs);
        Metric.v "op_tail_ms" "ms" (pct 0.95);
      ]
  in
  let per_layer =
    match traced with
    | [] -> []
    | p :: _ ->
        let n_traced = List.length traced in
        let per_epoch_ms name =
          1e3 *. Trace.total_seconds trace name /. float_of_int (n_traced * n_epochs)
        in
        let self name = fst (Trace.self_of trace name) /. float_of_int n_traced in
        let traced_wall = Stats.median (Array.of_list (List.map (fun p -> p.wall_s) traced)) in
        [
          Metric.v "churn.events" "count" (float_of_int p.events);
          Metric.v "engine.repropagate_ms" "ms" (per_epoch_ms "engine.repropagate");
          Metric.v "engine.repropagate_pops" "count" (float_of_int p.pops);
          Metric.v "engine.state_results_ms" "ms" (per_epoch_ms "engine.state_results");
          Metric.v "engine.state_results_rss_mb" "MiB" p.results_rss_mb;
          Metric.v "vantage.rib_at_ms" "ms" (per_epoch_ms "vantage.rib_at");
          Metric.v "export_infer.analyze_ms" "ms" (per_epoch_ms "export_infer.analyze");
          Metric.v "engine.epoch_alloc_mw" "Mword" (p.alloc_mw /. float_of_int n_epochs);
          Metric.v "trace.unattributed_s" "s" (self "pass" +. self "epoch");
          Metric.v "trace.overhead_s" "s" (traced_wall -. wall);
        ]
  in
  {
    Metric.gate;
    attempted = (1 + List.length untraced + List.length traced) * n_epochs;
    failed = 0;
    end_to_end;
    per_layer;
  }
