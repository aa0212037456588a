module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Prefix = Rpi_net.Prefix
module Prng = Rpi_prng.Prng
module Gen = Rpi_topo.Gen
module As_graph = Rpi_topo.As_graph
module Atom = Rpi_sim.Atom
module Engine = Rpi_sim.Engine
module Vantage = Rpi_sim.Vantage
module Policy = Rpi_sim.Policy
module Table_dump = Rpi_mrt.Table_dump
module Export_infer = Rpi_core.Export_infer
module Import_infer = Rpi_core.Import_infer

(* 512 atoms of 4 prefixes; the collector hears every Tier-1 plus 8
   Tier-2 feeds; 14 Looking Glasses.  [setup_s] is the median of one
   set-up before the warm-up and [setups_per_pass] before each later
   pass, about 3 s of them spread over the run. *)
let n_atoms = 512
let tier2_feeds = 8
let n_lgs = 14
let setups_per_pass = 7
let accuracy_floor = 0.6

type world = {
  topo : Gen.t;
  atoms : Atom.t list;
  feeds : Asn.t list;
  lgs : Asn.t list;
  retain : Asn.Set.t;
}

(* Like the paper's one Nov-2002 Internet, the topology and the vantage
   set are fixed (drawn from [topology_seed]); the run's seed draws the
   announcements: origins, prefixes and selective scopes. *)
let topology_seed = 2002
let prefixes_per_atom = 4
let p_selective = 0.3

let setup ~n ~seed =
  let trng = Prng.create ~seed:topology_seed in
  let topo = Gen.generate_scaled ~config:(Gen.scale_config ~n) trng in
  let graph = topo.Gen.graph in
  let pick k l = Prng.sample trng (min k (List.length l)) l in
  let feeds = topo.Gen.tier1 @ pick tier2_feeds topo.Gen.tier2 in
  let n_t1 = n_lgs * 2 / 7 and n_t3 = n_lgs * 2 / 7 in
  let lgs =
    pick n_t1 topo.Gen.tier1
    @ pick (n_lgs - n_t1 - n_t3) topo.Gen.tier2
    @ pick n_t3 topo.Gen.tier3
  in
  let rng = Prng.create ~seed in
  let origins =
    Array.of_list (Prng.sample rng n_atoms (topo.Gen.stubs @ topo.Gen.tier3))
  in
  let atoms =
    List.init (Array.length origins) (fun i ->
        let origin = origins.(i) in
        let prefixes =
          List.init prefixes_per_atom (fun k ->
              let j = (i * prefixes_per_atom) + k in
              Prefix.make (Rpi_net.Ipv4.of_octets 10 (j lsr 8) (j land 0xFF) 0) 24)
        in
        let providers = As_graph.providers graph origin in
        let np = List.length providers in
        if np >= 2 && Prng.chance rng p_selective then
          let keep = Prng.sample rng (Prng.int_in rng 1 (np - 1)) providers in
          Atom.make ~id:i ~origin ~provider_scope:(Atom.Only_providers (Asn.Set.of_list keep)) prefixes
        else Atom.vanilla ~id:i ~origin prefixes)
  in
  { topo; atoms; feeds; lgs; retain = Asn.Set.of_list (feeds @ lgs) }

(* What one pass measured: wall time, one latency per Looking Glass, the
   exact work counts, and (traced passes only) allocation and memory. *)
type pass = {
  wall_s : float;
  lg_ms : float list;
  pops : int;
  routes : int;
  bytes : int;
  sa_prefixes : int;
  accuracy : float;
  gate : (unit, string) result;
  alloc : Mem.alloc;
  propagate_rss_mb : float;
  mrt_rss_mb : float;
}

let dump_roundtrip tr ~label ~vantage rib =
  let text = Trace.span tr "mrt.write" (fun () -> Table_dump.rib_to_string ~vantage_as:vantage rib) in
  let parsed = Trace.span tr "mrt.parse" (fun () -> Table_dump.parse_to_rib text) in
  match parsed with
  | Ok parsed -> (parsed, String.length text, (label, rib, parsed))
  | Error e -> failwith (Printf.sprintf "table %s did not parse: %s" label e)

let collector_paths rib =
  Rib.fold
    (fun _ routes acc ->
      List.fold_left
        (fun acc (r : Rpi_bgp.Route.t) -> Rpi_bgp.As_path.to_list r.Rpi_bgp.Route.as_path :: acc)
        acc routes)
    rib []

(* In a traced pass, [measured f] also records [f]'s allocation and peak
   resident set. *)
let measured tr f = if Trace.enabled tr then Mem.measure f else (f (), { Mem.alloc_mw = 0.0; promoted_mw = 0.0 }, 0.0)

(* One sweep over the Looking Glasses of a converged state: per Looking
   Glass, its table, the dump round trip and both inference reports.
   Returns each Looking Glass's latency in ms, and the routes, bytes and
   selectively announced prefixes it saw.  [on_table] gets each table
   with its parse once that Looking Glass's clock has stopped. *)
let lg_sweep w ~tr ~results ~inferred ~origins ~on_table =
  let lg_ms = ref [] and bytes = ref 0 and routes = ref 0 and sa = ref 0 in
  List.iteri
    (fun i lg ->
      let l0 = Clock.now_ns () in
      let entry =
        Trace.span tr ~id:i "lg" (fun () ->
            let rib =
              Trace.span tr "vantage.extract" (fun () ->
                  Vantage.rib_at ~policy:(Policy.default lg) ~vantage:lg results)
            in
            routes := !routes + Rib.route_count rib;
            let parsed, nbytes, entry = dump_roundtrip tr ~label:(Asn.to_string lg) ~vantage:lg rib in
            bytes := !bytes + nbytes;
            let report =
              Trace.span tr "export_infer.analyze" (fun () ->
                  Export_infer.analyze inferred ~provider:lg ~origins parsed)
            in
            sa := !sa + List.length report.Export_infer.sa;
            let (_ : Import_infer.report) =
              Trace.span tr "import_infer.analyze" (fun () ->
                  Import_infer.analyze inferred ~vantage:lg parsed)
            in
            entry)
      in
      lg_ms := (float_of_int (Clock.now_ns () - l0) *. 1e-6) :: !lg_ms;
      on_table entry)
    w.lgs;
  (List.rev !lg_ms, !routes, !bytes, !sa)

(* After each measured untraced pass, [extra_sweeps] more Looking-Glass
   sweeps run on the same converged state, outside [wall_s]: three times
   the per-Looking-Glass samples, whose costs differ by tier, for
   [op_p50_ms] and [op_tail_ms]. *)
let extra_sweeps = 2

let one_pass w ~jobs ~tr ~index =
  let graph = w.topo.Gen.graph in
  let t0 = Clock.now_ns () in
  let tables = ref [] in
  let (results, alloc, propagate_rss_mb, mrt_rss_mb, inferred, origins, collector_routes, collector_bytes),
      (lg_ms, lg_routes, lg_bytes, sa) =
    Trace.span tr ~id:index "pass" (fun () ->
        let network =
          Trace.span tr "engine.prepare" (fun () ->
              Engine.prepare ~graph ~import:(fun _ -> Policy.default_import) ())
        in
        let results, alloc, propagate_rss_mb =
          measured tr (fun () ->
              Trace.span tr "engine.propagate" (fun () ->
                  Engine.propagate_all network ~retain:w.retain ~jobs w.atoms))
        in
        let collector =
          Trace.span tr "vantage.extract" (fun () -> Vantage.collector_rib ~peers:w.feeds results)
        in
        let (parsed_collector, nbytes, entry), _, mrt_rss_mb =
          measured tr (fun () ->
              dump_roundtrip tr ~label:"collector" ~vantage:(Asn.of_int 6447) collector)
        in
        tables := [ entry ];
        let inferred =
          Trace.span tr "gao.infer" (fun () -> Rpi_relinfer.Gao.infer (collector_paths parsed_collector))
        in
        let origins = Export_infer.origins_of_rib parsed_collector in
        let sweep =
          lg_sweep w ~tr ~results ~inferred ~origins ~on_table:(fun e -> tables := e :: !tables)
        in
        ( (results, alloc, propagate_rss_mb, mrt_rss_mb, inferred, origins,
           Rib.route_count collector, nbytes),
          sweep ))
  in
  let wall_s = Clock.seconds_since t0 in
  (* Untimed checks. *)
  let accuracy =
    Rpi_relinfer.Validate.accuracy (Rpi_relinfer.Validate.compare_graphs ~truth:graph ~inferred)
  in
  let gate =
    Gates.first_error
      [
        Gates.all_converged results;
        Gates.tables_roundtrip !tables;
        Gates.accuracy_floor ~floor:accuracy_floor accuracy;
      ]
  in
  tables := [];
  let extra_gate = ref (Ok ()) in
  let extra =
    if index < 0 || Trace.enabled tr then []
    else
      List.concat
        (List.init extra_sweeps (fun _ ->
             let ms, _, _, _ =
               lg_sweep w ~tr ~results ~inferred ~origins ~on_table:(fun e ->
                   extra_gate := Gates.first_error [ !extra_gate; Gates.tables_roundtrip [ e ] ])
             in
             ms))
  in
  {
    wall_s;
    lg_ms = lg_ms @ extra;
    pops = List.fold_left (fun acc (r : Engine.result) -> acc + r.Engine.steps) 0 results;
    routes = collector_routes + lg_routes;
    bytes = collector_bytes + lg_bytes;
    sa_prefixes = sa;
    accuracy;
    gate = Gates.first_error [ gate; !extra_gate ];
    alloc;
    propagate_rss_mb;
    mrt_rss_mb;
  }

let run ?(n = 15000) ~seed ~seconds ~trace () =
  let set_up, setup_s = Clock.sampler (fun () -> setup ~n ~seed) in
  let w = set_up () in
  let between () = for _ = 1 to setups_per_pass do ignore (set_up ()) done in
  let jobs = Rpi_pool.Jobs.default () in
  (* At least 4 measured passes: 168 Looking-Glass samples, 16 beyond the p90. *)
  let warm, untraced, traced =
    Passes.run ~between ~trace ~seconds ~min_untraced:4 (fun ~tr ~index -> one_pass w ~jobs ~tr ~index)
  in
  let gate = Gates.first_error (List.map (fun p -> p.gate) ((warm :: untraced) @ traced)) in
  let med f l = Stats.median (Array.of_list (List.map f l)) in
  let wall = med (fun p -> p.wall_s) untraced in
  let end_to_end =
    if Trace.enabled trace then []
    else
      let lg = Array.of_list (List.concat_map (fun p -> p.lg_ms) untraced) in
      let pct q = match Stats.percentile lg q with Ok v -> v | Error e -> failwith e in
      [
        Metric.v "setup_s" "s" (setup_s ());
        Metric.v "wall_s" "s" wall;
        Metric.v "peak_rss_mb" "MiB" (Mem.peak_rss_mb ());
        Metric.v "op_p50_ms" "ms" (Stats.median lg);
        Metric.v "op_tail_ms" "ms" (pct 0.9);
      ]
  in
  let per_layer =
    match traced with
    | [] -> []
    | p :: _ ->
        let n_traced = float_of_int (List.length traced) in
        let per_pass name = Trace.total_seconds trace name /. n_traced in
        let self name = fst (Trace.self_of trace name) /. n_traced in
        let n_ases = As_graph.as_count w.topo.Gen.graph in
        [
          Metric.v "engine.prepare_s" "s" (per_pass "engine.prepare");
          Metric.v "engine.propagate_s" "s" (per_pass "engine.propagate");
          Metric.v "engine.ns_per_as_atom" "ns"
            (per_pass "engine.propagate" *. 1e9 /. float_of_int (n_ases * List.length w.atoms));
          Metric.v "engine.pops" "count" (float_of_int p.pops);
          Metric.v "engine.alloc_mw" "Mword" p.alloc.Mem.alloc_mw;
          Metric.v "engine.promoted_mw" "Mword" p.alloc.Mem.promoted_mw;
          Metric.v "engine.propagate_rss_mb" "MiB" p.propagate_rss_mb;
          Metric.v "vantage.extract_s" "s" (per_pass "vantage.extract");
          Metric.v "vantage.routes" "count" (float_of_int p.routes);
          Metric.v "mrt.write_s" "s" (per_pass "mrt.write");
          Metric.v "mrt.parse_s" "s" (per_pass "mrt.parse");
          Metric.v "mrt.bytes" "bytes" (float_of_int p.bytes);
          Metric.v "mrt.rss_mb" "MiB" p.mrt_rss_mb;
          Metric.v "gao.infer_s" "s" (per_pass "gao.infer");
          Metric.v "gao.accuracy" "ratio" p.accuracy;
          Metric.v "export_infer.analyze_s" "s" (per_pass "export_infer.analyze");
          Metric.v "export_infer.sa_prefixes" "count" (float_of_int p.sa_prefixes);
          Metric.v "import_infer.analyze_s" "s" (per_pass "import_infer.analyze");
          Metric.v "trace.unattributed_s" "s" (self "pass" +. self "lg");
          Metric.v "trace.overhead_s" "s" (med (fun p -> p.wall_s) traced -. wall);
        ]
  in
  {
    Metric.gate;
    attempted = 1 + List.length untraced + List.length traced;
    failed = 0;
    end_to_end;
    per_layer;
  }
