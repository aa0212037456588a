(* The benchmark's own tests: the percentile rule, metric naming, the
   catalogue against BENCHMARK.json, no metric copying another, and
   every correctness gate failing on a corrupted input. *)

open Perfbench
module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Engine = Rpi_sim.Engine

let () = Serve_ingest.run_client_if_requested ()
let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let is_error = Result.is_error

(* --- percentile rule --- *)

let () =
  let samples n = Array.init n (fun i -> float_of_int (n - i)) in
  check "p95 of 199 samples refused" (is_error (Stats.percentile (samples 199) 0.95));
  check "p95 of 200 samples allowed" (Stats.percentile (samples 200) 0.95 = Ok 190.0);
  check "p99 of 999 samples refused" (is_error (Stats.percentile (samples 999) 0.99));
  check "p99 of 1000 samples is the 990th" (Stats.percentile (samples 1000) 0.99 = Ok 990.0);
  check "p50 of 19 samples refused" (is_error (Stats.percentile (samples 19) 0.5));
  check "empty refused" (is_error (Stats.percentile [||] 0.5));
  check "median of an even count" (Stats.median [| 4.0; 1.0; 3.0; 2.0 |] = 2.5)

(* --- metric names --- *)

let () =
  check "catalogue names are valid"
    (List.for_all
       (fun (n, _) -> Metric.valid_name n)
       (Metric.end_to_end_names @ Metric.per_layer_names));
  List.iter
    (fun bad -> check ("name rejected: " ^ bad) (not (Metric.valid_name bad)))
    [ ""; "_lead"; "has space"; "slash/name"; "p99%"; String.make 65 'a' ];
  check "duplicate metric refused"
    (match Metric.result_line ~correct:true ~attempted:1 ~failed:0 [ Metric.v "a" "s" 1.0; Metric.v "a" "s" 2.0 ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "metric outside the catalogue refused"
    (match Metric.complete Metric.end_to_end_names [ Metric.v "made_up" "s" 1.0 ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- the catalogue is BENCHMARK.json's --- *)

let () =
  let doc =
    match Rpi_json.of_string (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all) with
    | Ok d -> d
    | Error e -> failwith e
  in
  let field k = function Rpi_json.Obj fs -> List.assoc k fs | _ -> failwith k in
  let declared key =
    match field key doc with
    | Rpi_json.List items ->
        List.map
          (fun m ->
            match (field "name" m, field "unit" m) with
            | Rpi_json.String n, Rpi_json.String u -> (n, u)
            | _ -> failwith "name/unit")
          items
    | _ -> failwith key
  in
  check "end-to-end catalogue matches BENCHMARK.json" (declared "end_to_end" = Metric.end_to_end_names);
  check "per-layer catalogue matches BENCHMARK.json" (declared "per_layer" = Metric.per_layer_names)

(* --- identical series: small worlds, two seeds each --- *)

(* Small worlds: a 400-AS paper topology and an 88-AS churn topology;
   serve-ingest runs its own world. *)
let tiny_topology =
  { Rpi_topo.Gen.default_config with n_tier1 = 4; n_tier2 = 8; n_tier3 = 16; n_stub = 60 }

(* Two seeds, each run untraced (end-to-end metrics) and traced
   (per-layer metrics). *)
let runs name run =
  List.map
    (fun seed ->
      let one traced =
        let o = run ~seed ~trace:(Trace.create ~enabled:traced) in
        let what = Printf.sprintf "%s seed %d%s" name seed (if traced then " traced" else "") in
        check (what ^ " passes its gate") (Result.is_ok o.Metric.gate);
        check (what ^ " has no failed operation") (o.Metric.failed = 0);
        o
      in
      (one false, one true))
    [ 1; 2 ]

(* Pairs of distinct metric names whose value series are equal element
   for element: a metric that copies another.  Series of length < 2 are
   ignored (one sample cannot tell a copy from a coincidence). *)
let identical_series series =
  let rec pairs acc = function
    | [] -> List.rev acc
    | (a, xs) :: rest ->
        let acc =
          List.fold_left
            (fun acc (b, ys) ->
              if List.length xs >= 2 && List.equal Float.equal xs ys then (a, b) :: acc
              else acc)
            acc rest
        in
        pairs acc rest
  in
  pairs [] series

let no_copies name rs =
  let collect f =
    let names = List.map (fun m -> m.Metric.name) (f (List.hd rs)) in
    List.map
      (fun n -> (n, List.map (fun r -> (List.find (fun m -> String.equal m.Metric.name n) (f r)).Metric.value) rs))
      names
  in
  let e2e = collect (fun (u, _) -> u.Metric.end_to_end) in
  let layers = collect (fun (_, t) -> t.Metric.per_layer) in
  check (name ^ ": every end-to-end metric") (List.map fst e2e = List.map fst Metric.end_to_end_names);
  check (name ^ ": end-to-end metrics are never 0")
    (List.for_all (fun (_, vs) -> List.for_all (fun v -> v > 0.0) vs) e2e);
  check (name ^ ": traced run reports no end-to-end metric")
    (List.for_all (fun (_, t) -> t.Metric.end_to_end = []) rs);
  (* The per-layer memory figures are independent readings of one
     process-wide high-water mark: in these small worlds no layer grows
     the heap, so they coincide without copying each other. *)
  let layers = List.filter (fun (n, _) -> not (String.ends_with ~suffix:"rss_mb" n)) layers in
  let copies = identical_series (e2e @ layers) in
  List.iter (fun (a, b) -> Printf.printf "  %s copies %s\n" a b) copies;
  check (name ^ ": no two metrics are identical series") (copies = [])

let () =
  no_copies "paper"
    (runs "paper" (fun ~seed ~trace -> Paper.run ~n:400 ~seed ~seconds:0.5 ~trace ()));
  no_copies "churn"
    (runs "churn" (fun ~seed ~trace -> Churn_epochs.run ~topology:tiny_topology ~seed ~seconds:0.0 ~trace ()));
  no_copies "serve"
    (runs "serve" (fun ~seed ~trace -> Serve_ingest.run ~seed ~seconds:2.0 ~trace ()))

(* --- each gate fails on a corrupted input --- *)

let tiny_results () =
  let topo = Rpi_topo.Gen.generate_scaled ~config:(Rpi_topo.Gen.scale_config ~n:200) (Rpi_prng.Prng.create ~seed:3) in
  let net =
    Engine.prepare ~graph:topo.Rpi_topo.Gen.graph ~import:(fun _ -> Rpi_sim.Policy.default_import) ()
  in
  let atoms =
    List.mapi
      (fun i o ->
        Rpi_sim.Atom.vanilla ~id:i ~origin:o
          [ Rpi_net.Prefix.make (Rpi_net.Ipv4.of_octets 10 0 i 0) 24 ])
      (List.filteri (fun i _ -> i < 6) topo.Rpi_topo.Gen.stubs)
  in
  let vantage = List.hd topo.Rpi_topo.Gen.tier1 in
  (Engine.propagate_all net ~retain:(Asn.Set.singleton vantage) atoms, vantage)

let () =
  let results, vantage = tiny_results () in
  (* Table round trip: one dropped route. *)
  let rib = Rpi_sim.Vantage.rib_at ~policy:(Rpi_sim.Policy.default vantage) ~vantage results in
  let parsed = Result.get_ok (Rpi_mrt.Table_dump.parse_to_rib (Rpi_mrt.Table_dump.rib_to_string ~vantage_as:vantage rib)) in
  check "round-trip gate accepts an intact table" (Gates.tables_roundtrip [ ("t", rib, parsed) ] = Ok ());
  let dropped =
    let p = List.hd (Rib.prefixes parsed) in
    match Rib.candidates parsed p with
    | r :: _ -> (
        match r.Rpi_bgp.Route.peer_as with
        | Some peer -> Rib.withdraw ~peer_as:peer p parsed
        | None -> Rib.withdraw_local p parsed)
    | [] -> Rib.remove_routes p parsed
  in
  check "round-trip gate fails on one dropped route" (is_error (Gates.tables_roundtrip [ ("t", rib, dropped) ]));
  let mutated =
    Rib.of_routes
      (List.mapi
         (fun i (r : Rpi_bgp.Route.t) ->
           if i = 0 then { r with Rpi_bgp.Route.local_pref = Some 1 } else r)
         (Rib.all_routes parsed))
  in
  check "round-trip gate fails on one mutated local-pref" (is_error (Gates.tables_roundtrip [ ("t", rib, mutated) ]));
  (* A locally originated route parses back as eBGP with its next hop as
     router id — the two fields TABLE_DUMP has no column for. *)
  let local =
    Rpi_bgp.Route.make ~prefix:(Rpi_net.Prefix.of_string_exn "10.9.0.0/24")
      ~next_hop:(Rpi_net.Ipv4.of_int32_exn 0) ~as_path:Rpi_bgp.As_path.empty ~source:Rpi_bgp.Route.Local
      ~router_id:(Rpi_net.Ipv4.of_octets 10 0 0 1) ()
  in
  let with_local = Rib.add_route local rib in
  let parsed_local =
    Result.get_ok
      (Rpi_mrt.Table_dump.parse_to_rib (Rpi_mrt.Table_dump.rib_to_string ~vantage_as:vantage with_local))
  in
  check "round-trip gate accepts a locally originated route"
    (Gates.tables_roundtrip [ ("t", with_local, parsed_local) ] = Ok ());
  check "round-trip gate fails on a dropped local route"
    (is_error (Gates.tables_roundtrip [ ("t", with_local, parsed) ]));
  (* Convergence. *)
  check "convergence gate accepts converged results" (Gates.all_converged results = Ok ());
  let unconverged = List.mapi (fun i (r : Engine.result) -> if i = 2 then { r with Engine.converged = false } else r) results in
  check "convergence gate fails on one unconverged atom" (is_error (Gates.all_converged unconverged));
  (* Incremental vs batch: one dropped candidate. *)
  check "churn gate accepts equal results" (Gates.results_equal results results = Ok ());
  let corrupted =
    List.mapi
      (fun i (r : Engine.result) ->
        if i <> 1 then r
        else
          {
            r with
            Engine.tables =
              Asn.Map.map
                (fun (t : Engine.table) ->
                  match t.Engine.candidates with
                  | _ :: rest -> { t with Engine.candidates = rest }
                  | [] -> { t with Engine.best = None })
                r.Engine.tables;
          })
      results
  in
  check "churn gate fails on one dropped candidate" (is_error (Gates.results_equal results corrupted));
  check "churn gate fails on a missing atom" (is_error (Gates.results_equal results (List.tl results)));
  (* Served responses: one mutated byte. *)
  let expected = [| "{\"a\":1}"; "{\"b\":2}" |] in
  check "response gate accepts equal bodies" (Gates.responses_equal ~expected ~got:(Array.copy expected) = Ok ());
  let got = Array.copy expected in
  got.(1) <- String.mapi (fun i c -> if i = 5 then '3' else c) got.(1);
  check "response gate fails on one mutated byte" (is_error (Gates.responses_equal ~expected ~got));
  check "serve gate fails on one shed" (is_error (Gates.serve_clean ~errors:0 ~sheds:1 ~timeouts:0));
  check "serve gate fails on one timeout" (is_error (Gates.serve_clean ~errors:0 ~sheds:0 ~timeouts:1));
  check "accuracy gate fails below its floor" (is_error (Gates.accuracy_floor ~floor:0.6 0.59))

let () =
  if !failures > 0 then begin
    Printf.printf "%d checks failed\n" !failures;
    exit 1
  end
