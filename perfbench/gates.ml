module Engine = Rpi_sim.Engine
module Rib = Rpi_bgp.Rib
module Asn = Rpi_bgp.Asn
module Route = Rpi_bgp.Route

let first_error = List.fold_left (fun acc r -> match acc with Error _ -> acc | Ok () -> r) (Ok ())

let all_converged results =
  match List.find_opt (fun (r : Engine.result) -> not r.Engine.converged) results with
  | None -> Ok ()
  | Some r -> Error (Printf.sprintf "atom %d did not converge" r.Engine.atom.Rpi_sim.Atom.id)

(* TABLE_DUMP has no column for a route's source or router id: a parsed
   route is eBGP with its next hop as router id.  A locally originated
   route therefore comes back with exactly those two fields rewritten;
   every other field, and every field of every other route, must match. *)
let as_dumped (r : Route.t) =
  match r.Route.source with
  | Route.Local -> { r with Route.source = Route.Ebgp; router_id = r.Route.next_hop }
  | Route.Ebgp | Route.Ibgp -> r

let tables_roundtrip tables =
  let intact (_, src, parsed) =
    Rib.equal (Rib.of_routes (List.map as_dumped (Rib.all_routes src))) parsed
  in
  match List.find_opt (fun t -> not (intact t)) tables with
  | None -> Ok ()
  | Some (label, src, parsed) ->
      Error
        (Printf.sprintf "table %s did not round-trip (%d routes written, %d parsed)" label
           (Rib.route_count src) (Rib.route_count parsed))

let accuracy_floor ~floor acc =
  if acc >= floor then Ok ()
  else Error (Printf.sprintf "relationship accuracy %.4f below floor %.4f" acc floor)

let table_equal (ta : Engine.table) (tb : Engine.table) =
  ta.Engine.best = tb.Engine.best && ta.Engine.candidates = tb.Engine.candidates

let results_equal inc batch =
  let rec go = function
    | [], [] -> Ok ()
    | [], _ :: _ | _ :: _, [] ->
        Error
          (Printf.sprintf "%d incremental results vs %d batch results" (List.length inc)
             (List.length batch))
    | (x : Engine.result) :: xs, (y : Engine.result) :: ys ->
        let id = x.Engine.atom.Rpi_sim.Atom.id in
        if not (Rpi_sim.Atom.equal x.Engine.atom y.Engine.atom) then
          Error (Printf.sprintf "atom %d differs from batch atom %d" id y.Engine.atom.Rpi_sim.Atom.id)
        else if x.Engine.converged <> y.Engine.converged then
          Error (Printf.sprintf "atom %d: converged %b (incremental) vs %b (batch)" id
                   x.Engine.converged y.Engine.converged)
        else if not (Asn.Map.equal table_equal x.Engine.tables y.Engine.tables) then
          Error (Printf.sprintf "atom %d: tables differ from the batch solve" id)
        else go (xs, ys)
  in
  go (inc, batch)

let serve_clean ~errors ~sheds ~timeouts =
  if errors = 0 && sheds = 0 && timeouts = 0 then Ok ()
  else Error (Printf.sprintf "%d protocol errors, %d sheds, %d timeouts" errors sheds timeouts)

let responses_equal ~expected ~got =
  if Array.length expected <> Array.length got then
    Error (Printf.sprintf "%d responses for %d requests" (Array.length got) (Array.length expected))
  else
    let rec go i =
      if i = Array.length expected then Ok ()
      else if String.equal expected.(i) got.(i) then go (i + 1)
      else Error (Printf.sprintf "response %d differs from Registry.respond_rendered" i)
    in
    go 0
