type span = {
  sid : int;
  name : string;
  start_ns : int;
  stop_ns : int;
  parent : int;  (* sid, or -1 for a root *)
  id : int;  (* epoch / request id, or -1 *)
  tid : int;
}

type t = {
  enabled : bool;
  lock : Mutex.t;
  next_sid : int Atomic.t;
  (* Mutated only under [lock]; spans from several domains land here. *)
  mutable spans : span list;
  (* Per-domain stack of open span ids: the parent of a new span. *)
  open_ : int list Domain.DLS.key;
}

let create ~enabled =
  {
    enabled;
    lock = Mutex.create ();
    next_sid = Atomic.make 0;
    spans = [];
    open_ = Domain.DLS.new_key (fun () -> []);
  }

let enabled t = t.enabled

let push t s = Mutex.protect t.lock (fun () -> t.spans <- s :: t.spans)

let parent_of t = match Domain.DLS.get t.open_ with p :: _ -> p | [] -> -1

let span t ?(id = -1) name f =
  if not t.enabled then f ()
  else begin
    let sid = Atomic.fetch_and_add t.next_sid 1 in
    let parent = parent_of t in
    let stack = Domain.DLS.get t.open_ in
    Domain.DLS.set t.open_ (sid :: stack);
    let start_ns = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let stop_ns = Clock.now_ns () in
        Domain.DLS.set t.open_ stack;
        push t
          { sid; name; start_ns; stop_ns; parent; id; tid = (Domain.self () :> int) })
      f
  end

let add t ?(id = -1) name ~start_ns ~stop_ns =
  if t.enabled then
    push t
      {
        sid = Atomic.fetch_and_add t.next_sid 1;
        name;
        start_ns;
        stop_ns;
        parent = parent_of t;
        id;
        tid = (Domain.self () :> int);
      }

let spans t = Mutex.protect t.lock (fun () -> t.spans)
let count t = List.length (spans t)
let dur s = s.stop_ns - s.start_ns

(* Length of the union of [(start, stop)] intervals: pipelined child
   requests overlap, and a parent's covered time must not count twice. *)
let covered_ns intervals =
  let sorted = List.sort compare intervals in
  let rec go acc cur_start cur_stop = function
    | [] -> acc + (cur_stop - cur_start)
    | (a, b) :: rest ->
        if a > cur_stop then go (acc + (cur_stop - cur_start)) a b rest
        else go acc cur_start (max cur_stop b) rest
  in
  match sorted with [] -> 0 | (a, b) :: rest -> go 0 a b rest

let self_seconds t =
  let all = spans t in
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.stop_ns) :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    all;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.sid) in
      let self = dur s - covered_ns kids in
      let ns, n = Option.value ~default:(0, 0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (ns + self, n + 1))
    all;
  Hashtbl.fold (fun name (ns, n) acc -> (name, float_of_int ns *. 1e-9, n) :: acc) by_name []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let total_seconds t name =
  List.fold_left
    (fun acc s -> if String.equal s.name name then acc +. (float_of_int (dur s) *. 1e-9) else acc)
    0.0 (spans t)

let write_chrome t path =
  let all = List.rev (spans t) in
  let t0 = List.fold_left (fun acc s -> min acc s.start_ns) max_int all in
  let us ns = Rpi_json.Float (float_of_int ns /. 1e3) in
  let event s =
    Rpi_json.Obj
      [
        ("name", Rpi_json.String s.name);
        ("ph", Rpi_json.String "X");
        ("ts", us (s.start_ns - t0));
        ("dur", us (dur s));
        ("pid", Rpi_json.Int 1);
        ("tid", Rpi_json.Int s.tid);
        ( "args",
          Rpi_json.Obj
            [ ("span", Rpi_json.Int s.sid); ("parent", Rpi_json.Int s.parent); ("id", Rpi_json.Int s.id) ]
        );
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      Rpi_json.to_channel oc
        (Rpi_json.Obj
           [ ("traceEvents", Rpi_json.List (List.map event all)); ("displayTimeUnit", Rpi_json.String "ms") ]))

let self_of t name =
  match List.find_opt (fun (n, _, _) -> String.equal n name) (self_seconds t) with
  | Some (_, s, k) -> (s, k)
  | None -> (0.0, 0)
