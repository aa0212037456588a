module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Update = Rpi_bgp.Update
module Prng = Rpi_prng.Prng
module Scenario = Rpi_dataset.Scenario
module IState = Rpi_ingest.State
module Replay = Rpi_serve.Replay
module Registry = Rpi_serve.Registry
module Server = Rpi_serve.Server
module Protocol = Rpi_serve.Protocol

(* Replay epochs planned and applied during set-up, set-ups per run
   ([setup_s] is their median), distinct pre-rendered requests, and
   requests per pipelined burst. *)
let plan_epochs = 8
let presteps = 4
let setups = 5
let mix = 2048
let burst = 16384

let conns = 2
let feed_period_ms = 50.0

(* Requests in flight per connection: the closed loop beside the feeder
   (2 x 16 callers, each waiting for its reply) and the bursts. *)
let load_depth = 16
let burst_depth = 64

(* Share of the run spent in the closed loop; bursts fill the rest. *)
let load_share = 0.75

(* Latency samples per window: the reported latencies are medians over
   windows, so a few seconds of VM noise move a few windows only. *)
let window = 20_000

(* --- set-up --- *)

(* The served world is the daemon's built-in replay (scenario seed 42);
   the seed drives the request mix and the flapped route. *)
let setup () =
  let plan = Replay.plan ~config:Scenario.small_config ~epochs:plan_epochs () in
  let stepped = ref 0 in
  while !stepped < presteps && Replay.step plan do
    incr stepped
  done;
  plan

let request_mix ~seed ~n registry =
  let rng = Prng.create ~seed:(seed + 7919) in
  let prefixes = Rib.prefixes (IState.rib registry.Registry.collector) in
  let vantages = List.map fst registry.Registry.vantages in
  Array.init n (fun _ ->
      let v = Prng.choice_list rng vantages in
      let r = Prng.float rng 1.0 in
      if r < 0.70 then Protocol.Sa_status { asn = v; prefix = Some (Prng.choice_list rng prefixes) }
      else if r < 0.85 then Protocol.Sa_status { asn = v; prefix = None }
      else if r < 0.95 then Protocol.Import_pref v
      else Protocol.Stats)

(* --- the frame client --- *)

(* One client connection: a read buffer and a ring of the send times
   (ns) and ids of the requests in flight, answered in order. *)
type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  sent_at : int array;
  ids : int array;
  mutable head : int;
  mutable tail : int;
}

let ring = 1 lsl 16

let open_conn address =
  {
    fd = Server.connect address;
    buf = Bytes.create (1 lsl 20);
    pos = 0;
    len = 0;
    sent_at = Array.make ring 0;
    ids = Array.make ring 0;
    head = 0;
    tail = 0;
  }

let in_flight c = c.tail - c.head

let push c ~at ~id =
  if in_flight c >= ring then failwith "more than 65536 requests in flight";
  c.sent_at.(c.tail land (ring - 1)) <- at;
  c.ids.(c.tail land (ring - 1)) <- id;
  c.tail <- c.tail + 1

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* Read what the socket holds, then hand every complete frame's body to
   [on_frame c body] through {!Protocol.decode}.  Raises [Failure] on a
   malformed frame or a closed connection. *)
let receive_frames c on_frame =
  if c.pos > 0 then begin
    Bytes.blit c.buf c.pos c.buf 0 (c.len - c.pos);
    c.len <- c.len - c.pos;
    c.pos <- 0
  end;
  if c.len = Bytes.length c.buf then c.buf <- Bytes.extend c.buf 0 c.len;
  let n = Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) in
  if n = 0 then failwith "server closed the connection";
  c.len <- c.len + n;
  let rec next () =
    match Protocol.decode c.buf ~pos:c.pos ~len:(c.len - c.pos) with
    | `Frame (body, consumed) ->
        c.pos <- c.pos + consumed;
        on_frame c body;
        next ()
    | `Need_more -> ()
    | `Bad e -> failwith ("bad frame from the server: " ^ e)
  in
  next ()

(* Wait up to [timeout_s] for responses and hand each complete frame to
   [on_frame]. *)
let poll conns ~timeout_s on_frame =
  let fds = List.filter_map (fun c -> if in_flight c > 0 then Some c.fd else None) conns in
  if fds <> [] then begin
    let ready, _, _ = Unix.select fds [] [] timeout_s in
    List.iter
      (fun c ->
        if List.memq c.fd ready then receive_frames c on_frame)
      conns
  end

(* --- the closed loop --- *)

(* Latency samples of a closed loop: [lat_us] in answer order (at most
   [samples]); [sent_ns]/[answered_ns] for the first [span_samples] of
   them, so a traced run can show them as spans. *)
type loop = {
  lat_us : float array;
  sent_ns : int array;
  answered_ns : int array;
  sent : int;
  answered : int;
  errors : int;
  timeouts : int;
}

let span_samples = 20_000

(* Keep [depth] requests in flight on each connection, refilling after
   every read, until [stop sent]; then wait up to 5 s for the
   stragglers.  Each request is timed from being sent to being answered;
   the first [samples] latencies are kept. *)
let closed_loop ?(tr = Trace.create ~enabled:false) ~samples conns frames ~depth ~stop =
  let lat_us = Array.make samples 0.0 in
  let spans = min samples span_samples in
  let sent_ns = Array.make spans 0 and answered_ns = Array.make spans 0 in
  let answered = ref 0 and errors = ref 0 and sent = ref 0 in
  let on_frame c body =
    let slot = c.head land (ring - 1) in
    let id = c.ids.(slot) and t = c.sent_at.(slot) in
    c.head <- c.head + 1;
    let now = Clock.now_ns () in
    if !answered < samples then lat_us.(!answered) <- float_of_int (now - t) *. 1e-3;
    if id < spans then begin
      sent_ns.(id) <- t;
      answered_ns.(id) <- now
    end;
    Trace.add tr ~id "request" ~start_ns:t ~stop_ns:now;
    if String.starts_with ~prefix:"{\"error\"" body then incr errors;
    incr answered
  in
  let n_frames = Array.length frames in
  while not (stop !sent) do
    List.iter
      (fun c ->
        let now = Clock.now_ns () in
        while in_flight c < depth && not (stop !sent) do
          push c ~at:now ~id:!sent;
          write_all c.fd frames.(!sent mod n_frames);
          incr sent
        done)
      conns;
    poll conns ~timeout_s:1.0 on_frame
  done;
  let deadline = Clock.now_ns () + 5_000_000_000 in
  while !answered < !sent && Clock.now_ns () < deadline do
    poll conns ~timeout_s:0.05 on_frame
  done;
  {
    lat_us = Array.sub lat_us 0 (min samples !answered);
    sent_ns = Array.sub sent_ns 0 (min spans !answered);
    answered_ns = Array.sub answered_ns 0 (min spans !answered);
    sent = !sent;
    answered = !answered;
    errors = !errors;
    timeouts = !sent - !answered;
  }

(* --- the feeder --- *)

type feed = {
  fresh_ms : float list;  (* per ingest event, from due to published *)
  step_ms : float list;
  publish_ms : float list;
}

let feeder ~tr plan ~period_ms ~stop ~flap =
  let registry = Replay.registry plan in
  let collector = registry.Registry.collector in
  let fresh = ref [] and steps = ref [] and publishes = ref [] in
  let publish () =
    let s, () = Clock.timed (fun () -> Trace.span tr "registry.publish" (fun () -> Registry.publish registry)) in
    publishes := (1e3 *. s) :: !publishes
  in
  let start = Clock.now_ns () in
  let k = ref 0 in
  while not (Atomic.get stop) do
    let due = start + int_of_float (float_of_int !k *. period_ms *. 1e6) in
    let wait = float_of_int (due - Clock.now_ns ()) *. 1e-9 in
    if wait > 0.0 then Unix.sleepf (Float.min wait 0.02)
    else begin
      Trace.span tr ~id:!k "ingest" (fun () ->
          let s, stepped = Clock.timed (fun () -> Trace.span tr "replay.step" (fun () -> Replay.step plan)) in
          if stepped then steps := (1e3 *. s) :: !steps
          else begin
            match flap with
            | None -> ()
            | Some (p, r, peer) ->
                Trace.span tr "state.apply" (fun () ->
                    IState.apply collector (Update.withdraw ~from_as:peer ~to_as:Replay.collector_label p));
                publish ();
                Trace.span tr "state.apply" (fun () ->
                    IState.apply collector (Update.announce ~from_as:peer ~to_as:Replay.collector_label r));
                publish ()
          end);
      fresh := (float_of_int (Clock.now_ns () - due) *. 1e-6) :: !fresh;
      incr k
    end
  done;
  { fresh_ms = !fresh; step_ms = !steps; publish_ms = !publishes }

let flap_route ~seed registry =
  let rib = IState.rib registry.Registry.collector in
  let rng = Prng.create ~seed:(seed + 104729) in
  let candidates =
    List.filter_map
      (fun p ->
        match Rib.best rib p with
        | Some ({ Rpi_bgp.Route.peer_as = Some peer; _ } as r) -> Some (p, r, peer)
        | Some _ | None -> None)
      (Rib.prefixes rib)
  in
  match candidates with [] -> None | l -> Some (Prng.choice_list rng l)

(* --- untimed check and timed bursts --- *)

(* Answer every request of [reqs] on [c], [depth] in flight; returns the
   bodies in order. *)
let fetch_all c frames ~depth =
  let n = Array.length frames in
  let out = Array.make n "" in
  let got = ref 0 in
  let on_frame c body =
    let id = c.ids.(c.head land (ring - 1)) in
    c.head <- c.head + 1;
    out.(id) <- body;
    incr got
  in
  let next = ref 0 in
  while !got < n do
    while !next < n && in_flight c < depth do
      push c ~at:0 ~id:!next;
      write_all c.fd frames.(!next);
      incr next
    done;
    poll [ c ] ~timeout_s:1.0 on_frame
  done;
  out

let counters_sum registry =
  List.fold_left
    (fun (rec_, upd) st ->
      let c = IState.counters st in
      (rec_ + c.IState.prefixes_recomputed, upd + c.IState.updates_applied))
    (0, 0)
    (registry.Registry.collector :: List.map snd registry.Registry.vantages)

(* The socket lives in the build tree of the checkout the benchmark runs
   from (the working directory itself when there is none). *)
let socket_path () =
  let dir =
    if Sys.file_exists "_build" then begin
      let d = Filename.concat "_build" "perfbench" in
      if not (Sys.file_exists d) then Sys.mkdir d 0o755;
      d
    end
    else Filename.current_dir_name
  in
  Filename.concat dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))

(* --- the load-generating client process --- *)

(* The client runs in a separate process of the same executable, as a
   remote client would: its scheduling and allocation stay out of the
   server's stop-the-world collections.  The parent sends jobs on the
   child's stdin and reads results from its stdout. *)

type load_job = { socket : string; job_frames : string array; load_seconds : float }
type burst_job = { burst_seconds : float; burst_size : int; burst_traced : bool }

type bursts = {
  untraced_s : float list;
  traced_s : float list;
  burst_errors : int;
  burst_timeouts : int;
  burst_unattributed_s : float;  (* mean self time of a traced burst span *)
  burst_requests : int;
}

let client_flag = "--serve-client"

let send oc v =
  Marshal.to_channel oc v [];
  flush oc

let client_main () =
  let job : load_job = Marshal.from_channel stdin in
  let conns = List.init conns (fun _ -> open_conn (Server.Unix_socket job.socket)) in
  let stop_at = Clock.now_ns () + int_of_float (job.load_seconds *. 1e9) in
  let loop =
    closed_loop ~samples:2_000_000 conns job.job_frames ~depth:load_depth
      ~stop:(fun _ -> Clock.now_ns () >= stop_at)
  in
  send stdout (loop : loop);
  let bj : burst_job = Marshal.from_channel stdin in
  let trace = Trace.create ~enabled:bj.burst_traced in
  let burst ~tr ~index =
    Clock.timed (fun () ->
        Trace.span tr ~id:index "burst" (fun () ->
            closed_loop ~tr ~samples:0 conns job.job_frames ~depth:burst_depth
              ~stop:(fun sent -> sent >= bj.burst_size)))
  in
  let warm, untraced, traced = Passes.run ~trace ~seconds:bj.burst_seconds ~min_untraced:3 burst in
  let all = (warm :: untraced) @ traced in
  let self_s, n_spans = Trace.self_of trace "burst" in
  send stdout
    {
      untraced_s = List.map fst untraced;
      traced_s = List.map fst traced;
      burst_errors = List.fold_left (fun acc (_, l) -> acc + l.errors) 0 all;
      burst_timeouts = List.fold_left (fun acc (_, l) -> acc + l.timeouts) 0 all;
      burst_unattributed_s = self_s /. float_of_int (max 1 n_spans);
      burst_requests = List.fold_left (fun acc (_, l) -> acc + l.sent) 0 all;
    };
  List.iter (fun c -> Unix.close c.fd) conns;
  exit 0

let run_client_if_requested () =
  if Array.length Sys.argv = 2 && String.equal Sys.argv.(1) client_flag then client_main ()

type client = { pid : int; to_child : out_channel; from_child : in_channel }

let spawn_client () =
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name [| Sys.executable_name; client_flag |] child_in
      child_out Unix.stderr
  in
  Unix.close child_in;
  Unix.close child_out;
  { pid; to_child = Unix.out_channel_of_descr to_child; from_child = Unix.in_channel_of_descr from_child }

let receive c what =
  try Marshal.from_channel c.from_child
  with End_of_file | Failure _ -> failwith ("load generator exited before sending its " ^ what)

(* Close the pipes and wait for the child; [Error] unless it exited 0. *)
let reap c =
  close_out_noerr c.to_child;
  close_in_noerr c.from_child;
  match Unix.waitpid [] c.pid with
  | _, Unix.WEXITED 0 -> Ok ()
  | _, (Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Error (Printf.sprintf "load generator exited with status %d" n)

let run ~seed ~seconds ~trace () =
  let setup_s, plan = Clock.timed_median setups setup in
  let registry = Replay.registry plan in
  let reqs = request_mix ~seed ~n:mix registry in
  let frames =
    Array.map (fun r -> Protocol.frame_of_body (Rpi_json.to_string (Protocol.request_to_json r))) reqs
  in
  let flap = flap_route ~seed registry in
  let socket = socket_path () in
  let address = Server.Unix_socket socket in
  let server = Server.create ~address registry in
  let server_dom = Domain.spawn (fun () -> Server.serve ~jobs:1 server) in
  let client = spawn_client () in
  let reaped = ref None in
  let finish_client () =
    match !reaped with
    | Some r -> r
    | None ->
        let r = reap client in
        reaped := Some r;
        r
  in
  Fun.protect
    ~finally:(fun () ->
      if !reaped = None then begin
        (try Unix.kill client.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (finish_client ())
      end;
      Server.shutdown server;
      Domain.join server_dom;
      Server.close server)
    (fun () ->
      let t_start = Clock.now_ns () in
      (* Phase 1: the client's closed loop beside the feeder. *)
      let rec0, upd0 = counters_sum registry in
      let stop = Atomic.make false in
      let feeder_dom =
        Domain.spawn (fun () -> feeder ~tr:trace plan ~period_ms:feed_period_ms ~stop ~flap)
      in
      let loop =
        Fun.protect
          ~finally:(fun () -> Atomic.set stop true)
          (fun () ->
            send client.to_child { socket; job_frames = frames; load_seconds = seconds *. load_share };
            (receive client "closed-loop samples" : loop))
      in
      let feed = Domain.join feeder_dom in
      let rec1, upd1 = counters_sum registry in
      Array.iteri
        (fun id start_ns -> Trace.add trace ~id "query" ~start_ns ~stop_ns:loop.answered_ns.(id))
        loop.sent_ns;
      (* Phase 2 (untimed): the served answers equal the in-process
         rendering of the final snapshot. *)
      let expected = Array.map (fun r -> fst (Registry.respond_rendered registry r)) reqs in
      let got =
        let c = open_conn address in
        Fun.protect ~finally:(fun () -> Unix.close c.fd) (fun () -> fetch_all c frames ~depth:64)
      in
      (* Phase 3: the client's pipelined bursts for the rest of the run. *)
      send client.to_child
        {
          burst_seconds = seconds -. Clock.seconds_since t_start;
          burst_size = burst;
          burst_traced = Trace.enabled trace;
        };
      let bursts : bursts = receive client "burst timings" in
      let client_status = finish_client () in
      let m = Server.metrics server in
      let failed = loop.errors + loop.timeouts + bursts.burst_errors + bursts.burst_timeouts in
      let gate =
        Gates.first_error
          [
            client_status;
            Gates.serve_clean ~errors:(m.Server.errors + loop.errors + bursts.burst_errors)
              ~sheds:m.Server.sheds ~timeouts:(loop.timeouts + bursts.burst_timeouts);
            Gates.responses_equal ~expected ~got;
          ]
      in
      let pct a q = match Stats.percentile a q with Ok v -> v | Error e -> failwith e in
      (* Per-window p50 and p90, then the median over windows.  The tail
         is a p90: a window's p99 is set by a handful of multi-millisecond
         VM stalls and swings several-fold from run to run; the run's p99
         is the per-layer server.query_p99_us. *)
      let per_window q =
        let n = max 1 (Array.length loop.lat_us / window) in
        let len = min window (Array.length loop.lat_us) in
        Stats.median (Array.init n (fun i -> pct (Array.sub loop.lat_us (i * window) len) q))
      in
      let median_l l = if l = [] then 0.0 else Stats.median (Array.of_list l) in
      let wall = median_l bursts.untraced_s in
      let end_to_end =
        if Trace.enabled trace then []
        else
          [
            Metric.v "setup_s" "s" setup_s;
            Metric.v "wall_s" "s" wall;
            Metric.v "peak_rss_mb" "MiB" (Mem.peak_rss_mb ());
            Metric.v "op_p50_ms" "ms" (1e-3 *. per_window 0.5);
            Metric.v "op_tail_ms" "ms" (1e-3 *. per_window 0.9);
          ]
      in
      let per_layer =
        if not (Trace.enabled trace) then []
        else
          let respond_us =
            Stats.median
              (Array.init 5 (fun _ ->
                   let s, () =
                     Clock.timed (fun () ->
                         Array.iter (fun r -> ignore (Registry.respond_rendered registry r)) reqs)
                   in
                   1e6 *. s /. float_of_int (Array.length reqs)))
          in
          let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
          [
            Metric.v "replay.step_ms" "ms" (mean feed.step_ms);
            Metric.v "registry.publish_ms" "ms" (median_l feed.publish_ms);
            Metric.v "state.prefixes_recomputed" "count" (float_of_int (rec1 - rec0));
            Metric.v "state.updates_applied" "count" (float_of_int (upd1 - upd0));
            Metric.v "serve.fresh_p50_ms" "ms" (median_l feed.fresh_ms);
            Metric.v "registry.respond_us" "us" respond_us;
            Metric.v "server.busy_s" "s" m.Server.busy_s;
            Metric.v "server.requests" "count" (float_of_int m.Server.requests);
            Metric.v "server.query_p99_us" "us" (pct loop.lat_us 0.99);
            Metric.v "trace.unattributed_s" "s" bursts.burst_unattributed_s;
            Metric.v "trace.overhead_s" "s" (median_l bursts.traced_s -. wall);
          ]
      in
      {
        Metric.gate;
        attempted = loop.sent + Array.length frames + bursts.burst_requests;
        failed;
        end_to_end;
        per_layer;
      })
