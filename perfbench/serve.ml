(* The serve stream: qnet_serve runs as a child process on loopback and this
   process is the single load generator. One sender thread replays a
   multi-tenant Replay.plan stream at a fixed offered rate, open loop;
   one poller thread reads every tenant's posterior on a fixed cadence.
   The daemon has its own process so the generator never holds the
   OCaml runtime lock its shard threads need. *)

module Replay = Qnet_des.Replay
module Jsonx = Qnet_obs.Jsonx

let now = Unix.gettimeofday

(* The daemon's answers and the replay lines are one-line objects
   written by Jsonx. *)
let parse s = Result.to_option (Jsonx.parse_object s)
let num = function Some (Jsonx.Num f) -> Some f | _ -> None

(* ------------------------------------------------------------------ *)
(* The daemon as a child process                                       *)

type daemon = { pid : int; port : int; dir : string }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
      (* /proc files report no length, so read to end of file *)
      let s = In_channel.input_all ic in
      close_in ic;
      s

let listening_port log =
  let marker = "listening on http://127.0.0.1:" in
  let text = read_file log in
  let ml = String.length marker in
  let rec find i =
    if i + ml > String.length text then None
    else if String.sub text i ml = marker then begin
      let j = ref (i + ml) in
      while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub text (i + ml) (!j - i - ml))
    end
    else find (i + 1)
  in
  find 0

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Stop gracefully (SIGTERM: drain + final checkpoint), then hard. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 30.0 in
  while (not (exited d.pid)) && now () < deadline do Thread.delay 0.02 done;
  if not (exited d.pid) then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] d.pid)
  end;
  rm_rf d.dir

let live : daemon option ref = ref None

let () = at_exit (fun () -> Option.iter stop !live)

let start ~exe ~dir ~seed =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let log = Filename.concat dir "serve.log" in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let args =
    [| exe; "--shards"; "2"; "--queues"; string_of_int Fixture.num_queues;
       "--host"; "127.0.0.1"; "--port"; "0"; "--seed"; string_of_int seed;
       "--data-dir"; Filename.concat dir "data"; "--no-dead-letter" |]
  in
  let pid = Unix.create_process exe args null null err in
  Unix.close err;
  Unix.close null;
  let deadline = now () +. 30.0 in
  let rec wait () =
    match listening_port log with
    | Some port -> Ok { pid; port; dir }
    | None when exited pid -> Error ("qnet_serve exited at start: " ^ read_file log)
    | None when now () > deadline ->
        stop { pid; port = 0; dir };
        Error "qnet_serve did not start listening within 30 s"
    | None -> Thread.delay 0.01; wait ()
  in
  let d = wait () in
  (match d with Ok d -> live := Some d | Error _ -> ());
  d

let stop_live () =
  Option.iter stop !live;
  live := None

let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  List.find_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] ->
          Option.map
            (fun kb -> kb /. 1024.0)
            (float_of_string_opt (List.hd (String.split_on_char ' ' (String.trim v))))
      | _ -> None)
    (String.split_on_char '\n' status)
  |> Option.value ~default:nan

(* ------------------------------------------------------------------ *)
(* The stream                                                          *)

(* Offered load, below what two shards refit at on a two-core host, so
   admission sampling never engages and latencies measure the serving
   path rather than the overload policy. *)
let offered_rate = 120.0 (* events per second *)
let batch_events = 12
let poll_interval = 0.05
let drain_grace = 20.0

(* Length of the measured send window. *)
let window = 15.0

type batch = { body : string; tenants_in : string list }

(* Before the measured window every tenant is brought to just under the
   shard's buffer cap, so the window measures steady-state serving and
   every tenant crosses the cap (the buffer-cap path) inside it. *)
let preload_per_tenant = Fixture.shard_cap - 300
let preload_batch = 600

let batch_of (items : Replay.item array) =
  let tenant_of line =
    (* the replay line is {"tenant":"tK",...} *)
    match Option.bind (parse line) (List.assoc_opt "tenant") with
    | Some (Jsonx.Str t) -> t
    | _ -> ""
  in
  let lines = Array.to_list (Array.map (fun i -> i.Replay.line) items) in
  {
    body = String.concat "\n" lines ^ "\n";
    tenants_in = List.sort_uniq compare (List.map tenant_of lines);
  }

let chunks items size =
  Array.init (Array.length items / size) (fun b -> batch_of (Array.sub items (b * size) size))

(* (preload batches, measured batches) from one seeded replay plan. *)
let plan ~seed ~seconds =
  let pre = preload_per_tenant * Fixture.tenants in
  let window = int_of_float (offered_rate *. seconds) + batch_events in
  (* a task emits 4 events; simulate enough tasks for both phases *)
  let trace = Fixture.simulate ~seed ~tasks:(((pre + window) / 4) + 64) in
  let items = Array.of_list (Replay.plan ~tenants:Fixture.tenants trace) in
  (chunks (Array.sub items 0 pre) preload_batch, chunks (Array.sub items pre window) batch_events)

let tenant_keys = List.init Fixture.tenants (fun k -> Replay.tenant_key ~tenants:Fixture.tenants k)

(* ------------------------------------------------------------------ *)
(* Sender and poller                                                   *)

type sent = {
  due : float;
  started : float;
  done_ : float;
  code : int;  (** 0 for a transport error *)
  accepted : int;  (** events queued: not sampled out, shed or quarantined *)
}

type poll = {
  at : float;
  tenant : string;
  pcode : int;
  ready : bool;
  fitted_at : float;
  sampling_fraction : float;
  full : bool;  (** served from a full supervised fit, not stale *)
}

let send_all ~port ~t0 batches =
  let interval = float_of_int batch_events /. offered_rate in
  Array.mapi
    (fun i b ->
      let due = t0 +. (float_of_int i *. interval) in
      let wait = due -. now () in
      if wait > 0.0 then Thread.delay wait;
      let started = now () in
      let r =
        Spans.record ~layer:"serve" "POST /ingest" (fun () ->
            Http.call ~port ~meth:"POST" ~path:"/ingest" ~body:b.body ())
      in
      let done_ = now () in
      let code, accepted =
        match r with
        | Error _ -> (0, 0)
        | Ok r ->
            ( r.Http.code,
              Option.bind (parse r.Http.body) (fun v -> num (List.assoc_opt "accepted" v))
              |> Option.fold ~none:0 ~some:int_of_float )
      in
      { due; started; done_; code; accepted })
    batches

let poll_once ~port tenant =
  let get () =
    Http.call ~port ~meth:"GET" ~path:(Printf.sprintf "/tenants/%s/posterior.json" tenant) ()
  in
  match Spans.record ~layer:"serve" "GET posterior.json" get with
  | Error _ ->
      { at = now (); tenant; pcode = 0; ready = false; fitted_at = nan; sampling_fraction = nan; full = false }
  | Ok r ->
      let at = now () in
      let v = parse r.Http.body in
      let get_num k = Option.bind v (fun v -> num (List.assoc_opt k v)) in
      let get_str k = Option.bind v (fun v -> match List.assoc_opt k v with Some (Jsonx.Str s) -> Some s | _ -> None) in
      let ready = Option.bind v (List.assoc_opt "ready") = Some (Jsonx.Bool true) in
      {
        at;
        tenant;
        pcode = r.Http.code;
        ready;
        fitted_at = Option.value ~default:nan (get_num "fitted_at");
        sampling_fraction = Option.value ~default:nan (get_num "sampling_fraction");
        full =
          ready && get_str "level" = Some "full"
          && Option.bind v (List.assoc_opt "stale") = Some (Jsonx.Bool false);
      }

let shard_state ~port =
  match Http.call ~port ~meth:"GET" ~path:"/shards.json" () with
  | Ok r when r.Http.code = 200 -> parse r.Http.body
  | _ -> None

let shard_list v =
  match List.assoc_opt "shards" v with
  | Some (Jsonx.Arr l) -> List.filter_map (function Jsonx.Obj s -> Some s | _ -> None) l
  | _ -> []

let max_depth v =
  List.fold_left
    (fun acc s -> Float.max acc (Option.value ~default:0.0 (num (List.assoc_opt "queue_depth" s))))
    0.0 (shard_list v)

let all_full v =
  List.for_all
    (fun s ->
      List.assoc_opt "level" s = Some (Jsonx.Str "full")
      && List.assoc_opt "status" s = Some (Jsonx.Str "healthy"))
    (shard_list v)

(* Send the preload as fast as the shards drain it, keeping every shard
   queue below admission's high watermark so it never starts sampling
   (a shard absorbs at most 256 queued events per round), then
   wait until the daemon is settled: queues empty, shards healthy at
   full fits, every tenant fitted after the last preload batch. *)
let preload ~port batches =
  let t0 = now () in
  let deadline = t0 +. 120.0 in
  let check () = if now () > deadline then failwith "preload did not settle within 120 s" in
  let last_ack = ref t0 in
  Array.iter
    (fun b ->
      let rec send () =
        check ();
        match shard_state ~port with
        | Some v when max_depth v < 300.0 -> (
            match Http.call ~port ~meth:"POST" ~path:"/ingest" ~body:b.body () with
            | Ok r when r.Http.code = 200 -> last_ack := now ()
            | Ok r when r.Http.code = 429 -> Thread.delay 0.05; send ()
            | Ok r -> failwith (Printf.sprintf "preload: POST /ingest answered %d" r.Http.code)
            | Error m -> failwith ("preload: " ^ m))
        | _ -> Thread.delay 0.05; send ()
      in
      send ())
    batches;
  let rec settle () =
    check ();
    let shards_ok =
      match shard_state ~port with Some v -> max_depth v = 0.0 && all_full v | None -> false
    in
    let fitted () =
      List.for_all
        (fun t ->
          let p = poll_once ~port t in
          p.full && p.fitted_at > !last_ack)
        tenant_keys
    in
    if not (shards_ok && fitted ()) then begin
      Thread.delay 0.1;
      settle ()
    end
  in
  settle ();
  now () -. t0

(* ------------------------------------------------------------------ *)
(* Window-only histograms                                              *)

(* The daemon's histograms count since it started, preload included.
   Prometheus buckets are cumulative counters, so two scrapes taken at
   the window's edges subtract to the window's own histogram. *)
type hist = { bounds : float array; cum : float array; sum : float; count : float }

let scrape ~port =
  match Http.call ~port ~meth:"GET" ~path:"/metrics" () with
  | Ok r when r.Http.code = 200 -> r.Http.body
  | Ok r -> failwith (Printf.sprintf "GET /metrics answered %d" r.Http.code)
  | Error m -> failwith ("GET /metrics: " ^ m)

let hist text family =
  let value line = float_of_string (List.nth (String.split_on_char ' ' line) 1) in
  let starts p line = String.length line >= String.length p && String.sub line 0 (String.length p) = p in
  let lines = String.split_on_char '\n' text in
  let buckets =
    List.filter_map
      (fun line ->
        let p = family ^ "_bucket{le=\"" in
        if not (starts p line) then None
        else
          let rest = String.sub line (String.length p) (String.length line - String.length p) in
          let le = List.hd (String.split_on_char '"' rest) in
          Some ((if le = "+Inf" then infinity else float_of_string le), value line))
      lines
  in
  let scalar suffix =
    match List.find_opt (starts (family ^ suffix ^ " ")) lines with
    | Some l -> value l
    | None -> failwith ("no " ^ family ^ suffix ^ " in /metrics")
  in
  { bounds = Array.of_list (List.map fst buckets); cum = Array.of_list (List.map snd buckets);
    sum = scalar "_sum"; count = scalar "_count" }

let hist_delta a b =
  { b with cum = Array.mapi (fun i c -> c -. a.cum.(i)) b.cum; sum = b.sum -. a.sum; count = b.count -. a.count }

(* Linear interpolation inside the bucket holding the q-th observation,
   the rule /fleet.json uses; the +Inf bucket clamps to the last finite
   bound. *)
let hist_quantile h q =
  if h.count <= 0.0 then nan
  else begin
    let target = q *. h.count in
    let rec go i lo prev =
      if i >= Array.length h.cum then lo
      else if h.cum.(i) >= target then
        if h.bounds.(i) = infinity then lo
        else lo +. ((h.bounds.(i) -. lo) *. (target -. prev) /. Float.max 1.0 (h.cum.(i) -. prev))
      else go (i + 1) h.bounds.(i) h.cum.(i)
    in
    go 0 0.0 0.0
  end

(* ------------------------------------------------------------------ *)
(* The run                                                             *)

type outcome = {
  sent : sent array;
  polls : poll list;
  refit : hist;  (** window-only *)
  queue_wait : hist;  (** window-only *)
  shards : (string * Jsonx.value) list option;
  daemon_rss_mb : float;
  send_window : float;
  last_ready : (string * bool) list;
}

let run d ~seconds batches =
  let port = d.port in
  let polls = ref [] and lock = Mutex.create () in
  let stop_polling = Atomic.make false in
  let poller =
    Thread.create
      (fun () ->
        let k = ref 0 in
        while not (Atomic.get stop_polling) do
          let tick = now () in
          let tenant = List.nth tenant_keys (!k mod Fixture.tenants) in
          incr k;
          let p = poll_once ~port tenant in
          Mutex.protect lock (fun () -> polls := p :: !polls);
          let wait = tick +. poll_interval -. now () in
          if wait > 0.0 then Thread.delay wait
        done)
      ()
  in
  let before = scrape ~port in
  let t0 = now () +. 0.05 in
  let sent = send_all ~port ~t0 batches in
  let send_window = Float.max seconds (now () -. t0) in
  (* Keep polling until every tenant serves a posterior fitted after its
     last acknowledged batch, so late batches get a freshness too. *)
  let last_ack tenant =
    let acc = ref neg_infinity in
    Array.iteri
      (fun i s -> if s.code = 200 && List.mem tenant batches.(i).tenants_in then acc := Float.max !acc s.done_)
      sent;
    !acc
  in
  let caught_up () =
    let ps = Mutex.protect lock (fun () -> !polls) in
    List.for_all
      (fun tenant ->
        let ack = last_ack tenant in
        List.exists (fun p -> p.tenant = tenant && p.ready && p.fitted_at > ack) ps)
      tenant_keys
  in
  let deadline = now () +. drain_grace in
  while (not (caught_up ())) && now () < deadline do Thread.delay 0.05 done;
  Atomic.set stop_polling true;
  Thread.join poller;
  let after = scrape ~port in
  let window family = hist_delta (hist before family) (hist after family) in
  let shards = shard_state ~port in
  let last_ready = List.map (fun t -> let p = poll_once ~port t in (t, p.ready && p.pcode = 200)) tenant_keys in
  {
    sent;
    polls = List.rev !polls;
    refit = window "qnet_serve_refit_duration_seconds";
    queue_wait = window "qnet_serve_queue_wait_seconds";
    shards;
    daemon_rss_mb = peak_rss_mb d.pid;
    send_window;
    last_ready;
  }

(* Freshness of each (batch, tenant) pair: from the batch's scheduled
   send to the first poll of that tenant whose posterior was fitted
   after the batch was acknowledged. Pairs never seen fresh are
   returned separately. *)
let freshness (batches : batch array) (sent : sent array) polls =
  let by_tenant = Hashtbl.create 8 in
  List.iter (fun p -> if p.ready then Hashtbl.add by_tenant p.tenant p) polls;
  let fresh = ref [] and missing = ref 0 in
  Array.iteri
    (fun i s ->
      if s.code = 200 && s.accepted > 0 then
        List.iter
          (fun tenant ->
            let first =
              List.fold_left
                (fun acc p ->
                  if p.at >= s.done_ && p.fitted_at > s.done_ then
                    match acc with Some a when a <= p.at -> acc | _ -> Some p.at
                  else acc)
                None (Hashtbl.find_all by_tenant tenant)
            in
            match first with
            | Some at -> fresh := (at -. s.due) :: !fresh
            | None -> incr missing)
          batches.(i).tenants_in)
    sent;
  (Array.of_list !fresh, !missing)
