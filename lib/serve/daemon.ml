module Metrics = Qnet_obs.Metrics
module Jsonx = Qnet_obs.Jsonx
module Clock = Qnet_obs.Clock
module Span = Qnet_obs.Span
module Trace_ctx = Qnet_obs.Trace_ctx
module Server = Qnet_webapp.Metrics_server
module Fault = Qnet_runtime.Fault

let log_src = Logs.Src.create "qnet.serve.daemon" ~doc:"Serving daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  shards : int;
  data_dir : string;
  host : string;
  port : int;
  retry_ephemeral : bool;
  dead_letter : string option;
  tail_files : string list;
  tail_policy : Bounded_queue.policy;
  shard : Shard.config;
  admission : Admission.config;
  faults : Fault.service_fault list;
  trace_sample_rate : float;
  trace_seed : int;
  profile_on_start : bool;
  profile_alloc_rate : float;
}

let default_config =
  {
    shards = 2;
    data_dir = "qnet-serve-data";
    host = "127.0.0.1";
    port = 8099;
    retry_ephemeral = false;
    dead_letter = Some "qnet-serve-data/dead-letter.jsonl";
    tail_files = [];
    tail_policy = Bounded_queue.Block;
    shard = Shard.default_config;
    admission = Admission.default_config;
    faults = [];
    trace_sample_rate = 0.01;
    trace_seed = 1;
    profile_on_start = false;
    profile_alloc_rate = 0.01;
  }

type t = {
  cfg : config;
  shard_arr : Shard.t array;
  admission : Admission.t;
  sampler : Trace_ctx.sampler;
  dead : Ingest.Dead_letter.t;
  mutable server : Server.t option;
  profiling : bool Atomic.t;  (** this daemon started the profiler *)
  stopping : bool Atomic.t;
  mutable tailers : Thread.t list;
  mutable stopped : bool;
  stop_mutex : Mutex.t;
}

let m_lines = Serve_metrics.counter "qnet_serve_ingest_lines_total"
let m_accepted = Serve_metrics.counter "qnet_serve_ingest_accepted_total"

let m_quarantined =
  Serve_metrics.counter "qnet_serve_ingest_quarantined_total"

let m_shed = Serve_metrics.counter "qnet_serve_ingest_shed_total"
let m_requests = Serve_metrics.counter "qnet_serve_http_requests_total"
let m_429 = Serve_metrics.counter "qnet_serve_http_429_total"
let m_stale = Serve_metrics.counter "qnet_serve_stale_responses_total"
let g_shards = Serve_metrics.gauge "qnet_serve_shards"
let g_healthy = Serve_metrics.gauge "qnet_serve_healthy_shards"
let g_retry_after = Serve_metrics.gauge "qnet_serve_retry_after_seconds"

(* Per-tenant rate accounting: one labeled series per tenant key, on
   top of the label-less totals (creation is idempotent, so no handle
   cache is needed). *)
let tenant_counter tenant =
  Metrics.Counter.create
    ~help:"Events accepted per tenant key"
    ~labels:[ ("tenant", tenant) ]
    "qnet_serve_tenant_ingest_total"

let shards t = Array.to_list t.shard_arr
let dead_letter_count t = Ingest.Dead_letter.count t.dead

let healthy_shards t =
  Array.fold_left
    (fun acc s ->
      match Shard.status s with Shard.Healthy -> acc + 1 | _ -> acc)
    0 t.shard_arr

let port t = match t.server with Some s -> Server.port s | None -> 0

let fell_back t =
  match t.server with Some s -> Server.fell_back s | None -> false

(* ------------------------------------------------------------------ *)
(* Routing a record                                                    *)
(* ------------------------------------------------------------------ *)

let shard_of t tenant =
  t.shard_arr.(Router.shard_of_tenant ~shards:(Array.length t.shard_arr) tenant)

(* ------------------------------------------------------------------ *)
(* POST /ingest                                                        *)
(* ------------------------------------------------------------------ *)

let split_lines body =
  String.split_on_char '\n' body
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if String.length l = 0 then None else Some l)

(* Pressure a tenant's shard is under, in [0, 1]: the worse of queue
   occupancy and refit lag (lag saturates at 8 refit intervals — a
   shard that far behind is drowning even if its queue has room). *)
let shard_pressure t s =
  let q = Shard.queue s in
  let cap = float_of_int (Bounded_queue.capacity q) in
  let occupancy =
    if cap > 0.0 then float_of_int (Bounded_queue.length q) /. cap else 0.0
  in
  let lag =
    Shard.refit_lag s /. (8.0 *. t.cfg.shard.Shard.refit_interval)
  in
  Float.min 1.0 (Float.max occupancy lag)

(* Honest Retry-After: the excess over each overloaded shard's free
   room, paid back at its measured drain rate; clamped to [1, 30] so a
   stalled shard cannot push clients out forever. *)
let retry_after_of t overloaded =
  List.fold_left
    (fun acc (id, excess) ->
      let drain = Float.max 1.0 (Shard.drain_rate t.shard_arr.(id)) in
      Float.max acc (float_of_int excess /. drain))
    1.0 overloaded
  |> Float.min 30.0 |> Float.ceil

let handle_ingest t body =
  let req_start = Clock.elapsed () in
  let lines = split_lines body in
  (* Phase 1: decode with no side effects, feed the admission
     controller one pressure observation per tenant, then flip the
     Bernoulli coin per record. The coin runs before the room check so
     a thinned stream also shrinks the batch the shards must absorb. *)
  let decoded =
    List.map
      (fun line ->
        (line, Ingest.decode_line ~num_queues:t.cfg.shard.Shard.num_queues line))
      lines
  in
  let now = Clock.now () in
  let seen = Hashtbl.create 8 in
  List.iter
    (function
      | _, Error _ -> ()
      | _, Ok (r : Ingest.record) ->
          let tenant = r.Ingest.tenant in
          if not (Hashtbl.mem seen tenant) then begin
            Hashtbl.replace seen tenant ();
            Admission.observe t.admission ~tenant
              ~pressure:(shard_pressure t (shard_of t tenant))
              ~now
          end)
    decoded;
  let judged =
    List.map
      (fun (line, result) ->
        match result with
        | Error reason -> (line, `Poison reason)
        | Ok (r : Ingest.record) ->
            if Admission.admit t.admission ~tenant:r.Ingest.tenant then
              (line, `Admit r)
            else (line, `Sampled r))
      decoded
  in
  (* Phase 2: backpressure — every target shard must have room for its
     whole admitted share, otherwise reject the batch wholesale. *)
  let per_shard = Hashtbl.create 8 in
  List.iter
    (function
      | _, `Admit (r : Ingest.record) ->
          let id = Shard.id (shard_of t r.Ingest.tenant) in
          let n = Option.value ~default:0 (Hashtbl.find_opt per_shard id) in
          Hashtbl.replace per_shard id (n + 1)
      | _ -> ())
    judged;
  let overloaded =
    Hashtbl.fold
      (fun id n acc ->
        let q = Shard.queue t.shard_arr.(id) in
        let room = Bounded_queue.capacity q - Bounded_queue.length q in
        if n > room then (id, n - room) :: acc else acc)
      per_shard []
  in
  if overloaded <> [] then begin
    Metrics.Counter.inc (Lazy.force m_429);
    let retry = retry_after_of t overloaded in
    Metrics.Gauge.set (Lazy.force g_retry_after) retry;
    Server.response ~status:"429 Too Many Requests"
      ~extra_headers:[ ("Retry-After", Printf.sprintf "%.0f" retry) ]
      (Jsonx.render
         (Jsonx.Obj
            [
              ("error", Jsonx.Str "backpressure");
              ( "shards",
                Jsonx.Arr
                  (List.map
                     (fun (id, _) -> Jsonx.Num (float_of_int id))
                     (List.sort compare overloaded)) );
              ("retry_after", Jsonx.Num retry);
            ]))
  end
  else begin
    (* Phase 3: commit. Counters move only on the accepted attempt, so
       a client retrying a 429'd batch never double-counts. *)
    Metrics.Counter.inc
      ~by:(float_of_int (List.length lines))
      (Lazy.force m_lines);
    let n_accepted = ref 0
    and n_quarantined = ref 0
    and n_shed = ref 0
    and n_sampled = ref 0 in
    let offered_by = Hashtbl.create 8 and admitted_by = Hashtbl.create 8 in
    let bump tbl tenant =
      Hashtbl.replace tbl tenant
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl tenant))
    in
    List.iter
      (fun (line, verdict) ->
        match verdict with
        | `Poison reason ->
            Ingest.Dead_letter.write t.dead ~line ~reason;
            Metrics.Counter.inc (Lazy.force m_quarantined);
            incr n_quarantined
        | `Sampled (r : Ingest.record) ->
            bump offered_by r.Ingest.tenant;
            incr n_sampled
        | `Admit (r : Ingest.record) ->
            bump offered_by r.Ingest.tenant;
            bump admitted_by r.Ingest.tenant;
            let s = shard_of t r.Ingest.tenant in
            (* head-based sampling decision, minted once per admitted
               record at the edge; the context rides the queue item
               through refit to the end-to-end span *)
            let ctx = Trace_ctx.sample t.sampler in
            let enqueued_at = Clock.elapsed () in
            let item = { Shard.record = r; trace = ctx; enqueued_at } in
            if Bounded_queue.try_push (Shard.queue s) item then begin
              Metrics.Counter.inc (Lazy.force m_accepted);
              Metrics.Counter.inc (tenant_counter r.Ingest.tenant);
              (match ctx with
              | None -> ()
              | Some c ->
                  Span.emit
                    ~attrs:
                      [
                        ("trace", Trace_ctx.id_hex c);
                        ("tenant", r.Ingest.tenant);
                        ("shard", string_of_int (Shard.id s));
                      ]
                    ~start:req_start
                    ~duration:(enqueued_at -. req_start)
                    "serve.ingest");
              incr n_accepted
            end
            else begin
              (* lost the race with a concurrent producer after the
                 admission check — shed, visibly *)
              Metrics.Counter.inc (Lazy.force m_shed);
              incr n_shed
            end)
      judged;
    let committed_at = Clock.elapsed () in
    Hashtbl.iter
      (fun tenant offered ->
        let admitted =
          Option.value ~default:0 (Hashtbl.find_opt admitted_by tenant)
        in
        if admitted > 0 then
          Fleet.record Fleet.Ingest ~tenant (committed_at -. req_start);
        Admission.note t.admission ~tenant ~offered ~admitted)
      offered_by;
    Server.response ~status:"200 OK"
      (Jsonx.render
         (Jsonx.Obj
            [
              ("accepted", Jsonx.Num (float_of_int !n_accepted));
              ("quarantined", Jsonx.Num (float_of_int !n_quarantined));
              ("shed", Jsonx.Num (float_of_int !n_shed));
              ("sampled_out", Jsonx.Num (float_of_int !n_sampled));
            ]))
  end

(* ------------------------------------------------------------------ *)
(* GET /shards.json                                                    *)
(* ------------------------------------------------------------------ *)

let shard_json s =
  Jsonx.Obj
    [
      ("id", Jsonx.Num (float_of_int (Shard.id s)));
      ("status", Jsonx.Str (Shard.status_label (Shard.status s)));
      ("queue_depth", Jsonx.Num (float_of_int (Shard.queue_depth s)));
      ("iterations", Jsonx.Num (float_of_int (Shard.iterations s)));
      ("rounds", Jsonx.Num (float_of_int (Shard.rounds s)));
      ("restarts", Jsonx.Num (float_of_int (Shard.restarts s)));
      ("resumed", Jsonx.Bool (Shard.resumed s));
      ("tenants", Jsonx.Num (float_of_int (List.length (Shard.tenants s))));
      ("level", Jsonx.Str (Shard.level_label (Shard.level s)));
      ( "degraded_reason",
        match Shard.degraded_reason s with
        | None -> Jsonx.Null
        | Some m -> Jsonx.Str m );
      ("drain_rate", Jsonx.Num (Shard.drain_rate s));
      ("replayed_events", Jsonx.Num (float_of_int (Shard.replayed_events s)));
      ( "log_corrupt_frames",
        Jsonx.Num (float_of_int (Shard.log_corrupt_frames s)) );
      ("log_torn_tails", Jsonx.Num (float_of_int (Shard.log_torn_tails s)));
      ( "last_error",
        match Shard.last_error s with
        | None -> Jsonx.Null
        | Some m -> Jsonx.Str m );
    ]

let handle_shards t =
  let healthy = healthy_shards t in
  Metrics.Gauge.set (Lazy.force g_healthy) (float_of_int healthy);
  Server.response ~status:"200 OK"
    (Jsonx.render
       (Jsonx.Obj
          [
            ( "shards",
              Jsonx.Arr (Array.to_list (Array.map shard_json t.shard_arr)) );
            ("healthy", Jsonx.Num (float_of_int healthy));
            ("dead_letter", Jsonx.Num (float_of_int (dead_letter_count t)));
          ]))

(* ------------------------------------------------------------------ *)
(* GET /tenants/:id/posterior.json                                     *)
(* ------------------------------------------------------------------ *)

let posterior_path path =
  let prefix = "/tenants/" and suffix = "/posterior.json" in
  let pl = String.length prefix and sl = String.length suffix in
  let n = String.length path in
  if
    n > pl + sl
    && String.equal (String.sub path 0 pl) prefix
    && String.equal (String.sub path (n - sl) sl) suffix
  then Some (String.sub path pl (n - pl - sl))
  else None

let handle_posterior_inner t tenant =
  if not (Ingest.valid_tenant tenant) then
    Some
      (Server.response ~status:"404 Not Found"
         (Jsonx.render
            (Jsonx.Obj [ ("error", Jsonx.Str "invalid tenant key") ])))
  else
    let s = shard_of t tenant in
    let shard_status = Shard.status s in
    match Shard.posterior s ~tenant with
    | Some p ->
        let lvl = Shard.level s in
        let stale =
          p.Shard.from_checkpoint
          || (match shard_status with Shard.Healthy -> false | _ -> true)
          || lvl = Shard.Pinned
        in
        if stale then Metrics.Counter.inc (Lazy.force m_stale);
        let arr xs =
          Jsonx.Arr (Array.to_list (Array.map (fun v -> Jsonx.Num v) xs))
        in
        let snap = Admission.snapshot t.admission ~tenant in
        Some
          (Server.response ~status:"200 OK"
             (Jsonx.render
                (Jsonx.Obj
                   [
                     ("tenant", Jsonx.Str tenant);
                     ("ready", Jsonx.Bool true);
                     ("stale", Jsonx.Bool stale);
                     ( "shard_status",
                       Jsonx.Str (Shard.status_label shard_status) );
                     ("shard", Jsonx.Num (float_of_int (Shard.id s)));
                     ("level", Jsonx.Str (Shard.level_label lvl));
                     ( "degraded_reason",
                       match Shard.degraded_reason s with
                       | None -> Jsonx.Null
                       | Some m -> Jsonx.Str m );
                     ("fit_mode", Jsonx.Str (Shard.fit_mode_label p.Shard.fit_mode));
                     ("admission_rate", Jsonx.Num snap.Admission.rate);
                     ( "sampling_fraction",
                       Jsonx.Num (Admission.admitted_fraction snap) );
                     ("rates", arr p.Shard.params.Qnet_core.Params.rates);
                     ( "arrival_queue",
                       Jsonx.Num
                         (float_of_int
                            p.Shard.params.Qnet_core.Params.arrival_queue) );
                     ("mean_service", arr p.Shard.mean_service);
                     ("iteration", Jsonx.Num (float_of_int p.Shard.iteration));
                     ("round", Jsonx.Num (float_of_int p.Shard.round));
                     ("num_events", Jsonx.Num (float_of_int p.Shard.num_events));
                     ("fitted_at", Jsonx.Num p.Shard.fitted_at);
                   ])))
    | None ->
        if Shard.knows_tenant s ~tenant then
          Some
            (Server.response ~status:"200 OK"
               (Jsonx.render
                  (Jsonx.Obj
                     [
                       ("tenant", Jsonx.Str tenant);
                       ("ready", Jsonx.Bool false);
                       ("stale", Jsonx.Bool false);
                       ( "shard_status",
                         Jsonx.Str (Shard.status_label shard_status) );
                       ("shard", Jsonx.Num (float_of_int (Shard.id s)));
                     ])))
        else
          Some
            (Server.response ~status:"404 Not Found"
               (Jsonx.render
                  (Jsonx.Obj [ ("error", Jsonx.Str "unknown tenant") ])))

(* Posterior reads are the "serve" leg of the tenant's SLO pipeline:
   timed into the per-tenant histogram (only for tenants the fleet
   actually knows, so probes for junk keys cannot mint series) and
   head-sampled into their own serve.posterior spans. *)
let handle_posterior t tenant =
  let t0 = Clock.elapsed () in
  let resp = handle_posterior_inner t tenant in
  if Ingest.valid_tenant tenant && Shard.knows_tenant (shard_of t tenant) ~tenant
  then begin
    let dt = Clock.elapsed () -. t0 in
    Fleet.record Fleet.Serve ~tenant dt;
    match Trace_ctx.sample t.sampler with
    | None -> ()
    | Some c ->
        Span.emit
          ~attrs:[ ("trace", Trace_ctx.id_hex c); ("tenant", tenant) ]
          ~start:t0 ~duration:dt "serve.posterior"
  end;
  resp

(* ------------------------------------------------------------------ *)
(* Live profiling (GET /profile.json, POST /profile/{start,stop})      *)
(* ------------------------------------------------------------------ *)

let profile_status () =
  let backend =
    match Qnet_obs.Prof.backend () with
    | None -> "null"
    | Some Qnet_obs.Prof.Counters -> "\"counters\""
    | Some Qnet_obs.Prof.Memprof -> "\"memprof\""
  in
  Printf.sprintf "{\"running\":%b,\"backend\":%s}\n"
    (Qnet_obs.Prof.running ()) backend

let handle_profile_start t body =
  let rate =
    if String.trim body = "" then Ok t.cfg.profile_alloc_rate
    else
      match Jsonx.parse_object body with
      | Error e -> Error ("bad JSON body: " ^ e)
      | Ok fields -> (
          match List.assoc_opt "sampling_rate" fields with
          | Some (Jsonx.Num r) -> Ok r
          | Some _ -> Error "sampling_rate must be a number"
          | None -> Ok t.cfg.profile_alloc_rate)
  in
  match rate with
  | Error msg ->
      Server.response ~status:"400 Bad Request"
        (Printf.sprintf "{\"error\":\"%s\"}\n" (Jsonx.escape msg))
  | Ok rate -> (
      match
        Qnet_obs.Prof.start
          ~config:{ Qnet_obs.Prof.default_config with sampling_rate = rate }
          ()
      with
      | _backend ->
          Atomic.set t.profiling true;
          Server.response ~status:"200 OK" (profile_status ())
      | exception Invalid_argument msg ->
          Server.response ~status:"400 Bad Request"
            (Printf.sprintf "{\"error\":\"%s\"}\n" (Jsonx.escape msg)))

let handle_profile_stop t =
  Qnet_obs.Prof.stop ();
  Atomic.set t.profiling false;
  Server.response ~status:"200 OK" (profile_status ())

(* ------------------------------------------------------------------ *)
(* The route handler                                                   *)
(* ------------------------------------------------------------------ *)

let handle t (req : Server.request) =
  let serve_route response =
    Metrics.Counter.inc (Lazy.force m_requests);
    response
  in
  match (req.Server.meth, req.Server.path) with
  | "POST", "/ingest" -> serve_route (Some (handle_ingest t req.Server.body))
  | "GET", "/shards.json" -> serve_route (Some (handle_shards t))
  | "GET", "/fleet.json" ->
      serve_route
        (Some (Server.response ~status:"200 OK" (Fleet.snapshot_json () ^ "\n")))
  | "GET", ("/fleet" | "/fleet/") ->
      serve_route
        (Some
           (Server.response ~status:"200 OK"
              ~content_type:"text/html; charset=utf-8" Qnet_webapp.Fleet_panel.html))
  | "GET", "/profile.json" ->
      serve_route
        (Some
           (Server.response ~status:"200 OK"
              (Qnet_obs.Prof.snapshot_json () ^ "\n")))
  | "POST", "/profile/start" ->
      serve_route (Some (handle_profile_start t req.Server.body))
  | "POST", "/profile/stop" -> serve_route (Some (handle_profile_stop t))
  | "GET", path -> (
      match posterior_path path with
      | Some tenant -> serve_route (handle_posterior t tenant)
      | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* File tailers                                                        *)
(* ------------------------------------------------------------------ *)

let push_tailed t (r : Ingest.record) =
  let q = Shard.queue (shard_of t r.Ingest.tenant) in
  let item =
    { Shard.record = r; trace = Trace_ctx.sample t.sampler;
      enqueued_at = Clock.elapsed () }
  in
  let pushed =
    match t.cfg.tail_policy with
    | Bounded_queue.Shed -> Bounded_queue.try_push q item
    | Bounded_queue.Block ->
        let rec go () =
          if Atomic.get t.stopping then false
          else if Bounded_queue.push_wait ~timeout:0.25 q item then true
          else if Bounded_queue.is_closed q then false
          else go ()
        in
        go ()
  in
  if pushed then begin
    Metrics.Counter.inc (Lazy.force m_accepted);
    Metrics.Counter.inc (tenant_counter r.Ingest.tenant)
  end
  else Metrics.Counter.inc (Lazy.force m_shed)

let tail_line t line =
  let line = String.trim line in
  if String.length line > 0 then begin
    Metrics.Counter.inc (Lazy.force m_lines);
    match Ingest.decode_line ~num_queues:t.cfg.shard.Shard.num_queues line with
    | Ok r ->
        (* The tailed path samples too — a firehose file must not be
           able to drown a shard the HTTP path is protecting. *)
        let tenant = r.Ingest.tenant in
        Admission.observe t.admission ~tenant
          ~pressure:(shard_pressure t (shard_of t tenant))
          ~now:(Clock.now ());
        if Admission.admit t.admission ~tenant then begin
          Admission.note t.admission ~tenant ~offered:1 ~admitted:1;
          push_tailed t r
        end
        else Admission.note t.admission ~tenant ~offered:1 ~admitted:0
    | Error reason ->
        Ingest.Dead_letter.write t.dead ~line ~reason;
        Metrics.Counter.inc (Lazy.force m_quarantined)
  end

(* Tail [path] from the beginning: drain what is there, then poll for
   appends. Rotation/truncation is out of scope — the tailer is the
   soak test's load path, not a log shipper. *)
let tail_file t path =
  let rec wait_for_file () =
    if Atomic.get t.stopping then None
    else if Sys.file_exists path then (
      match open_in path with
      | ic -> Some ic
      | exception Sys_error m ->
          Log.warn (fun f -> f "tail %s: %s" path m);
          Thread.delay 0.2;
          wait_for_file ())
    else begin
      Thread.delay 0.1;
      wait_for_file ()
    end
  in
  match wait_for_file () with
  | None -> ()
  | Some ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let buf = Buffer.create 256 in
          let rec loop () =
            if not (Atomic.get t.stopping) then (
              match input_char ic with
              | '\n' ->
                  tail_line t (Buffer.contents buf);
                  Buffer.clear buf;
                  loop ()
              | c ->
                  Buffer.add_char buf c;
                  loop ()
              | exception End_of_file ->
                  Thread.delay 0.1;
                  loop ()
              | exception Sys_error m ->
                  Log.warn (fun f -> f "tail %s: %s" path m))
          in
          loop ();
          (* a final partial line without a newline still counts *)
          if Buffer.length buf > 0 then tail_line t (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let stop_shards arr = Array.iter Shard.stop arr

let create cfg =
  if cfg.shards < 1 then Error "shards must be >= 1"
  else match Admission.validate cfg.admission with
  | Error m -> Error m
  | Ok () -> begin
    Serve_metrics.force_register ();
    Metrics.Gauge.set (Lazy.force g_shards) (float_of_int cfg.shards);
    match
      mkdir_p cfg.data_dir;
      if Sys.is_directory cfg.data_dir then Ok () else Error "not a directory"
    with
    | exception Sys_error m ->
        Error (Printf.sprintf "data dir %s: %s" cfg.data_dir m)
    | Error m -> Error (Printf.sprintf "data dir %s: %s" cfg.data_dir m)
    | Ok () -> (
        let dead =
          match cfg.dead_letter with
          | None -> Ok (Ingest.Dead_letter.null ())
          | Some path -> Ingest.Dead_letter.open_ ~path
        in
        match dead with
        | Error m -> Error (Printf.sprintf "dead letter: %s" m)
        | Ok dead -> (
            let started_at = Clock.now () in
            let rec start_shards acc i =
              if i >= cfg.shards then Ok (List.rev acc)
              else
                match
                  Shard.create ~faults:cfg.faults ~started_at
                    ~dir:(Filename.concat cfg.data_dir
                            (Printf.sprintf "shard-%d" i))
                    ~id:i cfg.shard
                with
                | Ok s -> start_shards (s :: acc) (i + 1)
                | Error m ->
                    List.iter Shard.stop acc;
                    Error m
            in
            match start_shards [] 0 with
            | Error m ->
                Ingest.Dead_letter.close dead;
                Error m
            | Ok shard_list -> (
                let t =
                  {
                    cfg;
                    shard_arr = Array.of_list shard_list;
                    admission = Admission.create cfg.admission;
                    dead;
                    server = None;
                    profiling = Atomic.make false;
                    stopping = Atomic.make false;
                    tailers = [];
                    stopped = false;
                    stop_mutex = Mutex.create ();
                    sampler =
                      Trace_ctx.make_sampler ~rate:cfg.trace_sample_rate
                        ~seed:cfg.trace_seed ();
                  }
                in
                match
                  Server.start ~handler:(handle t)
                    ~retry_ephemeral:cfg.retry_ephemeral ~host:cfg.host
                    ~port:cfg.port ()
                with
                | Error e ->
                    stop_shards t.shard_arr;
                    Ingest.Dead_letter.close dead;
                    Error (Server.bind_error_message e)
                | Ok server ->
                    t.server <- Some server;
                    if cfg.profile_on_start then begin
                      let backend =
                        Qnet_obs.Prof.start
                          ~config:
                            {
                              Qnet_obs.Prof.default_config with
                              sampling_rate = cfg.profile_alloc_rate;
                            }
                          ()
                      in
                      Atomic.set t.profiling true;
                      Log.info (fun f ->
                          f "profiling from boot (%s backend, rate %g)"
                            (match backend with
                            | Qnet_obs.Prof.Counters -> "counters"
                            | Qnet_obs.Prof.Memprof -> "memprof")
                            cfg.profile_alloc_rate)
                    end;
                    Metrics.Gauge.set (Lazy.force g_healthy)
                      (float_of_int (healthy_shards t));
                    t.tailers <-
                      List.map
                        (fun path ->
                          Thread.create (fun () -> tail_file t path) ())
                        cfg.tail_files;
                    Log.info (fun f ->
                        f "daemon up: %d shards, port %d%s" cfg.shards
                          (Server.port server)
                          (if Server.fell_back server then
                             " (ephemeral fallback)"
                           else ""));
                    Ok t)))
  end

let stop t =
  Mutex.protect t.stop_mutex (fun () ->
      if not t.stopped then begin
        t.stopped <- true;
        Atomic.set t.stopping true;
        List.iter Thread.join t.tailers;
        t.tailers <- [];
        stop_shards t.shard_arr;
        (match t.server with
        | Some s ->
            Server.stop s;
            t.server <- None
        | None -> ());
        if Atomic.get t.profiling then begin
          Qnet_obs.Prof.stop ();
          Atomic.set t.profiling false  (* qnet-lint: racy-ok C005 under stop_mutex; the /profile/* handlers only set true->true or false->false races away *)
        end;
        Ingest.Dead_letter.close t.dead
      end)
