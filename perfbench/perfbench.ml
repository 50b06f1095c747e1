(* perfbench: the repo's layered benchmark.

   perfbench --workload W --seed N --seconds S --trace 0|1
   perfbench selftest
   perfbench reference   (the host reference, host.ml)

   Workloads (both on one seeded three-tier topology, see fixture.ml):
     fit_large      one batch StEM fit on ~100k latent events at 5%
                    observation, repeated for S seconds;
     refit_windows  passes over sliding windows of one tenant's stream,
                    each a supervised refit with the shard's settings.

   --trace 0 reports the end-to-end metrics; --trace 1 reports the
   per-layer rows: the workload again with spans on every other
   operation, then the layer probes (layers.ml), then the serve stream
   (serve.ml): qnet_serve with 2 shards as a child process, fed an
   open-loop multi-tenant stream while every tenant's posterior is
   polled. End-to-end times are scaled to a nominal host speed
   (host.ml). Human-readable lines come first; the last line of standard
   output is one JSON object {"correct", "attempted", "failed",
   "metrics"}. A full report (seed, offered rate, generator lateness,
   host fingerprint, every figure) and, for traced runs, the span log
   are written under .perfbench/. *)

module Jsonx = Qnet_obs.Jsonx
module Statistics = Qnet_prob.Statistics

let now = Unix.gettimeofday
let out_dir = ".perfbench"

(* ------------------------------------------------------------------ *)
(* Metric catalogue (BENCHMARK.json lists the same names)              *)

let end_to_end = [ ("fit_s", "s"); ("fit_tail_s", "s"); ("setup_s", "s"); ("max_rss_mb", "MiB") ]

let span_layers = [ "trace"; "observation"; "store"; "stem"; "supervisor"; "serve" ]

let per_layer =
  [ ("ingest_p50_s", "s"); ("ingest_tail_s", "s");
    ("freshness_p50_s", "s"); ("freshness_tail_s", "s"); ("admitted_events_per_s", "1/s");
    ("rng.float_unit_ns", "ns"); ("rng.float_unit_bytes", "B");
    ("piecewise.compile_ns", "ns"); ("piecewise.compile_bytes", "B");
    ("piecewise.sample_ns", "ns"); ("piecewise.sample_bytes", "B");
    ("gibbs.local_density_ns", "ns"); ("gibbs.local_density_bytes", "B");
    ("gibbs.sample_event_ns", "ns"); ("gibbs.sample_event_bytes", "B");
    ("gibbs.sweep_s", "s"); ("gibbs.sweep_events", "count"); ("gibbs.sweep_ns_per_event", "ns");
    ("gibbs.sweep_bytes_per_event", "B"); ("gc.minor_per_sweep", "count");
    ("stem.iterations", "count"); ("stem.iteration_s", "s"); ("stem.mle_step_s", "s");
    ("init.feasible_s", "s");
    ("store.of_trace_s", "s"); ("store.of_trace_bytes_per_event", "B");
    ("trace.of_csv_lenient_s", "s"); ("trace.of_csv_lenient_bytes_per_event", "B");
    ("parallel_gibbs.plan_s", "s"); ("parallel_gibbs.sweep_s", "s");
    ("supervisor.run_s", "s"); ("supervisor.single_chain_s", "s"); ("supervisor.overhead_ratio", "1");
    ("supervisor.chain_iterations", "count"); ("supervisor.restarts", "count");
    ("supervisor.healthy_chain_ratio", "1");
    ("serve.post_ingest_s", "s"); ("serve.generator_late_s", "s"); ("serve.preload_s", "s");
    ("admission.sampling_fraction", "1");
    ("fleet.queue_wait_p50_s", "s"); ("fleet.queue_wait_p95_s", "s");
    ("fleet.refit_p50_s", "s"); ("fleet.refit_p95_s", "s"); ("fleet.refit_mean_s", "s");
    ("serve.daemon_rss_mb", "MiB");
    ("shards.rounds", "count"); ("shards.drain_rate", "1/s"); ("shards.non_full_polls", "count");
    ("shards.restarts", "count");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count"); ("gc.promoted_bytes", "B");
    ("tracing.overhead_ratio", "1") ]
  @ List.concat_map (fun l -> [ ("span." ^ l ^ ".self_s", "s"); ("span." ^ l ^ ".calls", "count") ]) span_layers

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

(* run.sh builds the daemon here, next to the benchmark *)
let serve_exe = "_build/default/bin/qnet_serve.exe"

let usage () =
  prerr_endline
    "usage: perfbench --workload fit_large|refit_windows --seed N --seconds S --trace 0|1\n       perfbench selftest";
  exit 2

let parse_args argv =
  let rec go acc = function
    | [] -> acc
    | "--workload" :: w :: rest -> go { acc with workload = w } rest
    | "--seed" :: n :: rest -> go { acc with seed = (match int_of_string_opt n with Some n -> n | None -> usage ()) } rest
    | "--seconds" :: s :: rest ->
        go { acc with seconds = (match float_of_string_opt s with Some s when s > 0. -> s | _ -> usage ()) } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { acc with trace = t = "1" } rest
    | _ -> usage ()
  in
  let a =
    go { workload = ""; seed = 1; seconds = 10.; trace = false } argv
  in
  if not (List.mem a.workload [ "fit_large"; "refit_windows" ]) then usage ();
  a

(* ------------------------------------------------------------------ *)
(* Host fingerprint (informational, gates nothing)                     *)

let fingerprint () =
  let cpu =
    Serve.read_file "/proc/cpuinfo" |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           match String.index_opt l ':' with
           | Some i when String.trim (String.sub l 0 i) = "model name" ->
               Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
           | _ -> None)
  in
  [ ("nproc", Jsonx.Num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml", Jsonx.Str Sys.ocaml_version);
    ("cpu_model", Jsonx.Str (Option.value ~default:"unknown" cpu)) ]

let self_rss_mb () = Serve.peak_rss_mb (Unix.getpid ())

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type measured = {
  attempted : int;
  failed : int;
  errors : string list;
  e2e : (string * float) list;  (** all end-to-end metrics but setup_s *)
  rows : (string * float) list;  (** workload-level per-layer rows *)
  info : (string * Jsonx.value) list;  (** recorded in the report only *)
}

(* Repeat [op] until [seconds] have passed (at least [min_ops] times),
   with the host reference measured between operations and after the
   last (host.ml). In a traced run every other operation runs with
   spans on; the two halves give the tracing overhead. *)
let repeat ~seconds ~min_ops ~trace op =
  let t0 = now () in
  let rec go i acc =
    Host.calibrate ();
    if i >= min_ops && now () -. t0 >= seconds then List.rev acc
    else begin
      let traced = trace && i mod 2 = 1 in
      Spans.enabled := traced;
      let r = op i in
      Spans.enabled := false;
      go (i + 1) ((traced, r) :: acc)
    end
  in
  go 0 []

(* A fit's time at nominal host speed. *)
let scaled (f : Fits.fit) = f.Fits.seconds *. Host.scale ~t0:f.Fits.started ~t1:(f.Fits.started +. f.Fits.seconds)

let overhead_ratio traced_plain =
  let pick b = Array.of_list (List.filter_map (fun (t, s) -> if t = b then Some s else None) traced_plain) in
  let t = pick true and p = pick false in
  if Array.length t = 0 || Array.length p = 0 then 0.0 else (Statistics.median t /. Statistics.median p) -. 1.0

let floats xs = Jsonx.Arr (Array.to_list (Array.map (fun x -> Jsonx.Num x) xs))

let tail_row samples =
  match Stats.tail samples with
  | Some t -> (t.Stats.value, [ ("fit_tail_percentile", Jsonx.Num t.Stats.percentile) ])
  | None ->
      (* fewer than 20 fits: no percentile leaves 10 beyond it, so no
         tail can be told from one unlucky draw, and the figure falls to
         the ladder's lowest rung, the median (the slowest of so few
         fits spread 0.21 over ten seeds) *)
      (Statistics.median samples, [ ("fit_tail_percentile", Jsonx.Num 50.) ])

(* [resetup ()] repeats the set-up before each operation so the set-up
   samples spread over the whole run, like the operations do.
   max_rss_mb is read once the minimum work every run does is done: a
   fixed amount of work, so a run that fits more into its time does not
   read higher. *)
let read_rss_after ~min_ops rss i r =
  if i = min_ops - 1 then rss := self_rss_mb ();
  r

let fit_large ~args ~resetup input =
  let rss = ref nan in
  let fits =
    repeat ~seconds:args.seconds ~min_ops:3 ~trace:args.trace (fun i ->
        resetup ();
        read_rss_after ~min_ops:3 rss i (Fits.fit_large ~seed:args.seed input))
  in
  let wall = Array.of_list (List.map (fun (_, f) -> f.Fits.seconds) fits) in
  let times = Array.of_list (List.map (fun (_, f) -> scaled f) fits) in
  let errors = List.filter_map (fun (_, f) -> f.Fits.error) fits in
  let tail, tail_info = tail_row times in
  {
    attempted = List.length fits;
    failed = List.length errors;
    errors;
    e2e = [ ("fit_s", Statistics.median times); ("fit_tail_s", tail); ("max_rss_mb", !rss) ];
    rows = [ ("tracing.overhead_ratio", overhead_ratio (List.map (fun (t, f) -> (t, scaled f)) fits)) ];
    info =
      [ ("fit_times_s", floats times);
        ("fit_wall_times_s", floats wall);
        ("fit_wall_s", Jsonx.Num (Statistics.median wall));
        ("latent_events", Jsonx.Num (float_of_int input.Fits.latent));
        ("fit_samples", Jsonx.Num (float_of_int (Array.length times))) ]
      @ tail_info;
  }

let refit_windows ~args ~resetup windows =
  let rss = ref nan in
  let passes =
    (* two passes: the chains run in parallel domains, so one pass's
       peak heap varies with how their collections interleave *)
    repeat ~seconds:args.seconds ~min_ops:2 ~trace:args.trace (fun i ->
        resetup ();
        read_rss_after ~min_ops:2 rss i (Fits.windows_pass ~seed:args.seed windows))
  in
  let all = Array.concat (List.map snd passes) in
  let wall = Array.map (fun w -> w.Fits.fit.Fits.seconds) all in
  let times = Array.map (fun w -> scaled w.Fits.fit) all in
  let fit_errors = List.filter_map (fun w -> w.Fits.fit.Fits.error) (Array.to_list all) in
  (* the same windows with the same seeds: the chains must do exactly
     the same number of iterations on every pass *)
  let per_pass = List.map (fun (_, p) -> Fits.chain_iterations p) passes in
  let errors =
    if List.for_all (( = ) (List.hd per_pass)) per_pass then fit_errors
    else
      Printf.sprintf "chain iterations differ between passes: %s"
        (String.concat " " (List.map string_of_int per_pass))
      :: fit_errors
  in
  let tail, tail_info = tail_row times in
  {
    attempted = Array.length all;
    failed = List.length fit_errors;
    errors;
    e2e = [ ("fit_s", Statistics.median times); ("fit_tail_s", tail); ("max_rss_mb", !rss) ];
    rows =
      [ ( "tracing.overhead_ratio",
          overhead_ratio
            (List.map (fun (t, p) -> (t, Array.fold_left (fun a w -> a +. scaled w.Fits.fit) 0. p)) passes) ) ];
    info =
      [ ("fit_wall_s", Jsonx.Num (Statistics.median wall));
        ("passes", Jsonx.Num (float_of_int (List.length passes)));
        ("windows_per_pass", Jsonx.Num (float_of_int (Array.length windows)));
        ("fit_samples", Jsonx.Num (float_of_int (Array.length times))) ]
      @ tail_info;
  }

(* The serve stream, run in traced runs only: a daemon on the same
   topology, preloaded to just under the buffer cap, then an open-loop
   stream for [Serve.window] seconds, every client call in a span. *)
let serve_rows ~args =
  let dir = Filename.concat out_dir (Printf.sprintf "serve-seed%d" args.seed) in
  let pre, batches = Serve.plan ~seed:args.seed ~seconds:Serve.window in
  let d = match Serve.start ~exe:serve_exe ~dir ~seed:args.seed with Ok d -> d | Error m -> failwith m in
  let preload_s = Serve.preload ~port:d.Serve.port pre in
  Spans.enabled := true;
  let o = Serve.run d ~seconds:Serve.window batches in
  Spans.enabled := false;
  Serve.stop_live ();
  let sent = o.Serve.sent in
  let ok = Array.of_list (List.filter (fun s -> s.Serve.code = 200) (Array.to_list sent)) in
  let rejected = Array.length sent - Array.length ok in
  let server_errors =
    Array.fold_left (fun n s -> if s.Serve.code >= 500 then n + 1 else n) 0 sent
    + List.fold_left (fun n p -> if p.Serve.pcode >= 500 then n + 1 else n) 0 o.Serve.polls
  in
  let lat =
    Stats.open_loop_latencies ~due:(Array.map (fun s -> s.Serve.due) ok) ~done_:(Array.map (fun s -> s.Serve.done_) ok)
  in
  let late =
    Stats.lateness ~due:(Array.map (fun s -> s.Serve.due) sent) ~started:(Array.map (fun s -> s.Serve.started) sent)
  in
  let fresh, missing = Serve.freshness batches sent o.Serve.polls in
  let tail xs = match Stats.tail xs with Some t -> t.Stats.value | None -> Array.fold_left Float.max 0. xs in
  let p50 xs = if Array.length xs = 0 then 0. else Statistics.median xs in
  let admitted = Array.fold_left (fun n s -> n + s.Serve.accepted) 0 ok in
  let not_ready = List.filter_map (fun (t, r) -> if r then None else Some t) o.Serve.last_ready in
  let errors =
    (if server_errors > 0 then [ Printf.sprintf "%d answers were 5xx" server_errors ] else [])
    @ (if rejected > 0 then [ Printf.sprintf "%d of %d batches rejected" rejected (Array.length sent) ] else [])
    @ (if not_ready <> [] then [ "tenants not ready at the end: " ^ String.concat " " not_ready ] else [])
    @ if o.Serve.refit.Serve.count <= 0. then [ "no refit in the window" ] else []
  in
  let shard_sum k =
    match o.Serve.shards with
    | Some v ->
        List.fold_left (fun a s -> a +. Option.value ~default:0. (Serve.num (List.assoc_opt k s))) 0. (Serve.shard_list v)
    | None -> 0.
  in
  (* each tenant's admitted fraction as last served; the smallest *)
  let last_fraction =
    List.fold_left
      (fun acc p ->
        if p.Serve.ready then (p.Serve.tenant, p.Serve.sampling_fraction) :: List.remove_assoc p.Serve.tenant acc
        else acc)
      [] o.Serve.polls
    |> List.fold_left (fun m (_, f) -> Float.min m f) 1.0
  in
  let closed = Array.map (fun s -> s.Serve.done_ -. s.Serve.started) ok in
  let non_full = List.length (List.filter (fun p -> p.Serve.ready && not p.Serve.full) o.Serve.polls) in
  ( errors,
    [ ("ingest_p50_s", p50 lat);
      ("ingest_tail_s", tail lat);
      ("freshness_p50_s", p50 fresh);
      ("freshness_tail_s", tail fresh);
      ("admitted_events_per_s", float_of_int admitted /. o.Serve.send_window);
      ("serve.post_ingest_s", p50 closed);
      ("serve.generator_late_s", Stats.percentile late 95.);
      ("serve.preload_s", preload_s);
      ("admission.sampling_fraction", last_fraction);
      ("fleet.queue_wait_p50_s", Serve.hist_quantile o.Serve.queue_wait 0.5);
      ("fleet.queue_wait_p95_s", Serve.hist_quantile o.Serve.queue_wait 0.95);
      ("fleet.refit_p50_s", Serve.hist_quantile o.Serve.refit 0.5);
      ("fleet.refit_p95_s", Serve.hist_quantile o.Serve.refit 0.95);
      ("fleet.refit_mean_s", o.Serve.refit.Serve.sum /. o.Serve.refit.Serve.count);
      ("serve.daemon_rss_mb", o.Serve.daemon_rss_mb);
      ("shards.rounds", shard_sum "rounds");
      ("shards.drain_rate", shard_sum "drain_rate");
      ("shards.non_full_polls", float_of_int non_full);
      ("shards.restarts", shard_sum "restarts") ],
    [ ("offered_rate_events_per_s", Jsonx.Num Serve.offered_rate);
      ("batch_events", Jsonx.Num (float_of_int Serve.batch_events));
      ("tenants", Jsonx.Num (float_of_int Fixture.tenants));
      ("generator_late_max_s", Jsonx.Num (Array.fold_left Float.max 0. late));
      ("ingest_rejected_ratio", Jsonx.Num (float_of_int rejected /. float_of_int (max 1 (Array.length sent))));
      ("freshness_samples", Jsonx.Num (float_of_int (Array.length fresh)));
      ("freshness_missing", Jsonx.Num (float_of_int missing));
      ("window_refits", Jsonx.Num o.Serve.refit.Serve.count);
      ("polls", Jsonx.Num (float_of_int (List.length o.Serve.polls))) ] )

(* ------------------------------------------------------------------ *)
(* Traced run: layer probes and span rows                              *)

(* The supervisor probe: the 12 growing windows and 4 at the cap, twice,
   so chain iterations can be checked to repeat exactly. *)
let probe_rows ~seed large windows =
  let fx = Layers.fixture ~seed large in
  let sub = Array.sub windows 0 (min 16 (Array.length windows)) in
  let pass () =
    let p = Fits.windows_pass ~seed sub in
    Array.iter (fun w -> Option.iter failwith w.Fits.fit.Fits.error) p;
    p
  in
  let p = pass () in
  if Fits.chain_iterations p <> Fits.chain_iterations (pass ()) then
    failwith "supervisor.chain_iterations differs between two passes over the same windows";
  let sup = Layers.supervisor_rows ~seed p sub in
  Layers.ingest_rows fx @ Layers.init_rows fx @ Layers.kernel_rows ~seed fx @ Layers.sweep_rows ~seed fx
  @ Layers.parallel_rows ~seed fx @ Layers.stem_rows ~seed large @ sup

(* Rows that must repeat exactly between two traced runs of one seed by
   the same code. The executable links the qnet libraries statically, so
   its digest names the code under test: the first traced run of a seed
   by this build records the rows, every later one by it compares, and a
   build of other code starts a record of its own. A run whose probes
   failed has no rows and records nothing. *)
let is_exact name =
  List.mem name [ "gibbs.sweep_events"; "stem.iterations"; "supervisor.chain_iterations" ]
  || (List.exists (fun suffix -> String.ends_with ~suffix name) [ "_bytes"; "_bytes_per_event" ]
     (* promotion depends on when minor collections fall *)
     && not (String.starts_with ~prefix:"gc." name))

let check_repeat ~seed rows =
  let exact = List.filter (fun (n, _) -> is_exact n) rows in
  let code = Digest.to_hex (Digest.file Sys.executable_name) in
  let path = Filename.concat out_dir (Printf.sprintf "exact-seed%d-%s.json" seed code) in
  let previous = if Sys.file_exists path then Serve.parse (Serve.read_file path) else None in
  match previous with
  | _ when exact = [] -> []
  | None ->
      write_file path (Jsonx.render (Jsonx.Obj (List.map (fun (n, v) -> (n, Jsonx.Num v)) exact)) ^ "\n");
      []
  | Some previous ->
      List.filter_map
        (fun (n, v) ->
          match Serve.num (List.assoc_opt n previous) with
          | Some v' when Float.equal v v' -> None
          | Some v' -> Some (Printf.sprintf "%s was %.17g in an earlier traced run of seed %d, now %.17g" n v' seed v)
          | None -> Some (Printf.sprintf "%s is missing from the record of seed %d" n seed))
        exact

let span_rows spans =
  let by = Spans.by_layer spans in
  List.concat_map
    (fun l ->
      let self, calls = by l in
      [ ("span." ^ l ^ ".self_s", self); ("span." ^ l ^ ".calls", float_of_int calls) ])
    span_layers

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let main args =
  (match Selftest.run () with
  | [] -> ()
  | fails ->
      prerr_endline ("perfbench: self-test failed: " ^ String.concat "; " fails);
      exit 1);
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let tag = Printf.sprintf "%s-seed%d-trace%d" args.workload args.seed (if args.trace then 1 else 0) in
  (* Set-up runs seven times before the measurement and once more before
     each operation; setup_s is the median of all of them, each scaled to
     nominal host speed like the fits. *)
  let setups = ref [] in
  let setup f =
    Gc.compact ();
    let t0 = now () in
    let r = f () in
    setups := (t0, now ()) :: !setups;
    r
  in
  let setup7 f =
    Host.calibrate ();
    for _ = 1 to 6 do
      ignore (setup f)
    done;
    setup f
  in
  let measured =
    match args.workload with
    | "fit_large" ->
        let make () = Fits.large_input ~seed:args.seed in
        fit_large ~args ~resetup:(fun () -> ignore (setup make)) (setup7 make)
    | _ ->
        let make () = Fits.windows_input ~seed:args.seed in
        refit_windows ~args ~resetup:(fun () -> ignore (setup make)) (setup7 make)
  in
  let errors, rows, info =
    if not args.trace then (measured.errors, [], measured.info)
    else begin
      let large = Fits.large_input ~seed:args.seed in
      let windows = Fits.windows_input ~seed:args.seed in
      (* a probe that fails its own check fails the run, not the process *)
      let guard name f = try f () with Failure m -> ([ name ^ ": " ^ m ], [], []) in
      let probe_errors, probes, _ = guard "probe" (fun () -> ([], probe_rows ~seed:args.seed large windows, [])) in
      let serve_errors, serve, serve_info = guard "serve stream" (fun () -> serve_rows ~args) in
      Spans.enabled := false;
      Serve.stop_live ();
      let spans = Spans.spans () in
      Spans.write_jsonl (Filename.concat out_dir ("spans-" ^ tag ^ ".jsonl")) spans;
      ( measured.errors @ probe_errors @ serve_errors @ check_repeat ~seed:args.seed probes,
        measured.rows @ span_rows spans @ probes @ serve,
        measured.info @ serve_info )
    end
  in
  let setups = Array.of_list (List.rev_map (fun (t0, t1) -> (t1 -. t0) *. Host.scale ~t0 ~t1) !setups) in
  let e2e = ("setup_s", Statistics.median setups) :: measured.e2e in
  let catalogue = if args.trace then per_layer else end_to_end in
  let values = if args.trace then rows else e2e in
  (* a row the workload does not exercise is 0 *)
  let value name = Option.value ~default:0.0 (List.assoc_opt name values) in
  let non_finite = List.filter (fun (n, _) -> not (Float.is_finite (value n))) catalogue in
  let errors = errors @ List.map (fun (n, _) -> n ^ " is not a finite number") non_finite in
  let correct = errors = [] in
  List.iter (fun m -> Printf.printf "CHECK FAILED: %s\n" m) errors;
  Printf.printf "workload %s seed %d seconds %g trace %b\n" args.workload args.seed args.seconds args.trace;
  List.iter (fun (k, v) -> Printf.printf "  %s: %s\n" k (Jsonx.render v)) (fingerprint () @ info);
  List.iter (fun (n, u) -> Printf.printf "  %-38s %.6g %s\n" n (value n) u) catalogue;
  (* the untraced run also prints the workload's own per-layer rows *)
  if not args.trace then
    List.iter (fun (n, v) -> Printf.printf "  %-38s %.6g %s\n" n v (List.assoc n per_layer)) measured.rows;
  let finite v = if Float.is_finite v then v else 0.0 in
  let result =
    Jsonx.Obj
      [ ("correct", Jsonx.Bool correct);
        ("attempted", Jsonx.Num (float_of_int measured.attempted));
        ("failed", Jsonx.Num (float_of_int measured.failed));
        ( "metrics",
          Jsonx.Obj
            (List.map
               (fun (n, u) -> (n, Jsonx.Obj [ ("value", Jsonx.Num (finite (value n))); ("unit", Jsonx.Str u) ]))
               catalogue) ) ]
  in
  let nums kvs = Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Num (finite v))) kvs) in
  write_file
    (Filename.concat out_dir ("report-" ^ tag ^ ".json"))
    (Jsonx.render
       (Jsonx.Obj
          [ ("workload", Jsonx.Str args.workload); ("seed", Jsonx.Num (float_of_int args.seed));
            ("seconds", Jsonx.Num args.seconds); ("trace", Jsonx.Bool args.trace);
            ("host", Jsonx.Obj (fingerprint ())); ("info", Jsonx.Obj info);
            ("setup_s_samples", floats setups);
            ("host_nominal_s", Jsonx.Num Host.nominal_s);
            ("host_reference_s", floats (Array.of_list (Host.references ())));
            ("errors", Jsonx.Arr (List.map (fun e -> Jsonx.Str e) errors));
            ("end_to_end", nums e2e); ("rows", nums (measured.rows @ rows)); ("result", result) ])
    ^ "\n");
  print_endline (Jsonx.render result)

let () =
  match Array.to_list Sys.argv with
  | [ _; "reference" ] -> Printf.printf "%.17g\n" (Host.reference ())
  | [ _; "selftest" ] -> (
      match Selftest.run () with
      | [] -> print_endline "perfbench self-test: ok"
      | fails ->
          List.iter (fun f -> Printf.printf "FAIL %s\n" f) fails;
          exit 1)
  | _ :: rest -> main (parse_args rest)
  | [] -> usage ()
