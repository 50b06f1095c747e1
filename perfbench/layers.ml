(* Per-layer probes for the traced run. Each probe times one layer's
   public functions from outside on the fit_large input (or on the
   refit windows for the supervisor), so a layer's row means the same
   thing whichever workload's traced run reports it. Allocation rows
   are exact counts: every probe that yields one runs twice on
   identical inputs and the two counts must agree. *)

module Rng = Qnet_prob.Rng
module Statistics = Qnet_prob.Statistics
module Piecewise = Qnet_prob.Piecewise
module Trace = Qnet_trace.Trace
module Obs = Qnet_core.Observation
module Store = Qnet_core.Event_store
module Gibbs = Qnet_core.Gibbs
module Init = Qnet_core.Init
module Stem = Qnet_core.Stem
module Parallel_gibbs = Qnet_core.Parallel_gibbs
module Supervisor = Qnet_runtime.Supervisor

let now = Unix.gettimeofday

(* Words allocated so far on this domain, minor and major together
   (promotions are counted in both, hence subtracted once). Starting
   from an empty minor heap makes the minor collections inside a
   measured block fall at the same points on every repeat, so the same
   objects are promoted and the count repeats exactly. *)
let words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let bytes_of_words w = w *. float_of_int (Sys.word_size / 8)

(* Median wall time of [repeats] runs of [f]. *)
let median_time ~repeats f =
  Statistics.median
    (Array.init repeats (fun _ ->
         let t0 = now () in
         f ();
         now () -. t0))

(* Bytes allocated by one run of [f]. *)
let bytes f =
  let w0 = words () in
  f ();
  bytes_of_words (words () -. w0)

(* Rows of a probe whose allocation rows are checked for exact repeat:
   [probe ()] returns (timed rows, deterministic rows); it is run twice. *)
let repeatable name probe =
  let timed, exact = probe () in
  let _, exact' = probe () in
  let mismatches =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k exact' with
        | Some v' when Float.equal v v' -> None
        | Some v' -> Some (Printf.sprintf "%s: %.17g then %.17g" k v v')
        | None -> Some (k ^ ": missing on repeat"))
      exact
  in
  if mismatches <> [] then
    failwith (Printf.sprintf "%s: deterministic rows differ between two runs: %s" name (String.concat "; " mismatches));
  timed @ exact

(* ------------------------------------------------------------------ *)
(* The fit_large store                                                 *)

type fixture = {
  csv : string;
  trace : Trace.t;
  mask : bool array;
  store : Store.t;  (** initialised exactly as Stem.run initialises *)
  params : Qnet_core.Params.t;
  latent : int array;
}

let fixture ~seed (input : Fits.large_input) =
  let trace =
    match Trace.of_csv_lenient ~num_queues:Fixture.num_queues input.Fits.csv with
    | Ok (t, _) -> t
    | Error _ -> failwith "fixture: unparseable CSV"
  in
  let mask = Obs.mask (Rng.create ~seed ()) (Obs.Task_fraction Fixture.large_fraction) trace in
  let store = Store.of_trace ~observed:mask trace in
  let params = Stem.initial_guess store in
  (match Init.feasible ~strategy:Stem.default_config.Stem.init_strategy ~target:params store with
  | Ok () -> ()
  | Error m -> failwith ("fixture: Init.feasible: " ^ m));
  { csv = input.Fits.csv; trace; mask; store; params; latent = Store.unobserved_events store }

let ingest_rows fx =
  let events = float_of_int (Array.length fx.trace.Trace.events) in
  repeatable "ingest" (fun () ->
      let parse () = ignore (Trace.of_csv_lenient ~num_queues:Fixture.num_queues fx.csv) in
      let build () = ignore (Store.of_trace ~observed:fx.mask fx.trace) in
      ( [ ("trace.of_csv_lenient_s", median_time ~repeats:3 parse);
          ("store.of_trace_s", median_time ~repeats:3 build) ],
        [ ("trace.of_csv_lenient_bytes_per_event", bytes parse /. events);
          ("store.of_trace_bytes_per_event", bytes build /. events) ] ))

let init_rows fx =
  let fresh () = Store.of_trace ~observed:fx.mask fx.trace in
  let times =
    Array.init 3 (fun _ ->
        let s = fresh () in
        let t0 = now () in
        (match Init.feasible ~strategy:Stem.default_config.Stem.init_strategy ~target:fx.params s with
        | Ok () -> ()
        | Error m -> failwith ("Init.feasible: " ^ m));
        now () -. t0)
  in
  [ ("init.feasible_s", Statistics.median times) ]

(* Per-call cost of the kernel's pieces over a fixed sample of latent
   events: [calls] calls cycling through the sample. *)
let kernel_rows ~seed fx =
  let sample = Array.sub fx.latent 0 (min 2000 (Array.length fx.latent)) in
  let densities = Array.map (Gibbs.local_density fx.store fx.params) sample in
  let bounded =
    Array.of_list
      (List.filter_map
         (fun (d : Gibbs.local_density) ->
           match d.Gibbs.upper with
           | Some u when u -. d.Gibbs.lower > 1e-9 -> Some (d.Gibbs.lower, u, d.Gibbs.linear, d.Gibbs.hinges)
           | _ -> None)
         (Array.to_list densities))
  in
  let compiled = Array.map (fun (lower, upper, linear, hinges) -> Piecewise.compile ~lower ~upper ~linear ~hinges) bounded in
  let calls = 40_000 in
  (* [per_call f] runs f on call indices 0..calls-1 *)
  let per_call f =
    let run () =
      for i = 0 to calls - 1 do
        f i
      done
    in
    let t = median_time ~repeats:3 run in
    (t /. float_of_int calls *. 1e9, bytes run /. float_of_int calls)
  in
  let n = Array.length sample and nb = Array.length bounded in
  repeatable "kernel" (fun () ->
      let rng = Rng.create ~seed () in
      let rng_ns, rng_b =
        let inner = 25 in
        let ns, b =
          per_call (fun _ ->
              for _ = 1 to inner do
                ignore (Sys.opaque_identity (Rng.float_unit rng))
              done)
        in
        (ns /. float_of_int inner, b /. float_of_int inner)
      in
      let compile_ns, compile_b =
        per_call (fun i ->
            let lower, upper, linear, hinges = bounded.(i mod nb) in
            ignore (Sys.opaque_identity (Piecewise.compile ~lower ~upper ~linear ~hinges)))
      in
      let sample_ns, sample_b =
        per_call (fun i -> ignore (Sys.opaque_identity (Piecewise.sample rng compiled.(i mod nb))))
      in
      let ld_ns, ld_b =
        per_call (fun i -> ignore (Sys.opaque_identity (Gibbs.local_density fx.store fx.params sample.(i mod n))))
      in
      let se_ns, se_b =
        per_call (fun i -> ignore (Sys.opaque_identity (Gibbs.sample_event rng fx.store fx.params sample.(i mod n))))
      in
      ( [ ("rng.float_unit_ns", rng_ns); ("piecewise.compile_ns", compile_ns);
          ("piecewise.sample_ns", sample_ns); ("gibbs.local_density_ns", ld_ns);
          ("gibbs.sample_event_ns", se_ns) ],
        [ ("rng.float_unit_bytes", rng_b); ("piecewise.compile_bytes", compile_b);
          ("piecewise.sample_bytes", sample_b); ("gibbs.local_density_bytes", ld_b);
          ("gibbs.sample_event_bytes", se_b) ] ))

(* Whole sweeps in the order Stem.run uses (shuffled), on a copy of the
   initialised store, with the M-step timed on the swept state. *)
let sweep_rows ~seed fx =
  let sweeps = 5 in
  let events = float_of_int (Array.length fx.latent) in
  repeatable "sweep" (fun () ->
      let store = Store.copy fx.store in
      let rng = Rng.create ~seed () in
      (* the minor collections [words ()] forces itself fall outside
         the count *)
      let w0 = words () in
      let minor0 = (Gc.quick_stat ()).Gc.minor_collections in
      let times =
        Array.init sweeps (fun _ ->
            let t0 = now () in
            Gibbs.sweep ~shuffle:true rng store fx.params;
            now () -. t0)
      in
      let minors = (Gc.quick_stat ()).Gc.minor_collections - minor0 in
      let alloc = bytes_of_words (words () -. w0) in
      let sweep_s = Statistics.median times in
      let mle () = ignore (Stem.mle_step store ~previous:fx.params ~min_queue_events:1) in
      ( [ ("gibbs.sweep_s", sweep_s);
          ("gibbs.sweep_ns_per_event", sweep_s /. events *. 1e9);
          ("gc.minor_per_sweep", float_of_int minors /. float_of_int sweeps);
          ("stem.mle_step_s", median_time ~repeats:5 mle) ],
        [ ("gibbs.sweep_events", events);
          ("gibbs.sweep_bytes_per_event", alloc /. float_of_int sweeps /. events) ] ))

let parallel_rows ~seed fx =
  let store = Store.copy fx.store in
  let plan_s = median_time ~repeats:2 (fun () -> ignore (Parallel_gibbs.plan ~num_domains:2 store)) in
  let plan = Parallel_gibbs.plan ~num_domains:2 store in
  let rng = Rng.create ~seed () in
  [ ("parallel_gibbs.plan_s", plan_s);
    ("parallel_gibbs.sweep_s", median_time ~repeats:3 (fun () -> Parallel_gibbs.sweep rng plan store fx.params)) ]

(* One fit_large fit: StEM iteration timing and the GC work of a fit. *)
let stem_rows ~seed input =
  let q0 = Gc.quick_stat () in
  let fit = Fits.fit_large ~seed input in
  let q1 = Gc.quick_stat () in
  (match fit.Fits.error with Some m -> failwith ("probe fit: " ^ m) | None -> ());
  [ ("stem.iterations", float_of_int (Array.length fit.Fits.iteration_times + 1));
    ("stem.iteration_s", Statistics.median fit.Fits.iteration_times);
    ("gc.minor_collections", float_of_int (q1.Gc.minor_collections - q0.Gc.minor_collections));
    ("gc.major_collections", float_of_int (q1.Gc.major_collections - q0.Gc.major_collections));
    ("gc.promoted_bytes", bytes_of_words (q1.Gc.promoted_words -. q0.Gc.promoted_words)) ]

(* Supervised refit against one unsupervised chain on the same windows. *)
let supervisor_rows ~seed (pass : Fits.window_fit array) windows =
  let results = Array.map (fun w -> Option.get w.Fits.verdict) pass in
  let init k = if k = 0 then None else Some results.(k - 1).Supervisor.params in
  let single = Array.mapi (fun k csv -> Fits.single_chain ~seed:(seed + k) ~init:(init k) csv) windows in
  let run_s = Statistics.median (Array.map (fun w -> w.Fits.fit.Fits.seconds) pass) in
  let single_s = Statistics.median single in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 results in
  let restarts = sum (fun r -> Array.fold_left (fun a v -> a + v.Supervisor.restarts) 0 r.Supervisor.verdicts) in
  let chains = Fits.shard_config.Supervisor.chains * Array.length results in
  [ ("supervisor.run_s", run_s);
    ("supervisor.single_chain_s", single_s);
    ("supervisor.overhead_ratio", run_s /. single_s);
    ("supervisor.chain_iterations", float_of_int (Fits.chain_iterations pass));
    ("supervisor.restarts", float_of_int restarts);
    ("supervisor.healthy_chain_ratio",
      float_of_int (sum (fun r -> r.Supervisor.healthy_chains)) /. float_of_int chains) ]
