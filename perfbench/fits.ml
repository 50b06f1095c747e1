(* The two analyst workloads: one large batch fit, and the windowed
   supervised refits a shard runs. Every fit goes through the same
   public calls and initializer path (Stem.run / Supervisor.run both run
   Init.feasible with the Targeted strategy), and every call into a
   layer is wrapped in a span for the traced run. *)

module Rng = Qnet_prob.Rng
module Trace = Qnet_trace.Trace
module Obs = Qnet_core.Observation
module Store = Qnet_core.Event_store
module Stem = Qnet_core.Stem
module Supervisor = Qnet_runtime.Supervisor

let now = Unix.gettimeofday

type fit = {
  started : float;
  seconds : float;
  error : string option;  (** [None] when the fit passed its checks *)
  iteration_times : float array;  (** seconds per StEM iteration *)
}

let parse csv =
  match
    Spans.record ~layer:"trace" "Trace.of_csv_lenient" (fun () ->
        Trace.of_csv_lenient ~num_queues:Fixture.num_queues csv)
  with
  | Ok (trace, _report) -> trace
  | Error _ -> failwith "no event survived Trace.of_csv_lenient"

let mask rng fraction trace =
  Spans.record ~layer:"observation" "Observation.mask" (fun () ->
      Obs.mask rng (Obs.Task_fraction fraction) trace)

let store_of mask trace =
  Spans.record ~layer:"store" "Event_store.of_trace" (fun () -> Store.of_trace ~observed:mask trace)

(* Time [f]; [compact] first compacts the heap, so that each repeat of a
   large fit starts from the same heap state. *)
let timed ?(compact = false) f =
  if compact then Gc.compact ();
  let t0 = now () in
  let r = try Ok (f ()) with Failure m | Invalid_argument m -> Error m in
  (r, t0, now () -. t0)

(* ------------------------------------------------------------------ *)
(* fit_large                                                           *)

(* 20 StEM iterations after 10 warm-up sweeps: long enough that the
   sweep dominates, short enough for several fits per run. *)
let large_config = { Stem.default_config with Stem.iterations = 20; burn_in = 10 }

(* Largest relative error of any queue's mean-service estimate against
   the simulator's realised mean. At 5% observation StEM keeps a
   systematic bias on the busiest tier (25-45% across seeds 1-10 at
   these settings, for any iteration count from 10 to 80); the
   tolerance sits well above that. It catches a kernel that drifts,
   not one that does nothing (see [min_moved_share]). *)
let large_tolerance = 0.75

let max_rel_error ~truth estimate =
  let worst = ref 0.0 in
  Array.iteri
    (fun q m -> worst := Float.max !worst (Float.abs (m -. truth.(q)) /. truth.(q)))
    estimate;
  !worst

(* The estimates alone cannot tell a working kernel from one that does
   nothing: with Gibbs.sweep made a no-op, the M-step on the initialised
   state stays inside the accuracy tolerance. So each fit must also move
   the latent departures away from where the initializer put them; a
   working sweep resamples nearly all of them. [initialised] holds the
   latent departures as Stem.run initialises them (Init.feasible towards
   Stem.initial_guess on the fit's mask), computed once, before the
   first fit, so the fits' peak memory is not raised by a second store. *)
let min_moved_share = 0.9

type large_input = { csv : string; truth : float array; latent : int; initialised : float array Lazy.t }

let initialised_departures ~seed csv =
  match Trace.of_csv_lenient ~num_queues:Fixture.num_queues csv with
  | Error _ -> failwith "no event survived Trace.of_csv_lenient"
  | Ok (trace, _) -> (
      let mask = Obs.mask (Rng.create ~seed ()) (Obs.Task_fraction Fixture.large_fraction) trace in
      let store = Store.of_trace ~observed:mask trace in
      match
        Qnet_core.Init.feasible ~strategy:large_config.Stem.init_strategy ~target:(Stem.initial_guess store)
          store
      with
      | Ok () -> Array.map (Store.departure store) (Store.unobserved_events store)
      | Error m -> failwith ("Init.feasible: " ^ m))

let moved_share ~initialised store =
  let latent = Store.unobserved_events store in
  let moved = ref 0 in
  Array.iteri (fun k i -> if Store.departure store i <> initialised.(k) then incr moved) latent;
  float_of_int !moved /. float_of_int (max 1 (Array.length latent))

let large_input ~seed =
  let trace = Fixture.simulate ~seed ~tasks:Fixture.large_tasks in
  let csv = Trace.to_csv trace in
  let latent =
    let mask = Obs.mask (Rng.create ~seed ()) (Obs.Task_fraction Fixture.large_fraction) trace in
    Array.fold_left (fun n o -> if o then n else n + 1) 0 mask
  in
  { csv; truth = Fixture.true_mean_service trace; latent; initialised = lazy (initialised_departures ~seed csv) }

let fit_large ~seed input =
  let initialised = try Ok (Lazy.force input.initialised) with Failure m -> Error m in
  let stamps = ref [] in
  let r, started, seconds =
    timed ~compact:true (fun () ->
        let rng = Rng.create ~seed () in
        let trace = parse input.csv in
        let m = mask rng Fixture.large_fraction trace in
        let store = store_of m trace in
        let t0 = now () in
        stamps := [ t0 ];
        let result =
          Spans.record ~layer:"stem" "Stem.run" (fun () ->
              Stem.run ~config:large_config
                ~on_iteration:(fun _ _ -> stamps := now () :: !stamps)
                rng store)
        in
        (store, result))
  in
  let error =
    match (initialised, r) with
    | Error m, _ | _, Error m -> Some m
    | Ok initialised, Ok (store, result) -> (
        match Spans.record ~layer:"store" "Event_store.validate" (fun () -> Store.validate store) with
        | Error m -> Some ("Event_store.validate: " ^ m)
        | Ok () ->
            let err = max_rel_error ~truth:input.truth result.Stem.mean_service in
            let moved = moved_share ~initialised store in
            if err > large_tolerance then
              Some (Printf.sprintf "mean service off by %.0f%% (tolerance %.0f%%)" (100. *. err) (100. *. large_tolerance))
            else if moved < min_moved_share then
              Some
                (Printf.sprintf "the fit moved %.0f%% of latent departures from the initializer's (need %.0f%%)"
                   (100. *. moved) (100. *. min_moved_share))
            else None)
  in
  let stamps = Array.of_list (List.rev !stamps) in
  let iteration_times =
    (* the first stamp is the start of Stem.run: init and warm-up come
       before the first iteration's stamp, so they are left out *)
    if Array.length stamps < 3 then [||]
    else Array.init (Array.length stamps - 2) (fun i -> stamps.(i + 2) -. stamps.(i + 1))
  in
  { started; seconds; error; iteration_times }

(* ------------------------------------------------------------------ *)
(* refit_windows                                                       *)

(* The shard's refit settings (lib/serve/shard.ml, fit_tenant). *)
let shard_config =
  let iterations = 30 in
  {
    Supervisor.default_config with
    Supervisor.chains = 2;
    min_chains = 1;
    stem = { Stem.default_config with Stem.iterations; burn_in = iterations / 2 };
    round_iterations = max 5 (iterations / 4);
    sweep_deadline = 5.0;
    max_restarts = 1;
  }

(* 12 growing windows, then the first full window and 22 slides of it. *)
let sliding_windows = 22

let windows_input ~seed =
  let needed = List.fold_left max 0 (Fixture.window_ends ~sliding:sliding_windows) in
  (* tenant 0 owns a quarter of the tasks; 4 events a task *)
  let trace = Fixture.simulate ~seed:(seed + 1) ~tasks:(needed + 400) in
  Array.of_list (Fixture.windows (Fixture.tenant_stream trace ~tenant:0) ~sliding:sliding_windows)

type window_fit = {
  fit : fit;
  events : int;
  verdict : Supervisor.result option;
}

(* One window as the shard fits it: parse, mask at 0.5, supervised
   fit warm-started from [init]. *)
let fit_window ~seed ~init csv =
  let events = ref 0 in
  let r, started, seconds =
    timed (fun () ->
        let trace = parse csv in
        events := Array.length trace.Trace.events;
        let rng = Rng.create ~seed () in
        let m = mask rng Fixture.shard_fraction trace in
        Spans.record ~layer:"supervisor" "Supervisor.run" (fun () ->
            Supervisor.run ~config:shard_config ?init ~seed (fun () -> store_of m trace)))
  in
  let error, verdict =
    match r with
    | Error m -> (Some m, None)
    | Ok res when res.Supervisor.status <> Supervisor.Quorum ->
        ( Some
            (Format.asprintf "window of %d events ended %a" !events
               Supervisor.pp_ensemble_status res.Supervisor.status),
          Some res )
    | Ok res -> (None, Some res)
  in
  { fit = { started; seconds; error; iteration_times = [||] }; events = !events; verdict }

(* One pass over every window, each warm-started from the previous
   window's estimate; the first window of a pass starts cold. *)
let windows_pass ~seed windows =
  let init = ref None in
  Array.mapi
    (fun k csv ->
      let w = fit_window ~seed:(seed + k) ~init:!init csv in
      Option.iter (fun r -> init := Some r.Supervisor.params) w.verdict;
      w)
    windows

(* Chain iterations a pass did, over every window and chain. *)
let chain_iterations pass =
  Array.fold_left
    (fun acc w ->
      match w.verdict with
      | None -> acc
      | Some r -> Array.fold_left (fun a v -> a + v.Supervisor.iterations_done) acc r.Supervisor.verdicts)
    0 pass

(* The same window through one unsupervised chain with the same StEM
   settings: what the supervision costs. *)
let single_chain ~seed ~init csv =
  let (_ : (Stem.result, string) result), _, seconds =
    timed (fun () ->
        let trace = parse csv in
        let rng = Rng.create ~seed () in
        let m = mask rng Fixture.shard_fraction trace in
        let store = store_of m trace in
        Spans.record ~layer:"stem" "Stem.run" (fun () ->
            Stem.run ~config:shard_config.Supervisor.stem ?init rng store))
  in
  seconds
