module Store = Event_store
module Metrics = Qnet_obs.Metrics
module Span = Qnet_obs.Span
module Clock = Qnet_obs.Clock
module Diagnostics = Qnet_obs.Diagnostics
module Prof = Qnet_obs.Prof

let m_iteration_seconds =
  lazy
    (Metrics.Histogram.create
       ~buckets:[| 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]
       ~help:"Wall time of one StEM iteration (E-step sweep + M-step)"
       "qnet_stem_iteration_seconds")

let m_iterations =
  lazy
    (Metrics.Counter.create ~help:"StEM iterations completed"
       "qnet_stem_iterations_total")

(* M-step acceptance: a queue's rate is updated only when enough
   imputed services support it; held queues keep their previous rate. *)
let m_mstep_updates =
  lazy
    (Metrics.Counter.create
       ~help:"Per-queue M-step rate updates accepted (enough imputed services)"
       "qnet_stem_mstep_updates_total")

let m_mstep_holds =
  lazy
    (Metrics.Counter.create
       ~help:"Per-queue M-step rate updates held back (too few imputed services)"
       "qnet_stem_mstep_holds_total")

type config = {
  iterations : int;
  burn_in : int;
  warmup_sweeps : int;
  init_strategy : Init.strategy;
  shuffle : bool;
  min_queue_events : int;
  prior_strength : float;
}

let default_config =
  {
    iterations = 200;
    burn_in = 100;
    warmup_sweeps = 10;
    init_strategy = Init.Targeted;
    shuffle = true;
    min_queue_events = 1;
    prior_strength = 0.05;
  }

type result = {
  params : Params.t;
  params_last : Params.t;
  history : Params.t array;
  mean_service : float array;
  log_likelihood_history : float array;
}

let initial_guess store =
  let nq = Store.num_queues store in
  let m = Store.num_events store in
  let q0 = Store.arrival_queue store in
  let horizon = ref 0.0 in
  for i = 0 to m - 1 do
    if Store.observed store i then
      horizon := Float.max !horizon (Store.departure store i)
  done;
  let horizon = if !horizon > 0.0 then !horizon else 1.0 in
  let mean_service_guess q =
    let order = Store.events_at_queue store q in
    let n = Array.length order in
    (* (a) Exact services where the whole neighbourhood is observed. *)
    let exact_sum = ref 0.0 and exact_count = ref 0 in
    (* (b) Mean response of observed events: upper bound on service
       (meaningless at q0, where "response" is the entry time). *)
    let resp_sum = ref 0.0 and resp_count = ref 0 in
    (* (c) Mean inter-departure gap between observed events at known
       order indices — the event counter makes the index gap known.
       At q0 this estimates 1/λ exactly; elsewhere it upper-bounds the
       mean service via utilization <= 1. *)
    let first = ref None and last = ref None in
    Array.iteri
      (fun k i ->
        let obs j = j < 0 || Store.observed store j in
        if Store.observed store i then begin
          (match !first with None -> first := Some (k, Store.departure store i) | Some _ -> ());
          last := Some (k, Store.departure store i);
          if obs (Store.pi store i) && obs (Store.rho store i) then begin
            exact_sum := !exact_sum +. Store.service store i;
            incr exact_count
          end
          else if q <> q0 && obs (Store.pi store i) then begin
            resp_sum := !resp_sum +. (Store.departure store i -. Store.arrival store i);
            incr resp_count
          end
        end)
      order;
    let candidates = ref [] in
    if !exact_count >= 3 && !exact_sum > 0.0 then
      candidates := (!exact_sum /. float_of_int !exact_count) :: !candidates;
    if !resp_count >= 3 && !resp_sum > 0.0 then
      candidates := (!resp_sum /. float_of_int !resp_count) :: !candidates;
    (match (!first, !last) with
    | Some (k0, d0), Some (k1, d1) when k1 > k0 && d1 > d0 ->
        candidates := ((d1 -. d0) /. float_of_int (k1 - k0)) :: !candidates
    | _ -> ());
    match !candidates with
    | [] ->
        (* no observation at this queue at all: fall back to the
           horizon-based throughput bound *)
        Float.min (horizon /. float_of_int (Stdlib.max n 1)) horizon
    | cs ->
        (* every candidate is an upper bound on the mean service (or,
           at q0, an estimate of it); take the tightest *)
        List.fold_left Float.min infinity cs
  in
  let rates =
    Array.init nq (fun q -> 1.0 /. Float.max 1e-9 (mean_service_guess q))
  in
  Params.create ~rates ~arrival_queue:q0

let mle_step ?prior store ~previous ~min_queue_events =
  let stats = Store.service_sufficient_stats store in
  let instrumented = Metrics.enabled () in
  Params.map_rates previous (fun q prev ->
      let count, total = stats.(q) in
      if count >= min_queue_events && total > 0.0 then begin
        if instrumented then Metrics.Counter.inc (Lazy.force m_mstep_updates);
        match prior with
        | None -> float_of_int count /. total
        | Some (strength, anchor) ->
            (* MAP under a Gamma prior with pseudo-service mass
               [strength * count * anchor mean]: invisible when the
               imputed services carry real information, but it stops
               the collapse feedback (rates ratcheting to infinity by
               hiding all time in density-free waiting) that pure
               maximum likelihood allows under very sparse
               observation. *)
            let pseudo = strength *. float_of_int count *. Params.mean_service anchor q in
            (float_of_int count +. 1.0) /. (total +. pseudo)
      end
      else begin
        if instrumented then Metrics.Counter.inc (Lazy.force m_mstep_holds);
        prev
      end)

type checkpoint = {
  iteration : int;
  rng_state : int64 array;
  params : Params.t;
  anchor : Params.t;
  snapshot : Store.snapshot;
  history : Params.t array;
  llh : float array;
}

let check_config who c =
  let fail m = invalid_arg (who ^ ": " ^ m) in
  if c.iterations < 1 then fail "need at least one iteration";
  if c.burn_in < 0 || c.burn_in >= c.iterations then
    fail "burn_in must be in [0, iterations)";
  if c.warmup_sweeps < 0 then fail "warmup_sweeps must be >= 0"

module Chain = struct
  type t = {
    config : config;
    rng : Qnet_prob.Rng.t;
    store : Store.t;
    route_fsm : Qnet_fsm.Fsm.t option;
    diag_chain : int;
    anchor : Params.t;
    prior : (float * Params.t) option;  (* the M-step's MAP prior, fixed by the anchor *)
    history : Params.t array;  (* iterates; the valid prefix is [0, it) *)
    llh : float array;
    mutable params : Params.t;
    mutable it : int;
    mutable warmup_left : int;
  }

  let make config ?route_fsm ?(diag_chain = 0) ~anchor rng store =
    if Metrics.enabled () then
      Diagnostics.set_arrival_queue Diagnostics.default (Store.arrival_queue store);
    let prior = if config.prior_strength > 0.0 then Some (config.prior_strength, anchor) else None in
    { config; rng; store; route_fsm; diag_chain; anchor; prior;
      history = Array.make config.iterations anchor;
      llh = Array.make config.iterations nan;
      params = anchor; it = 0; warmup_left = config.warmup_sweeps }

  let create ?(config = default_config) ?init ?route_fsm ?diag_chain rng store =
    check_config "Stem.Chain.create" config;
    let anchor = match init with Some p -> p | None -> initial_guess store in
    let c = make config ?route_fsm ?diag_chain ~anchor rng store in
    Result.map (fun () -> c) (Init.feasible ~strategy:config.init_strategy ~target:anchor store)

  let store c = c.store
  let params c = c.params
  let iteration c = c.it
  let warmup_left c = c.warmup_left

  let iterate c k = if k < c.it then c.history.(k) else invalid_arg "Stem.Chain.iterate"

  let warmup_sweep c =
    Prof.with_phase "stem.warmup" (fun () ->
        Gibbs.sweep ~shuffle:c.config.shuffle c.rng c.store c.params);
    if c.warmup_left > 0 then c.warmup_left <- c.warmup_left - 1

  let warmup c =
    Span.with_span "stem.warmup" (fun () -> while c.warmup_left > 0 do warmup_sweep c done)

  let step ?(before_commit = fun _ _ -> ()) c =
    let instrumented = Metrics.enabled () in
    let t0 = if instrumented then Clock.now () else 0.0 in
    Prof.with_phase "stem.iteration" (fun () ->
        (* Stochastic E-step: one sweep under the current parameters,
           plus a routing sweep when paths are uncertain. *)
        Gibbs.sweep ~shuffle:c.config.shuffle c.rng c.store c.params;
        (match c.route_fsm with
        | Some fsm -> ignore (Path_move.sweep c.rng c.store c.params fsm)
        | None -> ());
        (* M-step (MAP when prior_strength > 0). *)
        let p =
          Prof.with_phase "stem.mstep" (fun () ->
              mle_step ?prior:c.prior c.store ~previous:c.params
                ~min_queue_events:c.config.min_queue_events)
        in
        before_commit c.it p;
        c.params <- p;
        c.history.(c.it) <- p;
        c.llh.(c.it) <-
          Prof.with_phase "stem.loglik" (fun () -> Store.log_likelihood c.store p));
    if instrumented then begin
      Metrics.Histogram.observe (Lazy.force m_iteration_seconds) (Clock.now () -. t0);
      Metrics.Counter.inc (Lazy.force m_iterations);
      (* Convergence diagnostics track the realized (imputed) per-queue
         means of this iterate — the same stochastic quantity the
         supervisor samples — not the smoothed parameter estimate. *)
      Diagnostics.observe_iteration Diagnostics.default ~chain:c.diag_chain
        ~waiting:(Store.mean_waiting_by_queue c.store)
        (Store.mean_service_by_queue c.store)
    end;
    c.it <- c.it + 1

  let snapshot c =
    { iteration = c.it; rng_state = Qnet_prob.Rng.state c.rng; params = c.params;
      anchor = c.anchor; snapshot = Store.snapshot c.store;
      history = Array.sub c.history 0 c.it; llh = Array.sub c.llh 0 c.it }

  let restore c (ck : checkpoint) =
    Store.restore c.store ck.snapshot;
    c.params <- ck.params;
    c.it <- ck.iteration;
    Array.blit ck.history 0 c.history 0 ck.iteration;
    Array.blit ck.llh 0 c.llh 0 ck.iteration;
    c.warmup_left <- 0

  let resume ?(config = default_config) rng store (ck : checkpoint) =
    check_config "Stem.Chain.resume" config;
    if Array.length ck.snapshot.Store.s_departure <> Store.num_events store then
      Error "checkpoint event count does not match store"
    else if Params.num_queues ck.params <> Store.num_queues store then
      Error "checkpoint queue count does not match store"
    else if ck.iteration > config.iterations then
      Error "checkpoint is beyond the configured iteration count"
    else begin
      let c = make config ~anchor:ck.anchor rng store in
      restore c ck;
      Qnet_prob.Rng.set_state rng ck.rng_state;
      Ok c
    end

  let restart c =
    c.params <- c.anchor;
    c.it <- 0;
    c.warmup_left <- c.config.warmup_sweeps

  let rejitter c = Init.feasible ~strategy:c.config.init_strategy ~target:c.anchor c.store

  let average c =
    let nq = Store.num_queues c.store in
    let n = c.it in
    (* Average post-burn-in iterates in mean-service space; a prefix
       that never got past burn-in is averaged whole. *)
    let mean_service =
      if n = 0 then Array.init nq (Params.mean_service c.params)
      else begin
        let burn = if n > c.config.burn_in then c.config.burn_in else 0 in
        let kept = n - burn in
        let acc = Array.make nq 0.0 in
        for i = burn to n - 1 do
          for q = 0 to nq - 1 do
            acc.(q) <-
              acc.(q) +. (Params.mean_service c.history.(i) q /. float_of_int kept)
          done
        done;
        acc
      end
    in
    let rates = Array.map (fun s -> 1.0 /. s) mean_service in
    { params = Params.create ~rates ~arrival_queue:(Store.arrival_queue c.store);
      params_last = c.params; history = Array.sub c.history 0 n; mean_service;
      log_likelihood_history = Array.sub c.llh 0 n }
end

let run ?(config = default_config) ?init ?route_fsm ?diag_chain
    ?(on_iteration = fun _ _ -> ()) rng store =
  Span.with_span "stem.run" @@ fun () ->
  check_config "Stem.run" config;
  let chain =
    match Chain.create ~config ?init ?route_fsm ?diag_chain rng store with
    | Ok c -> c
    | Error msg -> failwith ("Stem.run: initialization failed: " ^ msg)
  in
  Chain.warmup chain;
  for it = 0 to config.iterations - 1 do
    Chain.step chain;
    if Metrics.enabled () then Diagnostics.gc_tick Diagnostics.default;
    on_iteration it (Chain.params chain)
  done;
  Chain.average chain

let estimate_waiting ?(sweeps = 100) ?(burn_in = 50) rng store params =
  if burn_in < 0 || burn_in >= sweeps then
    invalid_arg "Stem.estimate_waiting: burn_in must be in [0, sweeps)";
  Span.with_span "stem.estimate_waiting" (fun () ->
      Prof.with_phase "stem.estimate_waiting" @@ fun () ->
      let nq = Store.num_queues store in
      let acc = Array.make nq 0.0 in
      let kept = sweeps - burn_in in
      for sweep = 0 to sweeps - 1 do
        Gibbs.sweep ~shuffle:true rng store params;
        if sweep >= burn_in then begin
          let w = Store.mean_waiting_by_queue store in
          for q = 0 to nq - 1 do
            acc.(q) <- acc.(q) +. (w.(q) /. float_of_int kept)
          done
        end
      done;
      acc)

