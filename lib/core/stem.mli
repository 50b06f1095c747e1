(** Stochastic EM for queueing-network parameters (Section 4 of the
    paper).

    Each iteration replaces the unobserved departures with {e one}
    Gibbs sweep (the stochastic E-step) and then applies the
    closed-form exponential MLE to the imputed complete data (the
    M-step): [μ̂_q = n_q / Σ_e s_e], with the arrival rate λ̂ arising
    as the rate of the arrival queue q0. Point estimates average the
    post-burn-in iterates, which tames the stationary jitter StEM is
    known for. *)

type config = {
  iterations : int;  (** total StEM iterations (default 200) *)
  burn_in : int;  (** iterations discarded before averaging (default 100) *)
  warmup_sweeps : int;
      (** Gibbs sweeps under the initial parameters before the first
          M-step, letting the latent state decorrelate from the
          initializer (default 10) *)
  init_strategy : Init.strategy;  (** default [Targeted] *)
  shuffle : bool;  (** randomize sweep order each iteration (default true) *)
  min_queue_events : int;
      (** M-step guard: queues with fewer imputed events than this
          keep their previous rate (default 1) *)
  prior_strength : float;
      (** MAP stabilizer: a Gamma prior contributing
          [strength · n_q · (initial mean service)] of pseudo service
          mass per queue. The complete-data likelihood is unbounded
          (all time can hide in density-free waiting while rates grow
          without limit), and under very sparse observation raw StEM
          can ratchet into that degeneracy; a small value (default
          0.05) caps the divergence at a few percent of bias. Set 0
          to recover the paper's plain MLE M-step. *)
}

val default_config : config

type result = {
  params : Params.t;  (** post-burn-in average (in mean-service space) *)
  params_last : Params.t;  (** final iterate *)
  history : Params.t array;  (** every iterate, for diagnostics *)
  mean_service : float array;  (** [1/μ̂_q] per queue, the Figure 4/5 estimate *)
  log_likelihood_history : float array;
      (** complete-data log-likelihood after each iteration *)
}

val initial_guess : Event_store.t -> Params.t
(** A data-driven starting point computed from observed values only:
    exact service MLE where an event's full neighbourhood is observed,
    the inverse mean observed response time otherwise, and a
    throughput-based estimate as the last resort. *)

val mle_step :
  ?prior:float * Params.t ->
  Event_store.t ->
  previous:Params.t ->
  min_queue_events:int ->
  Params.t
(** The M-step on the current imputed state: per-queue exponential
    rate MLE, or MAP when [prior] = (strength, anchor params) is
    given. *)

val check_config : string -> config -> unit
(** [check_config who c] raises [Invalid_argument "<who>: ..."] unless
    [iterations >= 1], [0 <= burn_in < iterations] and
    [warmup_sweeps >= 0]. *)

type checkpoint = {
  iteration : int;  (** iterations completed when the state was captured *)
  rng_state : int64 array;  (** 4-word xoshiro256++ state *)
  params : Params.t;  (** current iterate *)
  anchor : Params.t;
      (** the initial parameters anchoring the M-step's MAP prior —
          without it a resumed run would re-derive a different prior
          and diverge from the uninterrupted one *)
  snapshot : Event_store.snapshot;
  history : Params.t array;  (** iterates [0 .. iteration-1] *)
  llh : float array;  (** log-likelihood per completed iteration *)
}
(** Everything needed to continue a chain bit for bit. *)

(** One StEM chain, the loop of Section 4: a feasible start, warm-up
    sweeps, then one E-step sweep and one M-step per {!step}. It owns
    the store, RNG, anchor and prior, the current iterate, the
    iteration count and the histories. {!run} drives it plainly;
    [Qnet_runtime.Runtime] adds health checks, rollback, checkpoint
    files and a budget around {!step}; [Qnet_runtime.Supervisor] runs
    several on their own domains with heartbeats and restarts. *)
module Chain : sig
  type t

  val create :
    ?config:config ->
    ?init:Params.t ->
    ?route_fsm:Qnet_fsm.Fsm.t ->
    ?diag_chain:int ->
    Qnet_prob.Rng.t ->
    Event_store.t ->
    (t, string) Stdlib.result
  (** {!check_config}, then {!Init.feasible} towards [init] (default
      {!initial_guess}), which becomes the anchor; [Error] carries the
      initializer's reason. Other arguments as for {!run}. *)

  val resume :
    ?config:config ->
    Qnet_prob.Rng.t ->
    Event_store.t ->
    checkpoint ->
    (t, string) Stdlib.result
  (** The chain that wrote [checkpoint], continued (without a route
      FSM, diagnostics chain 0): store, iterate, history and RNG
      restored, no initialization or warm-up. [Error] when it does not
      fit [store] or lies beyond [config.iterations]. *)

  val store : t -> Event_store.t
  val params : t -> Params.t
  val iteration : t -> int

  val iterate : t -> int -> Params.t
  (** [iterate c k] is iterate [k] of the [iteration c] completed. *)

  val warmup_left : t -> int

  val warmup_sweep : t -> unit
  (** One Gibbs sweep under the current iterate, no M-step; counts
      against {!warmup_left}. *)

  val warmup : t -> unit
  (** The remaining warm-up sweeps. *)

  val step : ?before_commit:(int -> Params.t -> unit) -> t -> unit
  (** One iteration: a Gibbs sweep, the {!Path_move} routing sweep
      when there is a [route_fsm], the M-step ({!mle_step}), then the
      iterate and its log-likelihood are recorded. Records the
      [stem.iteration]/[stem.mstep]/[stem.loglik] profiler phases and,
      with metrics on, the [qnet_stem_iteration*] metrics and the
      chain's diagnostics. [before_commit it p] runs just before the
      record; if it raises, iteration [it] is not recorded. *)

  val snapshot : t -> checkpoint

  val restore : t -> checkpoint -> unit
  (** Roll back to a snapshot of this chain, keeping the RNG: it has
      advanced past the failure, so the retry takes a new path. *)

  val restart : t -> unit
  (** Back to the anchor at iteration 0, warm-up due again. *)

  val rejitter : t -> (unit, string) Stdlib.result
  (** {!Init.feasible} towards the anchor, after a rollback. *)

  val average : t -> result
  (** The completed prefix: iterates averaged in mean-service space
      after [burn_in] (over the whole prefix when it is not longer
      than [burn_in]; the current iterate when it is empty). *)
end

val run :
  ?config:config ->
  ?init:Params.t ->
  ?route_fsm:Qnet_fsm.Fsm.t ->
  ?diag_chain:int ->
  ?on_iteration:(int -> Params.t -> unit) ->
  Qnet_prob.Rng.t ->
  Event_store.t ->
  result
(** [run rng store] initializes the latent state ({!Init.feasible}),
    warms up, and runs StEM. [init] overrides {!initial_guess}.
    When metrics are enabled, every iteration feeds the realized
    per-queue means into {!Qnet_obs.Diagnostics.default} under chain
    id [diag_chain] (default 0 — set it when running several chains in
    one process so their traces stay separate).
    When [route_fsm] is given, the routing of unobserved events is
    treated as latent too: every E-step additionally runs one
    Metropolis–Hastings routing sweep ({!Path_move.sweep}) under that
    FSM — the paper's "outer Metropolis-Hastings step" for unknown
    paths. The store is left at the final imputed state. Raises
    [Failure] if initialization fails (inconsistent observations).
    [on_iteration] is called after each M-step with the 0-based
    iteration index and the fresh iterate — a progress/monitoring
    hook. This is {!Chain} driven plainly: create, warm up, step
    [iterations] times, {!Chain.average}. *)

val estimate_waiting :
  ?sweeps:int ->
  ?burn_in:int ->
  Qnet_prob.Rng.t ->
  Event_store.t ->
  Params.t ->
  float array
(** Posterior-mean waiting time per queue under fixed parameters
    (the paper's final step): run the Gibbs sampler for [sweeps]
    (default 100) sweeps, discard [burn_in] (default 50), and average
    each queue's mean waiting time across retained sweeps. *)
