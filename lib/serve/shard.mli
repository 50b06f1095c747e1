(** A shard: one crash-tolerant worker owning the tenants routed to it.

    Each shard runs a worker thread that drains its bounded ingest
    queue, appends accepted events to a per-shard event log, and —
    when a tenant has accumulated enough fresh events — refits that
    tenant's posterior by handing the buffered trace to the existing
    supervised multi-chain StEM runtime ({!Qnet_runtime.Supervisor}),
    warm-started from the previous posterior. The buffered events go
    through {!Qnet_trace.Trace.of_events_lenient} first — the repair
    step of {!Qnet_trace.Trace.of_csv_lenient}, on the typed events —
    so the same repair machinery that protects batch ingestion
    (duplicates, broken chains, reversed intervals) protects the
    streaming path; repair drops are counted, never fatal.

    {b Crash tolerance.} The worker is supervised in-process: any
    exception (including an injected {!Qnet_runtime.Fault.Shard_crash})
    moves the shard to [Restarting], sleeps an exponential backoff,
    and re-enters the loop — state, buffers and posteriors intact —
    until the restart budget is exhausted, after which the shard is
    [Failed] but its last posteriors remain servable (stale). Across
    {e process} restarts the shard recovers from its data directory:
    a versioned single-line JSON checkpoint (counters + per-tenant
    posteriors, written atomically via tmp-rename) plus an append-only
    event log that is replayed through the ingest decoder and
    compacted at each checkpoint. Iteration counters are monotone
    across a graceful restart; a hard kill loses at most the rounds
    since the last checkpoint.

    {b Degradation.} A fit failure (lenient repair leaves nothing
    usable, or the supervised run ends [Failed]) marks the shard
    [Degraded] but keeps the previous posterior; a checkpoint-write
    failure is counted and retried next round. The posterior endpoint
    therefore never has to 500 — the worst case is a [stale] flag.

    {b Degradation ladder.} Orthogonal to worker liveness, each shard
    sits on a rung of {!level}: [Full_fits] (supervised multi-chain
    refits; hot tenants individually degrade to incremental),
    [Incremental] (bounded-memory {!Qnet_core.Online_stem} refits
    warm-started from the previous posterior), and [Pinned] (stale
    serve only). One refit round over the [fit_deadline] budget or an
    ingest queue past [hot_watermark] demotes a rung; two blown rounds
    running, or [breaker_restarts] watchdog restarts within
    [breaker_window] seconds (the restart circuit breaker), pin the
    shard. Promotion requires [promote_rounds] consecutive clean
    evaluations (hysteresis), one rung at a time. The current rung and
    its {!degraded_reason} are surfaced on [/shards.json], posterior
    responses and the [qnet_serve_degrade_*] metrics — never a 500.

    {b Durable-log hardening.} Event-log records and the checkpoint
    line are CRC32-framed ({!Framed_log}); replay truncates a torn
    tail back to the last valid frame, quarantines corrupt frames to
    [log-quarantine.jsonl] with exact counts, and reads the rotated
    segment ([events.log.1], written when the active segment exceeds
    [max_log_bytes]) before the active one. Compaction at checkpoint
    folds both segments back into one. *)

module Fault = Qnet_runtime.Fault

type config = {
  num_queues : int;
  queue_capacity : int;
  refit_events : int;
      (** fresh events per tenant that trigger a refit (default 120) *)
  refit_interval : float;
      (** seconds after which any fresh events at all trigger a refit
          (default 2.0) *)
  min_tenant_events : int;
      (** tenants with fewer buffered events are not fitted (default 40) *)
  max_tenant_events : int;
      (** per-tenant buffer bound: the buffer is a FIFO queue that
          drops its oldest event once it holds more than this, and the
          lenient rebuild re-repairs the window (default 4000) *)
  obs_fraction : float;
      (** observation mask fraction applied before fitting — the
          paper's sampled-tracing regime (default 0.5) *)
  chains : int;  (** supervised chains per fit (default 2) *)
  min_chains : int;  (** quorum for a fit (default 1) *)
  fit_iterations : int;  (** StEM iterations per fit (default 30) *)
  sweep_deadline : float;  (** watchdog deadline inside a fit (default 5.0) *)
  max_restarts : int;  (** shard restart budget (default 3) *)
  backoff_base : float;  (** first restart delay, seconds (default 0.25) *)
  backoff_max : float;  (** backoff ceiling, seconds (default 4.0) *)
  poll_interval : float;  (** queue poll period, seconds (default 0.05) *)
  seed : int;
  fit_deadline : float;
      (** wall-clock budget for one refit round; a round over budget
          demotes the shard a ladder rung (default 10.0) *)
  hot_tenant_events : int;
      (** a tenant with this many unfitted events gets incremental
          refits even on a [Full_fits] shard (default 960) *)
  breaker_restarts : int;
      (** restarts within [breaker_window] that trip the circuit
          breaker (default 3) *)
  breaker_window : float;  (** seconds (default 30.0) *)
  breaker_cooldown : float;
      (** minimum seconds pinned after a breaker trip (default 10.0) *)
  promote_rounds : int;
      (** consecutive clean evaluations required to climb one rung
          (default 3) *)
  hot_watermark : float;
      (** queue fraction at or above which the shard demotes
          (default 0.75) *)
  cool_watermark : float;
      (** queue fraction at or below which an evaluation counts as
          clean (default 0.25) *)
  max_log_bytes : int;
      (** active event-log segment size that triggers rotation
          (default 4 MiB) *)
}

val default_config : config

type status =
  | Starting
  | Healthy
  | Degraded of string  (** serving, but the last fit round went wrong *)
  | Restarting of int  (** in backoff before restart attempt [n] *)
  | Failed of string  (** restart budget exhausted; posteriors stay servable *)

val status_label : status -> string
(** Lowercase token for JSON/metrics ("healthy", "restarting", ...). *)

type fit_mode = Full | Incremental | Checkpoint
(** How a served posterior was produced: a supervised multi-chain
    refit, an incremental {!Qnet_core.Online_stem} refit, or read back
    from the checkpoint at start. *)

val fit_mode_label : fit_mode -> string
(** "full" | "incremental" | "checkpoint" — the [fit_mode] of
    [posterior.json] and the [mode] attribute of [serve.refit] spans. *)

type level = Full_fits | Incremental | Pinned
(** The degradation ladder, from freshest to stalest serving mode. *)

val level_label : level -> string
(** "full" | "incremental" | "pinned". *)

val level_rank : level -> int
(** 0 | 1 | 2 — the [qnet_serve_degrade_level] gauge value. *)

type posterior = {
  tenant : string;
  params : Qnet_core.Params.t;
  mean_service : float array;
  iteration : int;  (** shard iteration counter when this was fitted *)
  round : int;
  num_events : int;  (** events in the fitted window *)
  from_checkpoint : bool;  (** resumed, not yet refreshed by a live fit *)
  fitted_at : float;  (** {!Qnet_obs.Clock.now} at fit (0 for resumed) *)
  fit_mode : fit_mode;
}

(** The checkpoint codec, exposed for tests: one line of JSON,
    version-tagged, written atomically. *)
module Ckpt : sig
  val version : int

  type tenant_entry = {
    tenant : string;
    rates : float array;
    arrival_queue : int;
    mean_service : float array;
    iteration : int;
    round : int;
    num_events : int;
  }

  type snapshot = {
    iterations : int;
    rounds : int;
    restarts : int;
    tenants : tenant_entry list;
  }

  val to_line : snapshot -> string

  val of_line : string -> (snapshot, string) result
  (** [Error] on malformed JSON, wrong/missing version, or invalid
      rates; never raises. *)
end

val backoff : base:float -> max_:float -> int -> float
(** [backoff ~base ~max_ attempt] — [base * 2^(attempt-1)] capped at
    [max_]; [attempt] is 1-based. *)

type item = {
  record : Ingest.record;
  trace : Qnet_obs.Trace_ctx.t option;
      (** the trace context minted at [POST /ingest] for the ~1% of
          requests head-sampled into a trace; [None] otherwise *)
  enqueued_at : float;
      (** enqueue time on the {!Qnet_obs.Clock.elapsed} scale, used by
          the worker to attribute per-tenant queue-wait; [nan] marks
          items that never crossed the queue (durable-log replay) and
          suppresses their wait accounting *)
}
(** What travels through a shard's ingest queue. *)

type t

val create :
  ?faults:Fault.service_fault list ->
  ?started_at:float ->
  dir:string ->
  id:int ->
  config ->
  (t, string) result
(** Creates the data directory, resumes from [shard.ckpt] /
    [events.log] when present, and starts the worker thread. [faults]
    are the service faults addressed to this shard; [started_at]
    anchors their [after] offsets (default: now). *)

val id : t -> int
val queue : t -> item Bounded_queue.t
val status : t -> status
val iterations : t -> int
val rounds : t -> int
val restarts : t -> int
val resumed : t -> bool
val queue_depth : t -> int
val last_error : t -> string option

val level : t -> level
(** Current degradation-ladder rung. *)

val degraded_reason : t -> string option
(** Why the shard sits below [Full_fits] ([None] when healthy). *)

val drain_rate : t -> float
(** EWMA of events/s actually absorbed from the ingest queue — the
    input to honest [Retry-After] arithmetic. 0 before any drain. *)

val refit_lag : t -> float
(** Seconds since the last fit scan while unfitted events are
    pending; 0 when nothing is waiting. *)

val log_corrupt_frames : t -> int
(** Durable-log frames quarantined during this process's replay. *)

val log_torn_tails : t -> int
(** Torn tails truncated during this process's replay. *)

val replayed_events : t -> int
(** Events successfully replayed from the durable log at start. *)

val tenants : t -> string list
(** Sorted; tenants with any buffered events or posterior. *)

val posterior : t -> tenant:string -> posterior option
val knows_tenant : t -> tenant:string -> bool

val stop : t -> unit
(** Graceful: close the queue, drain it, write a final checkpoint,
    join the worker. Idempotent. *)
