module Params = Qnet_core.Params
module Stem = Qnet_core.Stem
module Chain = Stem.Chain
module Metrics = Qnet_obs.Metrics
module Span = Qnet_obs.Span

let m_incidents =
  lazy
    (Metrics.Counter.create
       ~help:"Validation failures and exceptions recovered by rollback-and-retry"
       "qnet_runtime_incidents_total")

let m_iterations =
  lazy
    (Metrics.Counter.create ~help:"Checkpointed-runtime iterations committed"
       "qnet_runtime_iterations_total")

type config = {
  stem : Stem.config;
  checkpoint_every : int;
  checkpoint_path : string option;
  validate_every : int;
  max_retries : int;
  max_seconds : float option;
}

let default_config =
  {
    stem = Stem.default_config;
    checkpoint_every = 25;
    checkpoint_path = None;
    validate_every = 10;
    max_retries = 3;
    max_seconds = None;
  }

type status = Completed | Budget_exhausted | Aborted of string

type incident = { at_iteration : int; cause : string }

type report = {
  iterations_done : int;
  retries : int;
  incidents : incident list;
  checkpoints_written : int;
  resumed_at : int option;
  wall_seconds : float;
}

type result = {
  params : Params.t;
  params_last : Params.t;
  history : Params.t array;
  mean_service : float array;
  log_likelihood_history : float array;
  status : status;
  report : report;
}

let pp_status ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Budget_exhausted -> Format.pp_print_string ppf "budget-exhausted"
  | Aborted m -> Format.fprintf ppf "aborted (%s)" m

let pp_report ppf r =
  Format.fprintf ppf
    "runtime: %d iterations in %.2fs, %d retries, %d checkpoints written%a@."
    r.iterations_done r.wall_seconds r.retries r.checkpoints_written
    (fun ppf -> function
      | Some it -> Format.fprintf ppf ", resumed at iteration %d" it
      | None -> ())
    r.resumed_at;
  List.iter
    (fun i -> Format.fprintf ppf "  incident at iteration %d: %s@." i.at_iteration i.cause)
    r.incidents

(* Single clamped time source for the whole runtime (D001): wall time
   only ever flows through the high-water-marked telemetry clock. *)
let now () = Qnet_obs.Clock.now ()

(* A health check failing inside [Chain.step]'s [before_commit] hook:
   the iteration is not recorded and the run rolls back. *)
exception Unhealthy of string

let run ?(config = default_config) ?init ?resume ?chaos rng store =
  Span.with_span "runtime.run" @@ fun () ->
  let c = config.stem in
  Stem.check_config "Runtime.run" c;
  if config.validate_every < 1 then
    invalid_arg "Runtime.run: validate_every must be >= 1";
  if config.checkpoint_every < 0 then
    invalid_arg "Runtime.run: checkpoint_every must be >= 0";
  if config.max_retries < 0 then invalid_arg "Runtime.run: max_retries must be >= 0";
  let t0 = now () in
  let iterations = c.Stem.iterations in
  let chain =
    match resume with
    | Some ck -> (
        match Chain.resume ~config:c rng store ck with
        | Ok chain -> chain
        | Error msg -> invalid_arg ("Runtime.run: " ^ msg))
    | None -> (
        match Chain.create ~config:c ?init rng store with
        | Ok chain ->
            Chain.warmup chain;
            chain
        | Error msg -> failwith ("Runtime.run: initialization failed: " ^ msg))
  in
  let checkpoints_written = ref 0 in
  let persist ck =
    match config.checkpoint_path with
    | Some path ->
        Checkpoint.save ~path ck;
        incr checkpoints_written
    | None -> ()
  in
  (* The rollback point. Even with checkpointing disabled we keep the
     initial state so the first recovery has somewhere to go. *)
  let last_good = ref (Chain.snapshot chain) in
  let incidents = ref [] in
  let retries = ref 0 in
  let validate_every = ref config.validate_every in
  let stop = ref None in
  let at_checkpoint it =
    config.checkpoint_every > 0 && (it + 1) mod config.checkpoint_every = 0
  in
  (* Runs between the M-step and the record of iteration [it]. *)
  let before_commit it p =
    (match chaos with Some f -> f it store | None -> ());
    let at_validation = (it + 1) mod !validate_every = 0 || it + 1 = iterations in
    (* Always validate what is about to become a rollback point: a
       poisoned "last good" state would make recovery a no-op. *)
    if at_validation || at_checkpoint it then
      match Health.check store p with
      | [] -> ()
      | vs -> raise (Unhealthy (Health.describe vs))
  in
  while !stop = None && Chain.iteration chain < iterations do
    let at = Chain.iteration chain in
    (match Chain.step ~before_commit chain with
    | () ->
        if Metrics.enabled () then Metrics.Counter.inc (Lazy.force m_iterations);
        if at_checkpoint at then begin
          let ck = Chain.snapshot chain in
          last_good := ck;
          persist ck
        end
    | exception exn ->
        let cause =
          match exn with
          | Unhealthy cause -> cause
          | exn -> "exception: " ^ Printexc.to_string exn
        in
        incidents := { at_iteration = at; cause } :: !incidents;
        if Metrics.enabled () then Metrics.Counter.inc (Lazy.force m_incidents);
        if !retries >= config.max_retries then
          stop :=
            Some
              (Aborted
                 (Printf.sprintf "%d retries exhausted; last incident: %s"
                    config.max_retries cause))
        else begin
          incr retries;
          (* Roll back to the last state that passed validation,
             re-jitter the latents (Init restores feasibility even if
             the rollback state was somehow damaged in memory), and
             take one fresh sweep: the RNG has advanced past the state
             that led into the fault, so the retry follows a different
             sampling path instead of replaying the crash. *)
          Chain.restore chain !last_good;
          match Chain.rejitter chain with
          | Error msg -> stop := Some (Aborted ("re-initialization failed: " ^ msg))
          | Ok () ->
              Chain.warmup_sweep chain;
              (* Exponential backoff on the validation cadence: repeated
                 transient violations should not thrash rollback. *)
              validate_every := Stdlib.min (2 * !validate_every) iterations
        end);
    match config.max_seconds with
    | Some budget
      when !stop = None && Chain.iteration chain < iterations && now () -. t0 >= budget ->
        stop := Some Budget_exhausted
    | _ -> ()
  done;
  let done_ = Chain.iteration chain in
  (* Persist the final state when it is not already on disk, so a
     budget-exhausted or completed run can be extended later. *)
  if config.checkpoint_every > 0 && done_ > 0 && done_ mod config.checkpoint_every <> 0
  then persist (Chain.snapshot chain);
  let { Stem.params; params_last; history; mean_service; log_likelihood_history } =
    Chain.average chain
  in
  {
    params; params_last; history; mean_service; log_likelihood_history;
    status = (match !stop with Some s -> s | None -> Completed);
    report =
      {
        iterations_done = done_;
        retries = !retries;
        incidents = List.rev !incidents;
        checkpoints_written = !checkpoints_written;
        resumed_at = Option.map (fun ck -> ck.Checkpoint.iteration) resume;
        wall_seconds = now () -. t0;
      };
  }

let resume_file ?config ?chaos ~path rng store =
  match Checkpoint.load ~path with
  | Error m -> Error m
  | Ok ck -> (
      try Ok (run ?config ~resume:ck ?chaos rng store)
      with Invalid_argument m -> Error m)
