(* Tests for the supervised multi-chain runtime: watchdog heartbeats
   and deadlines, chain-level fault injection (stall / crash /
   latent corruption), quarantine and restart, graceful degradation,
   quorum pooling, and the cross-chain divergence statistics. *)

module Rng = Qnet_prob.Rng
module Statistics = Qnet_prob.Statistics
module Welford = Statistics.Welford
module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Stem = Qnet_core.Stem
module Obs = Qnet_core.Observation
module Topologies = Qnet_des.Topologies
module Health = Qnet_runtime.Health
module Fault = Qnet_runtime.Fault
module Watchdog = Qnet_runtime.Watchdog
module Supervisor = Qnet_runtime.Supervisor

let tandem_net () =
  Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 15.0; 12.0 ]

(* Fresh, independent store per call — same trace and mask every time
   (fixed simulation seed), so chains differ only by their RNG. *)
let make_store () =
  let rng = Rng.create ~seed:41 () in
  let _, _, store =
    Net_helpers.masked_store ~scheme:(Obs.Task_fraction 0.5) rng (tandem_net ()) 120
  in
  store

let sup_config ?(chains = 4) ?(min_chains = 2) ?(iterations = 36)
    ?(burn_in = 12) ?(round_iterations = 8) ?(max_restarts = 2)
    ?(deadline = 5.0) ?(grace = 2.0) () =
  {
    Supervisor.default_config with
    Supervisor.chains;
    min_chains;
    stem = { Stem.default_config with Stem.iterations; burn_in; warmup_sweeps = 5 };
    round_iterations;
    max_restarts;
    sweep_deadline = deadline;
    stall_grace = grace;
    poll_interval = 0.002;
  }

let verdict_t = Alcotest.testable Supervisor.pp_verdict ( = )

let is_healthy (v : Supervisor.chain_verdict) =
  v.Supervisor.status = Supervisor.Healthy

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let has_incident substr (v : Supervisor.chain_verdict) =
  List.exists (fun (_, cause) -> contains cause substr) v.Supervisor.incidents

(* ------------------------------------------------------------------ *)
(* Watchdog unit tests *)
(* ------------------------------------------------------------------ *)

let verdict_kind = function
  | Watchdog.Done -> "done"
  | Watchdog.Alive _ -> "alive"
  | Watchdog.Stalled _ -> "stalled"

let test_watchdog_heartbeat () =
  let hb = Watchdog.Heartbeat.create () in
  Alcotest.(check bool) "fresh heartbeat is done" true (Watchdog.Heartbeat.is_done hb);
  Watchdog.Heartbeat.arm hb ~now:100.0;
  Alcotest.(check bool) "armed heartbeat is live" false (Watchdog.Heartbeat.is_done hb);
  let wd = Watchdog.create ~deadline:1.0 [| hb |] in
  Alcotest.(check string) "fresh arm is alive" "alive"
    (verdict_kind (Watchdog.poll ~now:100.5 wd).(0));
  Watchdog.Heartbeat.beat hb ~now:101.0 ~sweep:3;
  let at, sweep = Watchdog.Heartbeat.last hb in
  Alcotest.(check (float 0.0)) "beat time" 101.0 at;
  Alcotest.(check int) "beat sweep" 3 sweep;
  Alcotest.(check int) "beat count" 1 (Watchdog.Heartbeat.beats hb);
  Alcotest.(check string) "within deadline" "alive"
    (verdict_kind (Watchdog.poll ~now:101.9 wd).(0));
  Alcotest.(check string) "past deadline" "stalled"
    (verdict_kind (Watchdog.poll ~now:102.5 wd).(0));
  Alcotest.(check (list int)) "stalled indices" [ 0 ]
    (Watchdog.stalled ~now:102.5 wd);
  Watchdog.Heartbeat.mark_done hb;
  Alcotest.(check string) "done beats the deadline" "done"
    (verdict_kind (Watchdog.poll ~now:200.0 wd).(0));
  Alcotest.(check (list int)) "no stalls once done" []
    (Watchdog.stalled ~now:200.0 wd);
  Alcotest.check_raises "non-positive deadline rejected"
    (Invalid_argument "Watchdog.create: deadline must be finite and positive")
    (fun () -> ignore (Watchdog.create ~deadline:0.0 [||]))

let test_watchdog_rearm_preserves_beats () =
  let hb = Watchdog.Heartbeat.create () in
  Watchdog.Heartbeat.arm hb ~now:1.0;
  Watchdog.Heartbeat.beat hb ~now:2.0 ~sweep:0;
  Watchdog.Heartbeat.beat hb ~now:3.0 ~sweep:1;
  Watchdog.Heartbeat.mark_done hb;
  Watchdog.Heartbeat.arm hb ~now:10.0;
  Alcotest.(check bool) "re-armed" false (Watchdog.Heartbeat.is_done hb);
  Alcotest.(check int) "beats survive re-arm" 2 (Watchdog.Heartbeat.beats hb);
  let at, _ = Watchdog.Heartbeat.last hb in
  Alcotest.(check (float 0.0)) "clock restarted" 10.0 at

let test_watchdog_age_and_misses () =
  let hb = Watchdog.Heartbeat.create () in
  Watchdog.Heartbeat.arm hb ~now:100.0;
  Alcotest.(check (float 1e-9))
    "age from arm time before any beat" 0.5
    (Watchdog.Heartbeat.age hb ~now:100.5);
  Watchdog.Heartbeat.beat hb ~now:101.0 ~sweep:0;
  Alcotest.(check (float 1e-9))
    "age from last beat" 2.0
    (Watchdog.Heartbeat.age hb ~now:103.0);
  Alcotest.(check (float 1e-9))
    "age clamped non-negative under clock skew" 0.0
    (Watchdog.Heartbeat.age hb ~now:100.9);
  let wd = Watchdog.create ~deadline:1.0 [| hb |] in
  Alcotest.(check int) "no misses yet" 0 (Watchdog.misses wd);
  ignore (Watchdog.poll ~now:101.5 wd);
  Alcotest.(check int) "alive poll does not count" 0 (Watchdog.misses wd);
  ignore (Watchdog.poll ~now:102.5 wd);
  ignore (Watchdog.poll ~now:103.0 wd);
  Alcotest.(check int) "each stalled verdict counts" 2 (Watchdog.misses wd);
  ignore (Watchdog.stalled ~now:104.0 wd);
  Alcotest.(check int) "stalled probe is read-only" 2 (Watchdog.misses wd);
  Watchdog.Heartbeat.mark_done hb;
  ignore (Watchdog.poll ~now:200.0 wd);
  Alcotest.(check int) "done chains stop counting" 2 (Watchdog.misses wd)

(* ------------------------------------------------------------------ *)
(* Divergence statistics *)
(* ------------------------------------------------------------------ *)

let test_ks_outlier_scores () =
  let consensus i = float_of_int (i mod 50) /. 50.0 in
  let chains =
    [|
      Array.init 100 consensus;
      Array.init 100 (fun i -> consensus (i + 13));
      Array.init 100 (fun i -> 10.0 +. consensus i);
    |]
  in
  let scores = Supervisor.ks_outlier_scores chains in
  Alcotest.(check int) "one score per chain" 3 (Array.length scores);
  Alcotest.(check bool) "outlier saturates" true (scores.(2) > 0.9);
  Alcotest.(check bool) "consensus chains score low" true
    (scores.(0) < 0.6 && scores.(1) < 0.6);
  Alcotest.check_raises "single chain rejected"
    (Invalid_argument "Supervisor.ks_outlier_scores: need >= 2 chains")
    (fun () -> ignore (Supervisor.ks_outlier_scores [| [| 1.0 |] |]))

let test_split_gelman_rubin () =
  let rng = Rng.create ~seed:5 () in
  let stationary () = Array.init 200 (fun _ -> Rng.float_unit rng) in
  let same = Statistics.split_gelman_rubin [| stationary (); stationary () |] in
  Alcotest.(check bool) "agreeing chains near 1" true (same < 1.1);
  let shifted = Array.map (fun x -> x +. 5.0) (stationary ()) in
  let apart = Statistics.split_gelman_rubin [| stationary (); shifted |] in
  Alcotest.(check bool) "disjoint chains blow up" true (apart > 2.0);
  (* a single drifting chain is caught by the split *)
  let drift = Array.init 200 (fun i -> float_of_int i) in
  let single = Statistics.split_gelman_rubin [| drift |] in
  Alcotest.(check bool) "within-chain drift detected" true (single > 1.5);
  (* unequal lengths: the shortest chain decides the window *)
  let unequal =
    Statistics.split_gelman_rubin [| stationary (); Array.sub (stationary ()) 0 50 |]
  in
  Alcotest.(check bool) "unequal lengths accepted" true (Float.is_finite unequal);
  Alcotest.check_raises "chains too short"
    (Invalid_argument "Statistics.split_gelman_rubin: chains too short")
    (fun () -> ignore (Statistics.split_gelman_rubin [| [| 1.0; 2.0; 3.0 |] |]))

let test_pooled_ess () =
  let rng = Rng.create ~seed:6 () in
  let chain () = Array.init 300 (fun _ -> Rng.float_unit rng) in
  let a = chain () and b = chain () in
  let pooled = Statistics.pooled_effective_sample_size [| a; b |] in
  let expect =
    Statistics.effective_sample_size a +. Statistics.effective_sample_size b
  in
  Alcotest.(check (float 1e-9)) "sum over chains" expect pooled

let test_health_of_accumulator () =
  let w = Welford.create () in
  Welford.add w 1.0;
  Welford.add w Float.nan;
  Welford.add w 2.0;
  (match Health.of_accumulator w with
  | [ Health.Sample_loss (skipped, kept) ] ->
      Alcotest.(check int) "skipped" 1 skipped;
      Alcotest.(check int) "kept" 2 kept
  | vs -> Alcotest.failf "expected one sample-loss, got: %s" (Health.describe vs));
  let clean = Welford.create () in
  Welford.add clean 1.0;
  Alcotest.(check int) "clean accumulator reports nothing" 0
    (List.length (Health.of_accumulator clean))

(* ------------------------------------------------------------------ *)
(* Supervised runs *)
(* ------------------------------------------------------------------ *)

let test_quorum_without_faults () =
  let cfg = sup_config () in
  let r = Supervisor.run ~config:cfg ~seed:7 make_store in
  Alcotest.(check int) "all chains healthy" 4 r.Supervisor.healthy_chains;
  Alcotest.(check bool) "quorum" true (r.Supervisor.status = Supervisor.Quorum);
  Array.iter
    (fun v ->
      Alcotest.(check bool) "healthy verdict" true (is_healthy v);
      Alcotest.(check int) "no restarts" 0 v.Supervisor.restarts;
      Alcotest.(check int) "full run" 36 v.Supervisor.iterations_done;
      Alcotest.(check bool) "no violations" true (v.Supervisor.violations = []))
    r.Supervisor.verdicts;
  Array.iter
    (fun ms -> Alcotest.(check bool) "plausible mean service" true (ms > 0.0 && ms < 1.0))
    r.Supervisor.mean_service;
  (* a second identical run reproduces the estimate bit for bit *)
  let r' = Supervisor.run ~config:cfg ~seed:7 make_store in
  Array.iteri
    (fun q ms ->
      Alcotest.(check int64)
        (Printf.sprintf "deterministic pooled estimate q%d" q)
        (Int64.bits_of_float ms)
        (Int64.bits_of_float r'.Supervisor.mean_service.(q)))
    r.Supervisor.mean_service

(* The headline scenario: four chains, one stalled and one crashed by
   injection. The supervisor must detect both, restart them, and still
   deliver a quorum estimate whose pooled split-R̂ certifies mixing —
   and the unfaulted chains' verdicts must be identical to a fault-free
   run with the same seed. *)
let test_supervised_acceptance () =
  (* long enough post-burn-in windows that split-R̂ over the pooled
     iterates is a real mixing certificate, not autocorrelation noise *)
  let cfg = sup_config ~iterations:160 ~burn_in:80 ~deadline:0.15 ~grace:5.0 () in
  let faults =
    [
      { Fault.chain = 1; at_iteration = 5; kind = Fault.Chain_stall 0.5 };
      { Fault.chain = 2; at_iteration = 8; kind = Fault.Chain_crash };
    ]
  in
  let r = Supervisor.run ~config:cfg ~faults ~seed:7 make_store in
  (* both faults detected and logged against the right chains *)
  Alcotest.(check bool) "stall detected" true
    (has_incident "watchdog" r.Supervisor.verdicts.(1));
  Alcotest.(check bool) "crash detected" true
    (has_incident "crash" r.Supervisor.verdicts.(2));
  Alcotest.(check int) "stalled chain restarted" 1
    r.Supervisor.verdicts.(1).Supervisor.restarts;
  Alcotest.(check int) "crashed chain restarted" 1
    r.Supervisor.verdicts.(2).Supervisor.restarts;
  (* recovery brought everyone home: quorum, all chains complete *)
  Alcotest.(check bool) "quorum after faults" true
    (r.Supervisor.status = Supervisor.Quorum);
  Alcotest.(check bool) "enough healthy chains" true
    (r.Supervisor.healthy_chains >= cfg.Supervisor.min_chains);
  Array.iter
    (fun v ->
      Alcotest.(check bool) "chain recovered" true (is_healthy v);
      Alcotest.(check int) "chain completed" 160 v.Supervisor.iterations_done)
    r.Supervisor.verdicts;
  (* pooled service-rate iterates mix across surviving chains; the
     arrival queue (q0) is excluded per the R-hat caveat on
     Supervisor.result *)
  Alcotest.(check bool) "split-Rhat certifies q1" true (r.Supervisor.rhat.(1) < 1.1);
  Alcotest.(check bool) "split-Rhat certifies q2" true (r.Supervisor.rhat.(2) < 1.1);
  Alcotest.(check bool) "pooled ESS positive" true
    (r.Supervisor.ess.(1) > 0.0 && r.Supervisor.ess.(2) > 0.0);
  (* unfaulted chains are bit-for-bit unaffected by the sibling chaos *)
  let control = Supervisor.run ~config:cfg ~seed:7 make_store in
  Alcotest.(check verdict_t) "chain 0 verdict matches fault-free run"
    control.Supervisor.verdicts.(0) r.Supervisor.verdicts.(0);
  Alcotest.(check verdict_t) "chain 3 verdict matches fault-free run"
    control.Supervisor.verdicts.(3) r.Supervisor.verdicts.(3)

(* Latent corruption mid-round: the next Gibbs sweep rewrites every
   unobserved departure, so the damage self-heals before the barrier
   health check — but the poisoned sample was already recorded, and
   the Welford NaN-skip must surface as Sample_loss in the verdict
   instead of vanishing silently. *)
let test_corruption_selfheals_but_is_accounted () =
  let cfg = sup_config ~chains:2 ~min_chains:1 () in
  let faults =
    [ { Fault.chain = 0; at_iteration = 2; kind = Fault.Chain_corrupt_latent } ]
  in
  let r = Supervisor.run ~config:cfg ~faults ~seed:11 make_store in
  Alcotest.(check int) "both chains healthy" 2 r.Supervisor.healthy_chains;
  let v = r.Supervisor.verdicts.(0) in
  Alcotest.(check int) "no restart needed" 0 v.Supervisor.restarts;
  (match v.Supervisor.violations with
  | [ Health.Sample_loss (skipped, kept) ] ->
      Alcotest.(check bool) "poisoned samples skipped" true (skipped >= 1);
      Alcotest.(check bool) "rest kept" true (kept > 0)
  | vs ->
      Alcotest.failf "expected sample-loss accounting, got: %s"
        (Health.describe vs));
  Alcotest.(check bool) "unfaulted chain unaffected" true
    (r.Supervisor.verdicts.(1).Supervisor.violations = [])

(* Corruption landing on the last iteration of a round reaches the
   barrier health check as a NaN latent: the chain is rolled back and
   restarted, and the discarded segment's skip accounting goes with
   it. *)
let test_corruption_at_barrier_restarts () =
  let cfg = sup_config ~chains:2 ~min_chains:1 () in
  let faults =
    [ { Fault.chain = 0; at_iteration = 7; kind = Fault.Chain_corrupt_latent } ]
  in
  let r = Supervisor.run ~config:cfg ~faults ~seed:11 make_store in
  let v = r.Supervisor.verdicts.(0) in
  Alcotest.(check bool) "chain recovered" true (is_healthy v);
  Alcotest.(check int) "one restart" 1 v.Supervisor.restarts;
  Alcotest.(check bool) "health incident logged" true (has_incident "health" v);
  Alcotest.(check bool) "discarded samples leave no residue" true
    (v.Supervisor.violations = []);
  Alcotest.(check int) "chain completed after rollback" 36
    v.Supervisor.iterations_done

(* Restart budget zero: the first crash is terminal and the ensemble
   degrades below quorum instead of failing outright. *)
let test_graceful_degradation () =
  let cfg = sup_config ~chains:2 ~min_chains:2 ~max_restarts:0 () in
  let faults =
    [ { Fault.chain = 1; at_iteration = 3; kind = Fault.Chain_crash } ]
  in
  let r = Supervisor.run ~config:cfg ~faults ~seed:7 make_store in
  Alcotest.(check int) "one survivor" 1 r.Supervisor.healthy_chains;
  Alcotest.(check bool) "degraded, not failed" true
    (r.Supervisor.status = Supervisor.Degraded);
  (match r.Supervisor.verdicts.(1).Supervisor.status with
  | Supervisor.Dead why ->
      Alcotest.(check bool) "cause names the crash" true (contains why "crash")
  | s -> Alcotest.failf "expected dead chain, got %a" Supervisor.pp_chain_status s);
  (* the survivor still produces a usable estimate *)
  Array.iter
    (fun ms -> Alcotest.(check bool) "salvaged estimate" true (ms > 0.0 && ms < 1.0))
    r.Supervisor.mean_service

(* A chain that ignores cancellation past the grace period is
   abandoned: its domain is leaked, its verdict is Dead, and the rest
   of the ensemble still reaches quorum. *)
let test_zombie_abandoned () =
  let cfg =
    sup_config ~chains:3 ~min_chains:2 ~deadline:0.05 ~grace:0.02 ()
  in
  let faults =
    [ { Fault.chain = 1; at_iteration = 4; kind = Fault.Chain_stall 0.3 } ]
  in
  let r = Supervisor.run ~config:cfg ~faults ~seed:7 make_store in
  (match r.Supervisor.verdicts.(1).Supervisor.status with
  | Supervisor.Dead why ->
      Alcotest.(check bool) "abandonment recorded" true (contains why "abandoned")
  | s ->
      Alcotest.failf "expected abandoned chain, got %a" Supervisor.pp_chain_status s);
  Alcotest.(check int) "two survivors" 2 r.Supervisor.healthy_chains;
  Alcotest.(check bool) "quorum despite the zombie" true
    (r.Supervisor.status = Supervisor.Quorum);
  (* give the zombie time to wake up and exit before the process does *)
  Unix.sleepf 0.4

(* Fixed-seed output of an unfaulted 2-chain, 5-round run, recorded
   from the build whose rounds each spawned fresh domains: moving the
   chains onto run-long domains must not change a bit. *)
let test_pinned_supervised_output () =
  let cfg = sup_config ~chains:2 ~min_chains:2 () in
  let r = Supervisor.run ~config:cfg ~seed:23 make_store in
  let bits name expected got =
    Alcotest.(check (array string)) name expected
      (Array.map (Printf.sprintf "%h") got)
  in
  bits "mean_service"
    [| "0x1.e1ccac8cb3d2bp-4"; "0x1.2a3f01d47c05ap-4"; "0x1.7c614486341f2p-4" |]
    r.Supervisor.mean_service;
  bits "rhat"
    [| "0x1.ea33e2c83c14p-1"; "0x1.2e5f42d99b9b7p+0"; "0x1.149af9cb2fec8p+0" |]
    r.Supervisor.rhat;
  bits "ess"
    [| "0x1.00e45932d7dc5p+1"; "0x1.4d968cd280128p+4"; "0x1.20f1e0d70748dp+5" |]
    r.Supervisor.ess;
  Array.iter
    (fun v ->
      Alcotest.(check (triple int int int))
        (Printf.sprintf "chain %d iterations, heartbeats, restarts" v.Supervisor.chain)
        (36, 41, 0)
        (v.Supervisor.iterations_done, v.Supervisor.heartbeats, v.Supervisor.restarts))
    r.Supervisor.verdicts

(* A round ends when its chains finish, not at the supervisor's next
   poll tick: five rounds under a 1 s poll interval take far less than
   the five ticks a sleeping supervisor would need. *)
let test_rounds_end_without_poll_tick () =
  let cfg =
    {
      (sup_config ~chains:2 ~iterations:10 ~burn_in:4 ~round_iterations:2 ()) with
      Supervisor.poll_interval = 1.0;
    }
  in
  let t0 = Unix.gettimeofday () in
  let r = Supervisor.run ~config:cfg ~seed:7 make_store in
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "5 rounds in %.3fs < 2.5s" wall) true (wall < 2.5);
  Array.iter
    (fun v -> Alcotest.(check int) "full run" 10 v.Supervisor.iterations_done)
    r.Supervisor.verdicts

(* A chain abandoned while still warming up has beaten only negative
   (warm-up) sweep indices; its verdict must not report negative
   iterations. The assertion holds whether or not the chain is
   abandoned. *)
let test_abandoned_in_warmup_iterations () =
  let rng = Rng.create ~seed:41 () in
  let _, _, store =
    Net_helpers.masked_store ~scheme:(Obs.Task_fraction 0.5) rng (tandem_net ()) 10_000
  in
  let cfg =
    {
      (sup_config ~chains:1 ~min_chains:1 ~iterations:4 ~burn_in:1 ~round_iterations:2
         ~deadline:0.001 ~grace:0.0 ()) with
      Supervisor.poll_interval = 0.001;
    }
  in
  let r = Supervisor.run ~config:cfg ~seed:3 (fun () -> Store.copy store) in
  Array.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "chain %d iterations_done %d >= 0" v.Supervisor.chain
           v.Supervisor.iterations_done)
        true
        (v.Supervisor.iterations_done >= 0))
    r.Supervisor.verdicts

(* OCaml hands every new domain the next id, so the ids of two probe
   domains bracket how many domains a run spawned in between. *)
let probe_domain_id () = Domain.join (Domain.spawn (fun () -> (Domain.self () :> int)))

let test_one_domain_per_chain () =
  let cfg = sup_config ~chains:2 ~min_chains:2 () in
  let before = probe_domain_id () in
  let r = Supervisor.run ~config:cfg ~seed:23 make_store in
  let spawned = probe_domain_id () - before - 1 in
  Alcotest.(check bool) "quorum" true (r.Supervisor.status = Supervisor.Quorum);
  Alcotest.(check int) "domains spawned over 5 rounds" 2 spawned

let open_fds () =
  if Sys.file_exists "/proc/self/fd" then Some (Array.length (Sys.readdir "/proc/self/fd"))
  else None

(* Each run spawns one domain per chain and joins them all before it
   returns: a domain leaked per run would hit OCaml's 128-domain cap
   well before 150 runs, and a leaked wake pipe would show in the
   process's open descriptors. *)
let test_back_to_back_runs () =
  let cfg =
    sup_config ~chains:2 ~min_chains:2 ~iterations:2 ~burn_in:1 ~round_iterations:1 ()
  in
  let before = open_fds () in
  for i = 1 to 150 do
    let r = Supervisor.run ~config:cfg ~seed:i make_store in
    if r.Supervisor.status <> Supervisor.Quorum then
      Alcotest.failf "run %d ended %a" i Supervisor.pp_ensemble_status r.Supervisor.status
  done;
  Alcotest.(check (option int)) "no descriptor outlives a run" before (open_fds ())

let test_run_after_zombie () =
  let zombie =
    Supervisor.run
      ~config:(sup_config ~chains:3 ~min_chains:2 ~deadline:0.05 ~grace:0.02 ())
      ~faults:[ { Fault.chain = 1; at_iteration = 4; kind = Fault.Chain_stall 0.3 } ]
      ~seed:7 make_store
  in
  Alcotest.(check bool) "zombie run reaches quorum" true
    (zombie.Supervisor.status = Supervisor.Quorum);
  let r = Supervisor.run ~config:(sup_config ~chains:2 ()) ~seed:7 make_store in
  Alcotest.(check bool) "next run reaches quorum" true (r.Supervisor.status = Supervisor.Quorum);
  Array.iter
    (fun v -> Alcotest.(check int) "full run" 36 v.Supervisor.iterations_done)
    r.Supervisor.verdicts;
  Unix.sleepf 0.4

let test_config_validation () =
  let raises msg f =
    match f () with
    | exception Invalid_argument m ->
        Alcotest.(check bool)
          (Printf.sprintf "%s mentions Supervisor.run" msg)
          true
          (String.length m >= 14 && String.sub m 0 14 = "Supervisor.run")
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  raises "zero chains" (fun () ->
      Supervisor.run
        ~config:{ (sup_config ()) with Supervisor.chains = 0 }
        ~seed:1 make_store);
  raises "quorum above chain count" (fun () ->
      Supervisor.run
        ~config:{ (sup_config ()) with Supervisor.min_chains = 9 }
        ~seed:1 make_store);
  raises "fault out of range" (fun () ->
      Supervisor.run ~config:(sup_config ())
        ~faults:[ { Fault.chain = 7; at_iteration = 0; kind = Fault.Chain_crash } ]
        ~seed:1 make_store);
  raises "negative fault iteration" (fun () ->
      Supervisor.run ~config:(sup_config ())
        ~faults:[ { Fault.chain = 0; at_iteration = -1; kind = Fault.Chain_crash } ]
        ~seed:1 make_store)

(* The supervised chains are Stem chains: a profiled run reports the
   same StEM phases a plain Stem.run does, recorded on the chains'
   domains. *)
let test_profiled_run_reports_stem_phases () =
  let module Prof = Qnet_obs.Prof in
  Prof.stop ();
  ignore (Prof.start () : Prof.backend);
  let r =
    Fun.protect ~finally:Prof.stop (fun () ->
        Supervisor.run ~config:(sup_config ~chains:2 ~iterations:12 ~burn_in:4 ()) ~seed:3
          make_store)
  in
  Alcotest.(check bool) "quorum" true (r.Supervisor.status = Supervisor.Quorum);
  let phases = List.map fst (Prof.phase_split ()) in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " in the phase split") true (List.mem phase phases))
    [ "stem.iteration"; "stem.mstep"; "stem.loglik" ]

let test_chain_fault_parsing () =
  (match Fault.parse_chain_fault "1:stall@5" with
  | Ok { Fault.chain = 1; at_iteration = 5; kind = Fault.Chain_stall _ } -> ()
  | Ok f -> Alcotest.failf "unexpected parse: %s" (Fault.chain_fault_label f)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Fault.parse_chain_fault "2:stall=0.4@8" with
  | Ok { Fault.kind = Fault.Chain_stall d; _ } ->
      Alcotest.(check (float 1e-12)) "stall duration" 0.4 d
  | Ok f -> Alcotest.failf "unexpected parse: %s" (Fault.chain_fault_label f)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Fault.parse_chain_fault "0:crash@3" with
  | Ok { Fault.chain = 0; at_iteration = 3; kind = Fault.Chain_crash } -> ()
  | _ -> Alcotest.fail "crash spec");
  (match Fault.parse_chain_fault "3:corrupt@6" with
  | Ok { Fault.kind = Fault.Chain_corrupt_latent; _ } -> ()
  | _ -> Alcotest.fail "corrupt spec");
  (match Fault.parse_chain_fault "nonsense" with
  | Error _ -> ()
  | Ok f -> Alcotest.failf "accepted garbage: %s" (Fault.chain_fault_label f))

let () =
  Alcotest.run "supervisor"
    [
      ( "watchdog",
        [
          Alcotest.test_case "heartbeat lifecycle" `Quick test_watchdog_heartbeat;
          Alcotest.test_case "re-arm preserves beats" `Quick
            test_watchdog_rearm_preserves_beats;
          Alcotest.test_case "age and deadline-miss telemetry" `Quick
            test_watchdog_age_and_misses;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "ks outlier scores" `Quick test_ks_outlier_scores;
          Alcotest.test_case "split gelman-rubin" `Quick test_split_gelman_rubin;
          Alcotest.test_case "pooled ess" `Quick test_pooled_ess;
          Alcotest.test_case "welford loss surfaces in health" `Quick
            test_health_of_accumulator;
        ] );
      ( "supervised",
        [
          Alcotest.test_case "quorum without faults" `Quick
            test_quorum_without_faults;
          Alcotest.test_case "stall+crash acceptance" `Quick
            test_supervised_acceptance;
          Alcotest.test_case "corruption self-heals with accounting" `Quick
            test_corruption_selfheals_but_is_accounted;
          Alcotest.test_case "corruption at barrier restarts" `Quick
            test_corruption_at_barrier_restarts;
          Alcotest.test_case "graceful degradation" `Quick
            test_graceful_degradation;
          Alcotest.test_case "zombie abandoned" `Quick test_zombie_abandoned;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "fault spec parsing" `Quick test_chain_fault_parsing;
          Alcotest.test_case "pinned unfaulted output" `Quick
            test_pinned_supervised_output;
          Alcotest.test_case "abandoned in warm-up reports no negative iterations"
            `Quick test_abandoned_in_warmup_iterations;
          Alcotest.test_case "profiled run reports StEM phases" `Quick
            test_profiled_run_reports_stem_phases;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "rounds end without the poll tick" `Quick
            test_rounds_end_without_poll_tick;
          Alcotest.test_case "one domain per chain per run" `Quick
            test_one_domain_per_chain;
          Alcotest.test_case "150 back-to-back runs" `Quick test_back_to_back_runs;
          Alcotest.test_case "run after a zombie" `Quick test_run_after_zombie;
        ] );
    ]
