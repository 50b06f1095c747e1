(* Tests for the Gibbs kernel — the heart of the paper.

   The gold-standard check: the local conditional density must be
   proportional to the full joint (Eq. 1) as a function of the moved
   departure. We verify log-density differences against
   [Event_store.log_likelihood] on randomized stores, which exercises
   every special case (missing neighbours, initial events, final
   events, feedback self-queueing) without hand-derivation. *)

module Gibbs = Qnet_core.Gibbs
module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Obs = Qnet_core.Observation
module Init = Qnet_core.Init
module Piecewise = Qnet_prob.Piecewise
module Stats = Qnet_prob.Statistics
module Quad = Qnet_numerics.Quadrature
module Topologies = Qnet_des.Topologies
module Rng = Qnet_prob.Rng
module Trace = Qnet_trace.Trace
module Stem = Qnet_core.Stem

let check_close ?(eps = 1e-6) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g (diff %.3g)" name expected actual
      (Float.abs (expected -. actual))

let tandem_store ~seed ~tasks ~frac =
  let rng = Rng.create ~seed () in
  let net = Topologies.tandem ~arrival_rate:6.0 ~service_rates:[ 8.0; 7.0 ] in
  let _, _, store = Net_helpers.masked_store ~scheme:(Obs.Task_fraction frac) rng net tasks in
  store

let feedback_store ~seed ~tasks ~frac =
  let rng = Rng.create ~seed () in
  let net = Topologies.feedback ~arrival_rate:3.0 ~service_rate:6.0 ~loop_prob:0.4 in
  let _, _, store = Net_helpers.masked_store ~scheme:(Obs.Task_fraction frac) rng net tasks in
  store

let three_tier_store ~seed ~tasks ~frac =
  let rng = Rng.create ~seed () in
  let net =
    Topologies.three_tier ~arrival_rate:9.0 ~tier_sizes:(2, 1, 2) ~service_rate:6.0 ()
  in
  let _, _, store = Net_helpers.masked_store ~scheme:(Obs.Task_fraction frac) rng net tasks in
  store

let true_params_tandem () =
  Params.create ~rates:[| 6.0; 8.0; 7.0 |] ~arrival_queue:0

(* window of a local density, shrunk slightly to stay strictly inside *)
let interior_points rng ld n =
  let lo = ld.Gibbs.lower in
  let hi = match ld.Gibbs.upper with Some u -> u | None -> lo +. 1.0 in
  let w = hi -. lo in
  if w <= 1e-9 then []
  else
    List.init n (fun _ ->
        lo +. (1e-7 *. w) +. (Rng.float_unit rng *. w *. (1.0 -. 2e-7)))

(* The gold test: conditional log-density differences equal joint
   log-likelihood differences. *)
let conditional_matches_joint store params ~samples rng =
  let unobserved = Store.unobserved_events store in
  let checked = ref 0 in
  Array.iter
    (fun f ->
      let ld = Gibbs.local_density store params f in
      let pts = interior_points rng ld samples in
      match pts with
      | [] | [ _ ] -> ()
      | x0 :: rest ->
          let original = Store.departure store f in
          Store.set_departure store f x0;
          let ll0 = Store.log_likelihood store params in
          let lc0 = Gibbs.log_conditional ld x0 in
          List.iter
            (fun x ->
              Store.set_departure store f x;
              let ll = Store.log_likelihood store params in
              let lc = Gibbs.log_conditional ld x in
              incr checked;
              check_close ~eps:1e-6
                (Printf.sprintf "event %d at %.6g" f x)
                (ll -. ll0) (lc -. lc0))
            rest;
          Store.set_departure store f original)
    unobserved;
  !checked

let test_conditional_vs_joint_tandem () =
  let store = tandem_store ~seed:101 ~tasks:60 ~frac:0.2 in
  let params = true_params_tandem () in
  let rng = Rng.create ~seed:102 () in
  let n = conditional_matches_joint store params ~samples:4 rng in
  Alcotest.(check bool) (Printf.sprintf "checked %d comparisons" n) true (n > 100)

let test_conditional_vs_joint_three_tier () =
  let store = three_tier_store ~seed:103 ~tasks:60 ~frac:0.15 in
  let params = Params.create ~rates:[| 9.0; 6.0; 6.0; 6.0; 6.0; 6.0 |] ~arrival_queue:0 in
  let rng = Rng.create ~seed:104 () in
  let n = conditional_matches_joint store params ~samples:4 rng in
  Alcotest.(check bool) "enough comparisons" true (n > 100)

let test_conditional_vs_joint_feedback () =
  (* tasks revisiting the same queue exercise the g = e special case *)
  let store = feedback_store ~seed:105 ~tasks:80 ~frac:0.2 in
  let params = Params.create ~rates:[| 3.0; 6.0 |] ~arrival_queue:0 in
  let rng = Rng.create ~seed:106 () in
  let n = conditional_matches_joint store params ~samples:4 rng in
  Alcotest.(check bool) "enough comparisons" true (n > 100)

let test_conditional_vs_joint_random_params () =
  (* mismatched parameters must not break proportionality *)
  let store = tandem_store ~seed:107 ~tasks:40 ~frac:0.3 in
  let params = Params.create ~rates:[| 1.3; 22.0; 0.4 |] ~arrival_queue:0 in
  let rng = Rng.create ~seed:108 () in
  let n = conditional_matches_joint store params ~samples:3 rng in
  Alcotest.(check bool) "enough comparisons" true (n > 50)

(* windows always contain the current (feasible) departure *)
let test_window_contains_current () =
  let store = three_tier_store ~seed:109 ~tasks:100 ~frac:0.1 in
  let params = Params.create ~rates:(Array.make 6 5.0) ~arrival_queue:0 in
  Array.iter
    (fun f ->
      let d = Store.departure store f in
      let ld = Gibbs.local_density store params f in
      if d < ld.Gibbs.lower -. 1e-9 then
        Alcotest.failf "event %d: current %.9g below lower %.9g" f d ld.Gibbs.lower;
      match ld.Gibbs.upper with
      | Some u when d > u +. 1e-9 ->
          Alcotest.failf "event %d: current %.9g above upper %.9g" f d u
      | _ -> ())
    (Store.unobserved_events store)

let test_local_density_rejects_observed () =
  let store = tandem_store ~seed:110 ~tasks:10 ~frac:1.0 in
  let params = true_params_tandem () in
  Alcotest.check_raises "observed" (Invalid_argument "Gibbs.local_density: event is observed")
    (fun () -> ignore (Gibbs.local_density store params 0))

(* sampling stays in the window and preserves feasibility *)
let test_resample_preserves_feasibility () =
  let store = three_tier_store ~seed:111 ~tasks:150 ~frac:0.1 in
  let params = Params.create ~rates:(Array.make 6 5.0) ~arrival_queue:0 in
  let rng = Rng.create ~seed:112 () in
  for _ = 1 to 20 do
    Gibbs.sweep ~shuffle:true rng store params;
    match Store.validate store with
    | Ok () -> ()
    | Error m -> Alcotest.failf "sweep broke feasibility: %s" m
  done

let test_sample_within_window () =
  let store = tandem_store ~seed:113 ~tasks:80 ~frac:0.2 in
  let params = true_params_tandem () in
  let rng = Rng.create ~seed:114 () in
  Array.iter
    (fun f ->
      let ld = Gibbs.local_density store params f in
      for _ = 1 to 10 do
        let x = Gibbs.sample_event rng store params f in
        if x < ld.Gibbs.lower -. 1e-9 then Alcotest.failf "below window";
        match ld.Gibbs.upper with
        | Some u when x > u +. 1e-9 -> Alcotest.failf "above window"
        | _ -> ()
      done)
    (Store.unobserved_events store)

(* the sampled conditional matches its own density: KS against the
   quadrature CDF of log_conditional *)
let test_sampler_matches_density () =
  let store = tandem_store ~seed:115 ~tasks:50 ~frac:0.2 in
  let params = true_params_tandem () in
  let rng = Rng.create ~seed:116 () in
  let unobserved = Store.unobserved_events store in
  (* pick a handful of events with a bounded, non-degenerate window *)
  let candidates =
    Array.to_list unobserved
    |> List.filter_map (fun f ->
           let ld = Gibbs.local_density store params f in
           match ld.Gibbs.upper with
           | Some u when u -. ld.Gibbs.lower > 0.01 -> Some (f, ld, u)
           | _ -> None)
  in
  let take = List.filteri (fun i _ -> i < 5) candidates in
  Alcotest.(check bool) "found test events" true (List.length take > 0);
  List.iter
    (fun (f, ld, u) ->
      let lo = ld.Gibbs.lower in
      let log_z = Quad.log_integral_exp (Gibbs.log_conditional ld) lo u in
      let cdf x =
        if x <= lo then 0.0
        else if x >= u then 1.0
        else exp (Quad.log_integral_exp (Gibbs.log_conditional ld) lo x -. log_z)
      in
      let n = 4000 in
      let xs = Array.init n (fun _ -> Gibbs.sample_event rng store params f) in
      let ks = Stats.ks_statistic_against xs cdf in
      let critical = 1.95 /. sqrt (float_of_int n) in
      if ks > critical then
        Alcotest.failf "event %d: sampler KS %.4f > %.4f" f ks critical)
    take

(* the compiled pieces reproduce the paper's three-case structure *)
let test_paper_piece_structure () =
  (* hand-build: task A: q0 -> q1 -> q2; task B: q0 -> q1 -> q2; resample
     the departure of A's q1 event (= arrival of A's q2 event). All
     neighbours present: within-queue successor g = B's q1 event,
     consumer e = A's q2 event. *)
  let ev task state queue arrival departure = { Trace.task; state; queue; arrival; departure } in
  let trace =
    Trace.create ~num_queues:3
      [
        ev 0 0 0 0.0 1.0;
        ev 0 1 1 1.0 2.0;
        ev 0 2 2 2.0 4.0;
        ev 1 0 0 0.0 1.5;
        ev 1 1 1 1.5 3.0;
        ev 1 2 2 3.0 5.0;
      ]
  in
  (* only the departure of event 1 (A at q1) is latent *)
  let mask = [| true; false; true; true; true; true |] in
  let store = Store.of_trace ~observed:mask trace in
  let mu1 = 2.0 and mu2 = 3.0 in
  let params = Params.create ~rates:[| 1.0; mu1; mu2 |] ~arrival_queue:0 in
  let ld = Gibbs.local_density store params 1 in
  (* L = start of service of event 1 = max(a=1.0, d_rho = -) = 1.0;
     U = min(d_e = 4.0 (A at q2), a of B's q1 = 1.5 is not an upper for
     f (order at q_e applies: next arrival at q2 is B's = 3.0), B's q1
     departure d_g = 3.0) = 3.0 *)
  check_close "lower" 1.0 ld.Gibbs.lower;
  (match ld.Gibbs.upper with
  | Some u -> check_close "upper" 3.0 u
  | None -> Alcotest.fail "expected bounded window");
  (* hinges: at a_g = 1.5 slope +mu1; at d_rho(e): e = A's q2 event, its
     rho is... A's q2 event is the first arrival at q2, so no hinge.
     Wait: B's q2 event arrives later. So e has no rho -> consumer term
     is linear. Expect exactly one hinge (a_g) and linear = -mu1 + mu2. *)
  (match ld.Gibbs.hinges with
  | [ h ] ->
      check_close "hinge knee" 1.5 h.Piecewise.knee;
      check_close "hinge slope" mu1 h.Piecewise.slope
  | hs -> Alcotest.failf "expected 1 hinge, got %d" (List.length hs));
  check_close "linear slope" (mu2 -. mu1) ld.Gibbs.linear;
  (* compiled pieces: [1, 1.5) slope mu2 - mu1; [1.5, 3] slope mu2 *)
  match Gibbs.compile ld with
  | `Bounded pw -> (
      match Piecewise.pieces pw with
      | [ (a0, b0, r0); (a1, b1, r1) ] ->
          check_close "piece0 bounds" 1.0 a0;
          check_close "piece0 end" 1.5 b0;
          check_close "piece0 rate (delta mu)" (mu2 -. mu1) r0;
          check_close "piece1 start" 1.5 a1;
          check_close "piece1 end" 3.0 b1;
          check_close "piece1 rate (+mu_e... both terms)" mu2 r1
      | ps -> Alcotest.failf "expected 2 pieces, got %d" (List.length ps))
  | _ -> Alcotest.fail "expected bounded compile"

let test_tail_case_last_event () =
  (* the last event at a queue for the last task: no consumer, no
     within-queue successor -> exponential tail *)
  let ev task state queue arrival departure = { Trace.task; state; queue; arrival; departure } in
  let trace =
    Trace.create ~num_queues:2 [ ev 0 0 0 0.0 1.0; ev 0 1 1 1.0 2.0 ]
  in
  let mask = [| true; false |] in
  let store = Store.of_trace ~observed:mask trace in
  let params = Params.create ~rates:[| 1.0; 4.0 |] ~arrival_queue:0 in
  let ld = Gibbs.local_density store params 1 in
  Alcotest.(check bool) "unbounded" true (ld.Gibbs.upper = None);
  (match Gibbs.compile ld with
  | `Tail (origin, rate) ->
      check_close "origin = service start" 1.0 origin;
      check_close "rate = mu" 4.0 rate
  | _ -> Alcotest.fail "expected tail");
  (* samples follow Exp(4) from 1.0 *)
  let rng = Rng.create ~seed:117 () in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Gibbs.sample_event rng store params 1 -. 1.0) in
  let ks = Stats.ks_statistic_against xs (fun x -> if x < 0.0 then 0.0 else -.Float.expm1 (-4.0 *. x)) in
  Alcotest.(check bool) "tail distribution" true (ks < 1.95 /. sqrt (float_of_int n))

(* long-run invariance: with true parameters, imputed mean services
   stay near the truth *)
let test_gibbs_invariance_under_truth () =
  let rng = Rng.create ~seed:118 () in
  let net = Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 15.0; 12.0 ] in
  let trace, _, store =
    Net_helpers.masked_store ~scheme:(Obs.Task_fraction 0.1) rng net 800
  in
  let params = Params.create ~rates:[| 10.0; 15.0; 12.0 |] ~arrival_queue:0 in
  (* keep ground truth as the starting state: it is perfectly feasible *)
  ignore trace;
  let acc = Array.make 3 0.0 in
  let sweeps = 150 and burn = 50 in
  for s = 1 to sweeps do
    Gibbs.sweep ~shuffle:true rng store params;
    if s > burn then begin
      let means = Store.mean_service_by_queue store in
      Array.iteri (fun q v -> acc.(q) <- acc.(q) +. (v /. float_of_int (sweeps - burn))) means
    end
  done;
  check_close ~eps:0.01 "q0 imputed mean" 0.1 acc.(0);
  check_close ~eps:0.008 "q1 imputed mean" (1.0 /. 15.0) acc.(1);
  check_close ~eps:0.008 "q2 imputed mean" (1.0 /. 12.0) acc.(2)

let test_run_sweeps_count () =
  let store = tandem_store ~seed:119 ~tasks:20 ~frac:0.5 in
  let params = true_params_tandem () in
  let rng = Rng.create ~seed:120 () in
  Gibbs.run ~sweeps:0 rng store params;
  (* zero sweeps must leave the state untouched *)
  let before = Array.init (Store.num_events store) (Store.departure store) in
  Gibbs.run ~sweeps:0 rng store params;
  let after = Array.init (Store.num_events store) (Store.departure store) in
  Alcotest.(check bool) "unchanged" true (before = after);
  match Gibbs.run ~sweeps:(-1) rng store params with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative sweeps rejected"

let test_fully_observed_sweep_noop () =
  let store = tandem_store ~seed:121 ~tasks:20 ~frac:1.0 in
  let params = true_params_tandem () in
  let rng = Rng.create ~seed:122 () in
  let before = Array.init (Store.num_events store) (Store.departure store) in
  Gibbs.sweep rng store params;
  let after = Array.init (Store.num_events store) (Store.departure store) in
  Alcotest.(check bool) "no latent events, no changes" true (before = after)

(* ------------------------------------------------------------------ *)
(* The fused kernel against the oracle.

   [sample_event], [resample_event] and [sweep] run the fused kernel;
   [local_density |> compile] and [Piecewise.sample] are the reference
   it must reproduce bit for bit: same draw, same generator state. *)

let oracle_draw rng store params f =
  match Gibbs.compile (Gibbs.local_density store params f) with
  | `Point x -> x
  | `Tail (origin, rate) -> origin +. (-.log (Rng.float_pos rng) /. rate)
  | `Bounded pw -> Piecewise.sample rng pw

let outcome draw =
  match draw () with
  | x -> Ok (Int64.bits_of_float x)
  | exception Invalid_argument m -> Error m

(* Draw every latent event of [store] through both paths, from copies
   of one generator, and compare the draws and the generators after. *)
let check_fused_matches_oracle ~what rng store params =
  Array.iter
    (fun f ->
      let r_fused = Rng.copy rng and r_oracle = Rng.copy rng in
      let fused = outcome (fun () -> Gibbs.sample_event r_fused store params f) in
      let oracle = outcome (fun () -> oracle_draw r_oracle store params f) in
      if fused <> oracle then Alcotest.failf "%s: event %d draws differ" what f;
      if Rng.state r_fused <> Rng.state r_oracle then
        Alcotest.failf "%s: event %d leaves the generators in different states" what f;
      ignore (Rng.bits64 rng))
    (Store.unobserved_events store)

(* neighbourhood shapes met while drawing, so the test can insist the
   special cases were actually exercised *)
type shapes = { mutable self_queued : int; mutable first_arrival : int; mutable final : int;
                mutable multi_piece : int; mutable tail : int }

let tally_shapes s store params =
  Array.iter
    (fun f ->
      let e = Store.pi_inv store f in
      if e < 0 then s.final <- s.final + 1
      else if Store.rho store e = f then s.self_queued <- s.self_queued + 1
      else if Store.rho store e < 0 then s.first_arrival <- s.first_arrival + 1;
      match Gibbs.compile (Gibbs.local_density store params f) with
      | `Bounded pw when List.length (Piecewise.pieces pw) > 1 -> s.multi_piece <- s.multi_piece + 1
      | `Tail _ -> s.tail <- s.tail + 1
      | _ -> ())
    (Store.unobserved_events store)

let test_fused_matches_oracle_stores () =
  let total = { self_queued = 0; first_arrival = 0; final = 0; multi_piece = 0; tail = 0 } in
  List.iter
    (fun (what, store, params) ->
      let rng = Rng.create ~seed:131 () in
      (* the initial state, then states the sampler itself produced *)
      for _ = 1 to 3 do
        check_fused_matches_oracle ~what rng store params;
        Gibbs.sweep ~shuffle:true rng store params
      done;
      tally_shapes total store params)
    [
      ("tandem", tandem_store ~seed:132 ~tasks:120 ~frac:0.2, true_params_tandem ());
      ( "feedback",
        feedback_store ~seed:133 ~tasks:150 ~frac:0.1,
        Params.create ~rates:[| 3.0; 6.0 |] ~arrival_queue:0 );
      ( "three-tier",
        three_tier_store ~seed:134 ~tasks:120 ~frac:0.1,
        Params.create ~rates:[| 9.0; 6.0; 6.0; 6.0; 6.0; 6.0 |] ~arrival_queue:0 );
      ( "odd rates",
        tandem_store ~seed:135 ~tasks:80 ~frac:0.3,
        Params.create ~rates:[| 1.3; 22.0; 0.4 |] ~arrival_queue:0 );
    ];
  let covered name n = Alcotest.(check bool) (name ^ " covered") true (n > 0) in
  covered "queue visited twice in a row (g = e)" total.self_queued;
  covered "first arrival at the successor's queue" total.first_arrival;
  covered "task's final event" total.final;
  covered "several pieces" total.multi_piece;
  covered "exponential tail" total.tail

(* Two hinges with the same knee merge into one breakpoint. Tasks A
   (q0 -> q1 -> q2), B (q0 -> q1 -> q2) and C (q0 -> q2); only A's
   departure from q1 is latent. Its queue successor (B at q1) arrives
   at 1.5, and its task successor's queue predecessor (C at q2)
   departs at 1.5. *)
let test_fused_equal_knees () =
  let ev task state queue arrival departure = { Trace.task; state; queue; arrival; departure } in
  let trace =
    Trace.create ~num_queues:3
      [
        ev 0 0 0 0.0 1.0; ev 0 1 1 1.0 2.0; ev 0 2 2 2.0 4.0;
        ev 1 0 0 0.0 1.5; ev 1 1 1 1.5 3.0; ev 1 2 2 3.0 5.0;
        ev 2 0 0 0.0 0.2; ev 2 2 2 0.2 1.5;
      ]
  in
  let mask = Array.init 8 (fun i -> i <> 1) in
  let store = Store.of_trace ~observed:mask trace in
  let params = Params.create ~rates:[| 1.0; 2.0; 3.0 |] ~arrival_queue:0 in
  let ld = Gibbs.local_density store params 1 in
  (match List.map (fun h -> h.Piecewise.knee) ld.Gibbs.hinges with
  | [ kg; ke ] -> Alcotest.(check bool) "equal knees" true (Float.equal kg ke)
  | ks -> Alcotest.failf "expected 2 hinges, got %d" (List.length ks));
  (match Gibbs.compile ld with
  | `Bounded pw -> Alcotest.(check int) "merged into two pieces" 2 (List.length (Piecewise.pieces pw))
  | _ -> Alcotest.fail "expected a bounded window");
  let rng = Rng.create ~seed:136 () in
  for _ = 1 to 200 do
    check_fused_matches_oracle ~what:"equal knees" rng store params
  done

(* A NaN or infinite neighbour: both paths degrade the same way. *)
let test_fused_corrupt_neighbour () =
  List.iter
    (fun bad ->
      let store = tandem_store ~seed:137 ~tasks:60 ~frac:0.2 in
      let params = true_params_tandem () in
      let latent = Store.unobserved_events store in
      let s = Store.snapshot store in
      Array.iteri (fun k f -> if k mod 7 = 3 then s.Store.s_departure.(f) <- bad) latent;
      Store.restore store s;
      check_fused_matches_oracle ~what:(Printf.sprintf "corrupt %g" bad) (Rng.create ~seed:138 ())
        store params)
    [ nan; neg_infinity; infinity ]

(* [resample_event] writes exactly what [sample_event] draws, and a
   sweep is [resample_event] over the latent events in order. *)
let test_fused_write_back () =
  let store = feedback_store ~seed:139 ~tasks:80 ~frac:0.1 in
  let params = Params.create ~rates:[| 3.0; 6.0 |] ~arrival_queue:0 in
  let by_event = Store.copy store in
  let r_sweep = Rng.create ~seed:140 () in
  let r_events = Rng.copy r_sweep in
  Gibbs.sweep r_sweep store params;
  Array.iter
    (fun f ->
      let expected = Gibbs.sample_event (Rng.copy r_events) by_event params f in
      Gibbs.resample_event r_events by_event params f;
      Alcotest.(check int64) "write-back" (Int64.bits_of_float expected)
        (Int64.bits_of_float (Store.departure by_event f)))
    (Store.unobserved_events by_event);
  Alcotest.(check bool) "same departures" true
    (Array.init (Store.num_events store) (Store.departure store)
    = Array.init (Store.num_events by_event) (Store.departure by_event));
  Alcotest.(check bool) "same generator state" true (Rng.state r_sweep = Rng.state r_events)

(* A small StEM fit, pinned to the bits the unfused kernel produced:
   the sampler's seeded output is part of its contract. *)
let test_stem_pinned () =
  let rng = Rng.create ~seed:2024 () in
  let net = Topologies.tandem ~arrival_rate:6.0 ~service_rates:[ 8.0; 7.0 ] in
  let _, _, store = Net_helpers.masked_store ~scheme:(Obs.Task_fraction 0.3) rng net 60 in
  let config = { Stem.default_config with iterations = 20; burn_in = 10 } in
  let result = Stem.run ~config rng store in
  Alcotest.(check (array int64)) "mean_service bits"
    [| 0x3fc527875d938baaL; 0x3fc0b8a4340ddaf1L; 0x3fc3d68b1a730483L |]
    (Array.map Int64.bits_of_float result.Stem.mean_service);
  Alcotest.(check (array int64)) "generator state"
    [| 0x288baa8e70dde098L; 0x8e6066659861eed2L; 0x719b6bc08e87fd12L; 0xa801ac7689713500L |]
    (Rng.state rng)

(* The plain sweep allocates nothing per event but the boxed floats
   its uniform draws return (16 B each, at most two per event). *)
let test_sweep_allocation () =
  match Sys.backend_type with
  | Sys.Native ->
      let store = tandem_store ~seed:141 ~tasks:2000 ~frac:0.05 in
      let params = true_params_tandem () in
      let rng = Rng.create ~seed:142 () in
      let latent = Array.length (Store.unobserved_events store) in
      List.iter
        (fun shuffle ->
          Gibbs.sweep ~shuffle rng store params;
          let w0 = Gc.minor_words () in
          for _ = 1 to 3 do
            Gibbs.sweep ~shuffle rng store params
          done;
          let bytes = (Gc.minor_words () -. w0) *. float_of_int (Sys.word_size / 8) in
          let per_event = bytes /. float_of_int (3 * latent) in
          if per_event > 64.0 then
            Alcotest.failf "sweep (shuffle=%b) allocates %.1f B per latent event (budget 64)"
              shuffle per_event)
        [ false; true ]
  | _ -> Alcotest.skip ()

(* ------------------------------------------------------------------ *)
(* Simulation-based calibration. The simulated truth is an exact draw
   from the posterior the sampler targets (given the observed
   departures, the paths and the arrival orders), so its rank among
   posterior draws is uniform. Placing the truth at a uniformly chosen
   position [k] of a chain segment — run [k] thinned steps backward and
   [draws - k] forward from it, which is exact because a shuffled sweep
   is reversible — makes the rank exactly uniform however strongly the
   draws are correlated. *)
let test_simulation_based_calibration () =
  let draws = 19 and thin = 3 and replicates = 800 and per_replicate = 2 in
  let bins = Array.make (draws + 1) 0 in
  let net = Topologies.tandem ~arrival_rate:5.0 ~service_rates:[ 8.0; 6.5 ] in
  let params = Params.create ~rates:[| 5.0; 8.0; 6.5 |] ~arrival_queue:0 in
  for r = 1 to replicates do
    let rng = Rng.create ~seed:(9000 + r) () in
    let _, _, truth = Net_helpers.masked_store ~scheme:(Obs.Task_fraction 0.2) rng net 25 in
    let latent = Store.unobserved_events truth in
    let events = Array.init per_replicate (fun _ -> latent.(Rng.int rng (Array.length latent))) in
    let k = Rng.int rng (draws + 1) in
    let below = Array.make per_replicate 0 and ties = Array.make per_replicate 0 in
    let record store =
      Array.iteri
        (fun j f ->
          let x = Store.departure store f and t = Store.departure truth f in
          if x < t then below.(j) <- below.(j) + 1
          else if Float.equal x t then ties.(j) <- ties.(j) + 1)
        events
    in
    let segment steps =
      let store = Store.copy truth and chain = Rng.split rng in
      for _ = 1 to steps do
        Gibbs.run ~shuffle:true ~sweeps:thin chain store params;
        record store
      done
    in
    segment k;
    segment (draws - k);
    Array.iteri
      (fun j _ ->
        let rank = below.(j) + Rng.int rng (ties.(j) + 1) in
        bins.(rank) <- bins.(rank) + 1)
      events
  done;
  let expected = float_of_int (replicates * per_replicate) /. float_of_int (draws + 1) in
  let chi2 =
    Array.fold_left
      (fun acc o -> acc +. (((float_of_int o -. expected) ** 2.0) /. expected))
      0.0 bins
  in
  (* 0.999 quantile of chi-squared with 19 degrees of freedom *)
  if chi2 > 43.82 then
    Alcotest.failf "rank histogram not uniform: chi2 = %.2f > 43.82 (%s)" chi2
      (String.concat " " (Array.to_list (Array.map string_of_int bins)))

let () =
  Alcotest.run "qnet_gibbs"
    [
      ( "kernel",
        [
          Alcotest.test_case "conditional ∝ joint (tandem)" `Quick
            test_conditional_vs_joint_tandem;
          Alcotest.test_case "conditional ∝ joint (3-tier)" `Quick
            test_conditional_vs_joint_three_tier;
          Alcotest.test_case "conditional ∝ joint (feedback)" `Quick
            test_conditional_vs_joint_feedback;
          Alcotest.test_case "conditional ∝ joint (odd params)" `Quick
            test_conditional_vs_joint_random_params;
          Alcotest.test_case "window contains current" `Quick test_window_contains_current;
          Alcotest.test_case "observed rejected" `Quick test_local_density_rejects_observed;
          Alcotest.test_case "paper piece structure" `Quick test_paper_piece_structure;
          Alcotest.test_case "tail case" `Slow test_tail_case_last_event;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "feasibility preserved" `Quick
            test_resample_preserves_feasibility;
          Alcotest.test_case "samples in window" `Quick test_sample_within_window;
          Alcotest.test_case "sampler matches density" `Slow test_sampler_matches_density;
          Alcotest.test_case "invariance under truth" `Slow
            test_gibbs_invariance_under_truth;
          Alcotest.test_case "run sweep counts" `Quick test_run_sweeps_count;
          Alcotest.test_case "fully observed noop" `Quick test_fully_observed_sweep_noop;
        ] );
      ( "fused",
        [
          Alcotest.test_case "matches oracle on seeded stores" `Quick
            test_fused_matches_oracle_stores;
          Alcotest.test_case "matches oracle with equal knees" `Quick test_fused_equal_knees;
          Alcotest.test_case "matches oracle on a corrupt neighbourhood" `Quick
            test_fused_corrupt_neighbour;
          Alcotest.test_case "write-back and sweep order" `Quick test_fused_write_back;
          Alcotest.test_case "pinned StEM fit" `Quick test_stem_pinned;
          Alcotest.test_case "sweep allocation budget" `Quick test_sweep_allocation;
        ] );
      ( "calibration",
        [ Alcotest.test_case "simulation-based calibration" `Quick test_simulation_based_calibration ]
      );
    ]
