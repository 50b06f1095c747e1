(* Unit checks for the benchmark's own arithmetic, on synthetic inputs
   with known answers. Run before every measurement, and on their own
   with `perfbench selftest`. *)

let failures = ref []

let check name cond = if not cond then failures := name :: !failures

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let span ~id ~parent start stop =
  { Spans.id; parent; layer = Printf.sprintf "l%d" id; name = "s"; start; stop }

let run () =
  failures := [];
  let xs n = Array.init n (fun i -> float_of_int (i + 1)) in
  (* nearest-rank percentiles of 1..100 are the ranks themselves *)
  check "p95 of 1..100" (close (Stats.percentile (xs 100) 95.) 95.);
  check "p50 of 1..10" (close (Stats.percentile (xs 10) 50.) 5.);
  (* the tail rule: at least 10 samples strictly beyond the tail *)
  (match Stats.tail (xs 19) with None -> () | Some _ -> check "19 samples have no tail" false);
  (match Stats.tail (xs 20) with
  | Some t -> check "20 samples: p50 = 10" (t.Stats.percentile = 50. && close t.Stats.value 10.)
  | None -> check "20 samples have a tail" false);
  (match Stats.tail (xs 100) with
  | Some t -> check "100 samples: p90 = 90" (t.Stats.percentile = 90. && close t.Stats.value 90.)
  | None -> check "100 samples have a tail" false);
  (match Stats.tail (xs 99) with
  | Some t -> check "99 samples: p75" (t.Stats.percentile = 75. && close t.Stats.value 75.)
  | None -> check "99 samples have a tail" false);
  (match Stats.tail (xs 1000) with
  | Some t -> check "1000 samples: p99 = 990" (t.Stats.percentile = 99. && close t.Stats.value 990.)
  | None -> check "1000 samples have a tail" false);
  (* open loop: a 1 s stall on request 0 charges every request due
     while it stalled; a closed-loop timer would report 1.0, 0.1, 0.1 *)
  let due = [| 0.0; 0.1; 0.2; 2.0 |] in
  let started = [| 0.0; 1.0; 1.1; 2.0 |] in
  let done_ = [| 1.0; 1.1; 1.2; 2.1 |] in
  let lat = Stats.open_loop_latencies ~due ~done_ in
  check "open-loop latencies" (Array.for_all2 close lat [| 1.0; 1.0; 1.0; 0.1 |]);
  check "generator lateness" (Array.for_all2 close (Stats.lateness ~due ~started) [| 0.0; 0.9; 0.9; 0.0 |]);
  (* host scaling: nominal over the mean of the last reference before
     the work and the first after it *)
  let saved = !Host.timeline in
  Host.timeline := [ (10., 0.2); (5., 0.4); (1., 0.8) ];
  check "host scale brackets the work" (close (Host.scale ~t0:5.5 ~t1:9.) (Host.nominal_s /. 0.3));
  Host.timeline := saved;
  (* self time: span minus the part its direct children cover; a child
     sticking out of its parent only counts where they overlap, and a
     grandchild is charged to its own parent only *)
  let spans =
    [ span ~id:0 ~parent:(-1) 0. 10.;
      span ~id:1 ~parent:0 1. 3.;
      span ~id:2 ~parent:0 5. 6.;
      span ~id:3 ~parent:2 5.2 5.7;
      span ~id:4 ~parent:0 9. 12. ]
  in
  let self = List.map (fun (s, t) -> (s.Spans.id, t)) (Spans.self_times spans) in
  check "self time of parent" (close (List.assoc 0 self) 6.);
  check "self time of leaf" (close (List.assoc 1 self) 2.);
  check "self time of middle" (close (List.assoc 2 self) 0.5);
  check "self time of grandchild" (close (List.assoc 3 self) 0.5);
  let total, calls = Spans.by_layer spans "l0" in
  check "by_layer" (close total 6. && calls = 1);
  (* window-only histogram: cumulative buckets subtract, quantiles
     interpolate within the bucket *)
  let h0 = { Serve.bounds = [| 0.1; 1.; infinity |]; cum = [| 5.; 5.; 5. |]; sum = 0.2; count = 5. } in
  let h1 = { Serve.bounds = [| 0.1; 1.; infinity |]; cum = [| 5.; 15.; 15. |]; sum = 5.2; count = 15. } in
  let d = Serve.hist_delta h0 h1 in
  check "histogram delta" (close d.Serve.count 10. && close d.Serve.sum 5.0 && close d.Serve.cum.(0) 0.);
  check "histogram p50" (close (Serve.hist_quantile d 0.5) 0.55);
  List.rev !failures
