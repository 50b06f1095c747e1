(* Seeded inputs shared by every workload: one three-tier topology, the
   large batch trace, and the multi-tenant stream that the serve stream
   replays and refit_windows cuts its windows from. The program under
   test only ever sees what is generated here. *)

module Rng = Qnet_prob.Rng
module Trace = Qnet_trace.Trace
module Network = Qnet_des.Network
module Topologies = Qnet_des.Topologies

(* q0, then tiers of 2, 2 and 4 servers: every server stable
   (utilisation 0.625, 0.625, 0.31), so a long stream keeps a steady
   composition instead of piling up behind one overloaded queue. *)
let network =
  Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(2, 2, 4)
    ~service_rate:8.0 ()

let num_queues = Network.num_queues network

(* ~100k latent events at 5% task observation: 4 events per task, 95%
   of tasks latent. *)
let large_tasks = 26_316
let large_fraction = 0.05
let simulate ~seed ~tasks = Network.simulate_poisson (Rng.create ~seed ()) network ~num_tasks:tasks

(* The shard's settings (lib/serve/shard.ml defaults). *)
let shard_cap = 4000
let shard_fraction = 0.5
let tenants = 4

(* The shard renders a tenant's buffer exactly like this before each
   refit, so windows cut here parse exactly as a shard's would. *)
let csv_of_events events =
  let buf = Buffer.create (64 * Array.length events) in
  Buffer.add_string buf "task,state,queue,arrival,departure\n";
  Array.iter
    (fun (e : Trace.event) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%.17g,%.17g\n" e.Trace.task e.Trace.state
           e.Trace.queue e.Trace.arrival e.Trace.departure))
    events;
  Buffer.contents buf

(* One tenant's events in the order a replay delivers them: by
   departure, ties in trace order (Qnet_des.Replay.plan's order). *)
let tenant_stream trace ~tenant =
  let evs =
    List.filter
      (fun (e : Trace.event) -> e.Trace.task mod tenants = tenant)
      (Array.to_list trace.Trace.events)
  in
  Array.of_list
    (List.stable_sort
       (fun (a : Trace.event) b -> Float.compare a.Trace.departure b.Trace.departure)
       evs)

(* Window ends: geometric growth from 40 events (the shard's minimum)
   to the cap, then [sliding] windows that slide by the shard's refit
   trigger of 120 events with the buffer full. *)
let window_ends ~sliding =
  let rec grow n acc = if n >= shard_cap then List.rev acc else grow (n * 3 / 2) (n :: acc) in
  grow 40 [] @ List.init (sliding + 1) (fun j -> shard_cap + (120 * j))

let windows stream ~sliding =
  List.map
    (fun n_end ->
      if n_end > Array.length stream then
        invalid_arg "Fixture.windows: stream shorter than the window plan";
      let first = max 0 (n_end - shard_cap) in
      csv_of_events (Array.sub stream first (n_end - first)))
    (window_ends ~sliding)

(* Realised per-queue mean service of a trace: the ground truth the
   fit's estimate is checked against. *)
let true_mean_service trace =
  Array.init trace.Trace.num_queues (fun q ->
      let s = Trace.service_times trace q in
      if Array.length s = 0 then nan
      else Array.fold_left ( +. ) 0.0 s /. float_of_int (Array.length s))
