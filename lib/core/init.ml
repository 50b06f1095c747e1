module Store = Event_store
module Dcs = Qnet_lp.Difference_constraints
module Simplex = Qnet_lp.Simplex

type strategy = Earliest | Latest | Centered | Targeted

(* Collect the timing constraints induced by the fixed structure.
   Constraints between two observed (hence fixed) departures are
   skipped: they hold in any mask derived from a valid trace. *)
let build_system ?(slack = 1e-9) store =
  let m = Store.num_events store in
  (* Cap from observed data only: latent values must not leak. *)
  let max_obs = ref 0.0 in
  for i = 0 to m - 1 do
    if Store.observed store i then max_obs := Float.max !max_obs (Store.departure store i)
  done;
  let cap = (1.5 *. !max_obs) +. 10.0 in
  let sys = Dcs.create ~default_upper:cap m in
  let count = ref 0 in
  let fixed = Store.observed store in
  (* bound once: a float computed at each call site is boxed per call *)
  let neg_slack = -.slack in
  let le i j c =
    (* x_i - x_j <= c, skipped when both endpoints are fixed *)
    if not (fixed i && fixed j) then begin
      Dcs.add_le sys i j c;
      incr count
    end
  in
  for i = 0 to m - 1 do
    if fixed i then begin
      Dcs.add_eq sys i (Store.departure store i);
      count := !count + 2
    end;
    (* service of i is non-negative: d_i >= a_i and d_i >= d_rho(i) *)
    let p = Store.pi store i in
    if p >= 0 then le p i neg_slack
    else if not (fixed i) then begin
      Dcs.add_lower sys i slack;
      incr count
    end;
    let r = Store.rho store i in
    if r >= 0 then le r i neg_slack;
    (* arrival order at i's queue: a_i <= a_{rho_inv i} *)
    let j = Store.rho_inv store i in
    if j >= 0 then begin
      let pj = Store.pi store j in
      (* pj < 0 <= p would be a non-initial event at the arrival queue,
         which Event_store.of_trace rejects *)
      if p >= 0 && pj >= 0 then le p pj neg_slack
    end
  done;
  (sys, !count)

let constraint_count store = snd (build_system store)

(* The "x_v >= x_u + slack" dependency edges: service non-negativity
   (pi(i) -> i and rho(i) -> i) and the per-queue arrival-order
   constraints (pi(i) -> pi(j) for consecutive arrivals i, j). These
   all point forward in time, so the graph is acyclic for any store
   built from a valid trace. *)
let iter_dependencies store f =
  for i = 0 to Store.num_events store - 1 do
    let p = Store.pi store i and r = Store.rho store i in
    if p >= 0 then f p i;
    if r >= 0 then f r i;
    let j = Store.rho_inv store i in
    if j >= 0 then begin
      let pj = Store.pi store j in
      if p >= 0 && pj >= 0 then f p pj
    end
  done

(* Greedy LP surrogate: in dependency order, give each latent event a
   departure of (service start + target mean service), clamped into
   [all incoming dependencies + slack, latest-feasible]. Clamping by
   the componentwise-latest solution keeps every later constraint
   satisfiable; the dependency walk keeps every earlier one satisfied.

   The DAG is built once in CSR form (successors of u are
   [succ.(offset.(u)) .. succ.(offset.(u+1) - 1)]) and walked with
   Kahn's algorithm. As each event is finalised its value plus slack
   is folded into its successors' [lower]. A value depends only on its
   predecessors and [Float.max] is exact, so any topological order
   gives the same bits. *)
let targeted_solution ~slack store target latest =
  let m = Store.num_events store in
  let offset = Array.make (m + 1) 0 and indegree = Array.make m 0 in
  iter_dependencies store (fun u v ->
      offset.(u + 1) <- offset.(u + 1) + 1;
      indegree.(v) <- indegree.(v) + 1);
  for u = 1 to m do
    offset.(u) <- offset.(u) + offset.(u - 1)
  done;
  let succ = Array.make offset.(m) 0 and cursor = Array.sub offset 0 m in
  iter_dependencies store (fun u v ->
      succ.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1);
  (* Kahn's FIFO, in the spent cursor array: every event is queued
     exactly once *)
  let order = cursor and queued = ref 0 in
  for i = 0 to m - 1 do
    if indegree.(i) = 0 then begin
      order.(!queued) <- i;
      incr queued
    end
  done;
  let solution = Array.make m 0.0 and lower = Array.make m neg_infinity in
  let mean_service = Array.init (Store.num_queues store) (Params.mean_service target) in
  let k = ref 0 in
  while !k < !queued do
    let i = order.(!k) in
    incr k;
    let x =
      if Store.observed store i then store.Store.departure.(i)
      else begin
        let p = Store.pi store i and r = Store.rho store i in
        let arrival = if p < 0 then 0.0 else solution.(p) in
        let start = if r < 0 then arrival else Float.max arrival solution.(r) in
        let bound = Float.max (Float.max slack (start +. slack)) lower.(i) in
        let wanted = start +. mean_service.(Store.queue store i) in
        Float.min latest.(i) (Float.max bound wanted)
      end
    in
    solution.(i) <- x;
    for e = offset.(i) to offset.(i + 1) - 1 do
      let v = succ.(e) in
      lower.(v) <- Float.max lower.(v) (x +. slack);
      indegree.(v) <- indegree.(v) - 1;
      if indegree.(v) = 0 then begin
        order.(!queued) <- v;
        incr queued
      end
    done
  done;
  assert (!queued = m);
  solution

let feasible ?strategy ?(slack = 1e-9) ?target store =
  let strategy =
    match (strategy, target) with
    | Some s, _ -> s
    | None, Some _ -> Targeted
    | None, None -> Centered
  in
  let sys, _ = build_system ~slack store in
  let solved =
    match strategy with
    | Earliest -> Dcs.solve sys `Earliest
    | Latest -> Dcs.solve sys `Latest
    | Centered -> Dcs.solve_centered sys
    | Targeted -> (
        match target with
        | None -> invalid_arg "Init.feasible: Targeted strategy requires ~target"
        | Some params -> (
            match Dcs.solve sys `Latest with
            | Error e -> Error e
            | Ok latest -> Ok (targeted_solution ~slack store params latest)))
  in
  match solved with
  | Error { Dcs.message } -> Error message
  | Ok solution ->
      Store.set_latent_departures store solution;
      (match Store.validate store with
      | Ok () -> Ok ()
      | Error msg -> Error ("initialization produced invalid state: " ^ msg))

let lp ?(slack = 1e-9) store params =
  let m = Store.num_events store in
  (* Variable layout: d_i = i, b_i = m+i, u_i = 2m+i, v_i = 3m+i.
     b_i is the relaxed service start (>= every lower bound on the
     true max); u - v = s - target splits the L1 objective. *)
  let d i = i and b i = m + i and u i = (2 * m) + i and v i = (3 * m) + i in
  let constraints = ref [] in
  let add coeffs relation rhs =
    constraints := { Simplex.coeffs; relation; rhs } :: !constraints
  in
  for i = 0 to m - 1 do
    if Store.observed store i then
      add [ (d i, 1.0) ] Simplex.Eq (Store.departure store i);
    let target = Params.mean_service params (Store.queue store i) in
    let p = Store.pi store i in
    (* b_i >= a_i *)
    if p >= 0 then add [ (b i, 1.0); (d p, -1.0) ] Simplex.Ge 0.0;
    (* b_i >= d_rho(i) *)
    let r = Store.rho store i in
    if r >= 0 then add [ (b i, 1.0); (d r, -1.0) ] Simplex.Ge 0.0;
    (* s_i = d_i - b_i >= slack *)
    add [ (d i, 1.0); (b i, -1.0) ] Simplex.Ge slack;
    (* d_i - b_i - u_i + v_i = target *)
    add [ (d i, 1.0); (b i, -1.0); (u i, -1.0); (v i, 1.0) ] Simplex.Eq target;
    (* arrival order at i's queue *)
    let j = Store.rho_inv store i in
    if j >= 0 then begin
      let pj = Store.pi store j in
      if p >= 0 && pj >= 0 then
        add [ (d p, 1.0); (d pj, -1.0) ] Simplex.Le (-.slack)
    end
  done;
  let objective = List.init m (fun i -> [ (u i, 1.0); (v i, 1.0) ]) |> List.concat in
  let problem =
    {
      Simplex.num_vars = 4 * m;
      objective;
      minimize = true;
      constraints = !constraints;
    }
  in
  match Simplex.solve problem with
  | Simplex.Infeasible -> Error "LP initialization: infeasible"
  | Simplex.Unbounded -> Error "LP initialization: unbounded (bug)"
  | Simplex.Optimal { objective_value; solution } ->
      Store.set_latent_departures store (Array.sub solution 0 m);
      (match Store.validate store with
      | Ok () -> Ok objective_value
      | Error msg -> Error ("LP initialization produced invalid state: " ^ msg))
