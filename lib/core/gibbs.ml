module Rng = Qnet_prob.Rng
module Piecewise = Qnet_prob.Piecewise
module Store = Event_store
module Metrics = Qnet_obs.Metrics
module Clock = Qnet_obs.Clock
module Prof = Qnet_obs.Prof

(* Telemetry handles, created on first use. Hot-path sites are gated
   on [Metrics.enabled] — one atomic load when instrumentation is off. *)
let sweep_buckets = [| 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]

let m_sweep_seconds =
  lazy
    (Metrics.Histogram.create ~buckets:sweep_buckets
       ~help:"Wall time of one Gibbs sweep over the unobserved events"
       "qnet_gibbs_sweep_seconds")

let m_event_seconds =
  lazy
    (Metrics.Histogram.create
       ~buckets:[| 1e-7; 1e-6; 1e-5; 1e-4; 1e-3; 1e-2 |]
       ~help:"Wall time to rebuild and resample one event's conditional"
       "qnet_gibbs_event_seconds")

let m_events =
  lazy
    (Metrics.Counter.create
       ~help:"Unobserved events resampled by Gibbs sweeps"
       "qnet_gibbs_events_resampled_total")

let m_kernel kind =
  Metrics.Counter.create ~labels:[ ("kind", kind) ]
    ~help:"Compiled conditional kind drawn from (point/tail/bounded)"
    "qnet_gibbs_kernel_total"

(* Indexed by the kind codes [draw] returns. *)
let m_kernels =
  [| lazy (m_kernel "point"); lazy (m_kernel "tail"); lazy (m_kernel "bounded") |]

let kind_point = 0
let kind_tail = 1
let kind_bounded = 2

type local_density = {
  event : int;
  lower : float;
  upper : float option;
  linear : float;
  hinges : Piecewise.hinge list;
}

let local_density store params f =
  if Store.observed store f then
    invalid_arg "Gibbs.local_density: event is observed";
  let mu_f = Params.rate params (Store.queue store f) in
  let lower = ref (Store.start_service store f) in
  let upper = ref None in
  let linear = ref (-.mu_f) in
  let hinges = ref [] in
  let tighten_upper u =
    match !upper with
    | None -> upper := Some u
    | Some u0 -> if u < u0 then upper := Some u
  in
  let e = Store.pi_inv store f in
  let g = Store.rho_inv store f in
  (* Within-task successor e: its arrival is the value being moved. *)
  if e >= 0 then begin
    let mu_e = Params.rate params (Store.queue store e) in
    tighten_upper (Store.departure store e);
    let rho_e = Store.rho store e in
    if rho_e = f then
      (* The task queues directly behind itself: e's service starts at
         max(d, d) = d, so the term is linear in d with no breakpoint. *)
      linear := !linear +. mu_e
    else if rho_e < 0 then
      (* e is the first arrival at its queue: service starts at a_e = d. *)
      linear := !linear +. mu_e
    else begin
      (* Breakpoint where d overtakes the previous departure at e's
         queue; below it the term is constant. *)
      hinges := { Piecewise.knee = Store.departure store rho_e; slope = mu_e } :: !hinges;
      (* Keep e's position in its queue's arrival order. *)
      lower := Float.max !lower (Store.arrival store rho_e)
    end;
    let next_e = Store.rho_inv store e in
    if next_e >= 0 then tighten_upper (Store.arrival store next_e)
  end;
  (* Within-queue successor g: its FIFO service start is max(a_g, d). *)
  if g >= 0 && g <> e then begin
    tighten_upper (Store.departure store g);
    hinges := { Piecewise.knee = Store.arrival store g; slope = mu_f } :: !hinges
  end;
  match !upper with
  | None when not (Float.is_finite !lower) ->
      (* A tail whose origin is not a number (a corrupted upstream
         latent) carries no information: pin the window to the current
         departure, so the move leaves it unchanged. *)
      let d = Store.departure store f in
      { event = f; lower = d; upper = Some d; linear = !linear; hinges = [] }
  | upper -> { event = f; lower = !lower; upper; linear = !linear; hinges = !hinges }

let degenerate_width = 1e-12

let compile ld =
  match ld.upper with
  | None ->
      (* Only the self term remains: an exponential tail with rate
         mu_f = -linear (no hinges can exist without e or g). *)
      assert (ld.hinges = []);
      let rate = -.ld.linear in
      if Float.is_finite ld.lower && rate > 0.0 && Float.is_finite rate then
        `Tail (ld.lower, rate)
      else `Point ld.lower
  | Some u ->
      (* [not (width > eps)] rather than [width <= eps]: a NaN bound
         (corrupted latent state) must also collapse to a point rather
         than reach Piecewise.compile or poison the sample. *)
      if not (u -. ld.lower > degenerate_width) then
        `Point (if Float.is_nan ld.lower then u else ld.lower)
      else if not (Float.is_finite ld.lower && Float.is_finite u) then
        `Point (if Float.is_finite ld.lower then ld.lower else u)
      else
        `Bounded
          (Piecewise.compile ~lower:ld.lower ~upper:u ~linear:ld.linear
             ~hinges:ld.hinges)

let log_conditional ld x =
  let inside =
    x >= ld.lower && (match ld.upper with None -> true | Some u -> x <= u)
  in
  if not inside then neg_infinity
  else
    List.fold_left
      (fun acc ({ Piecewise.knee; slope } as h) ->
        if Piecewise.finite_hinge h then acc +. (slope *. Float.max 0.0 (x -. knee))
        else acc)
      (ld.linear *. x) ld.hinges

(* ------------------------------------------------------------------ *)
(* The fused kernel (DESIGN.md §2).

   [draw] is [local_density |> compile |> sample] without the
   intermediate values: it reads the π/ρ neighbourhood straight from
   the store's arrays and keeps the at most three pieces in locals. It
   repeats the oracle's floating-point operations in the oracle's order
   — hinge list [g; e], the [sort_uniq compare] knee merge, [Stdlib.max]
   folds, [log_sum_exp]'s summation order, [Rng.categorical]'s total,
   scan and back-off — and its draw counts (point 0, tail 1, one piece
   1, more pieces 2), so seeded output is bit-identical; test_gibbs
   checks it event by event.

   Dune's dev profile compiles with -opaque, so nothing is inlined
   across modules and every float crossing a call boundary is boxed.
   The helpers below restate [Float], [Special] and [Piecewise]
   functions so that they inline here. *)

let[@inline] feq (x : float) y = Float.compare x y = 0 (* Float.equal *)
let[@inline] is_nan (x : float) = x <> x
let[@inline] is_finite (x : float) = not (is_nan (x -. x))

let[@inline] fmax (x : float) (y : float) =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then if is_nan x then x else y
  else if is_nan y then y
  else x

let[@inline] fmin (x : float) (y : float) =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then if is_nan y then y else x
  else if is_nan x then x
  else y

(* [Stdlib.max] on floats, as [Array.fold_left max] applies it *)
let[@inline] smax (a : float) b = if a >= b then a else b

(* Special.log1mexp for x <= 0 *)
let[@inline] log1mexp x =
  if feq x 0.0 then neg_infinity
  else if x > -0.6931471805599453 then log (-.Float.expm1 x)
  else Float.log1p (-.exp x)

(* Special.log_expm1 for x > 0 *)
let[@inline] log_expm1 x = if x > 36.0 then x else log (Float.expm1 x)

let[@inline] log_sum_exp2 a b =
  if feq a neg_infinity then b
  else if feq b neg_infinity then a
  else if a >= b then a +. Float.log1p (exp (b -. a))
  else b +. Float.log1p (exp (a -. b))

let tiny_rate_width = 1e-12

(* Piecewise.log_piece_mass *)
let[@inline] log_piece_mass v r w =
  if w <= 0.0 then neg_infinity
  else if Float.abs (r *. w) < tiny_rate_width then v +. log w +. (0.5 *. r *. w)
  else if r > 0.0 then v +. (r *. w) +. log1mexp (-.r *. w) -. log r
  else v +. log1mexp (r *. w) -. log (-.r)

(* Piecewise.invert_piece *)
let[@inline] invert_piece r w q =
  if q <= 0.0 then 0.0
  else if q >= 1.0 then w
  else if Float.abs (r *. w) < tiny_rate_width then q *. w
  else if r > 0.0 then begin
    let log_term = log q +. log_expm1 (r *. w) in
    let y = log_sum_exp2 0.0 log_term /. r in
    fmax 0.0 (fmin w y)
  end
  else begin
    let y = Float.log1p (q *. Float.expm1 (r *. w)) /. r in
    fmax 0.0 (fmin w y)
  end

(* A hinge adds its slope to every piece whose left edge [b] is at or
   right of its knee; g's hinge first, then e's. *)
let[@inline] piece_rate base ig (kg : float) sg ie (ke : float) se (b : float) =
  let r = if ig && b >= kg then base +. sg else base in
  if ie && b >= ke then r +. se else r

let[@inline] bad_weight w = w < 0.0 || is_nan w

(* [Piecewise.compile] then [Piecewise.sample] for a finite window
   [lower, upper] with slope [linear] and the hinges [g] (when [hg])
   and [e] (when [he]), in that list order. *)
let[@inline] sample_bounded rng ~lower ~upper ~linear ~hg ~kg ~sg ~he ~ke ~se =
  let hg = hg && is_finite kg && is_finite sg and he = he && is_finite ke && is_finite se in
  (* Hinges left of the window act on every point. *)
  let base = if hg && kg <= lower then linear +. sg else linear in
  let base = if he && ke <= lower then base +. se else base in
  let ig = hg && kg > lower && kg < upper && (sg < 0.0 || sg > 0.0) in
  let ie = he && ke > lower && ke < upper && (se < 0.0 || se > 0.0) in
  (* Interior knees, sorted, equal ones merged (keeping g's). *)
  let c = if ig && ie then Float.compare kg ke else 0 in
  let nk = (if ig then 1 else 0) + if ie && not (ig && c = 0) then 1 else 0 in
  let b0 = lower and b3 = upper in
  let b1 = if nk = 0 then upper else if ig && c <= 0 then kg else ke in
  let b2 = if nk < 2 then upper else if c < 0 then ke else kg in
  let n = nk + 1 in
  let r0 = piece_rate base ig kg sg ie ke se b0 in
  let r1 = piece_rate base ig kg sg ie ke se b1 in
  let r2 = piece_rate base ig kg sg ie ke se b2 in
  let lv1 = 0.0 +. (r0 *. (b1 -. b0)) in
  let lv2 = lv1 +. (r1 *. (b2 -. b1)) in
  let lv3 = lv2 +. (r2 *. (b3 -. b2)) in
  let m = smax (smax neg_infinity 0.0) lv1 in
  let m = if n >= 2 then smax m lv2 else m in
  let m = if n >= 3 then smax m lv3 else m in
  let lm0 = log_piece_mass (0.0 -. m) r0 (b1 -. b0) in
  let lm1 = log_piece_mass (lv1 -. m) r1 (b2 -. b1) in
  let lm2 = log_piece_mass (lv2 -. m) r2 (b3 -. b2) in
  (* Special.log_sum_exp over the n log-masses *)
  let mz = smax neg_infinity lm0 in
  let mz = if n >= 2 then smax mz lm1 else mz in
  let mz = if n >= 3 then smax mz lm2 else mz in
  let log_z =
    if feq mz neg_infinity then neg_infinity
    else if feq mz infinity then infinity
    else begin
      let acc = 0.0 +. exp (lm0 -. mz) in
      let acc = if n >= 2 then acc +. exp (lm1 -. mz) else acc in
      let acc = if n >= 3 then acc +. exp (lm2 -. mz) else acc in
      mz +. log acc
    end
  in
  (* Rng.categorical over the normalized piece masses *)
  let i =
    if n = 1 then 0
    else begin
      let w0 = exp (lm0 -. log_z) and w1 = exp (lm1 -. log_z) in
      let w2 = if n = 3 then exp (lm2 -. log_z) else 0.0 in
      if bad_weight w0 || bad_weight w1 || bad_weight w2 then
        invalid_arg "Rng.categorical: negative weight";
      let total = 0.0 +. w0 +. w1 in
      let total = if n = 3 then total +. w2 else total in
      if total <= 0.0 then invalid_arg "Rng.categorical: no positive weight";
      let u = Rng.float_unit rng *. total in
      let i = if u < 0.0 +. w0 then 0 else if n = 2 || u < 0.0 +. w0 +. w1 then 1 else 2 in
      (* back off past trailing zero weights *)
      if i = 2 && not (w2 > 0.0) then if w1 > 0.0 then 1 else 0
      else if i = 1 && not (w1 > 0.0) then 0
      else i
    end
  in
  let q = Rng.float_unit rng in
  if i = 0 then b0 +. invert_piece r0 (b1 -. b0) q
  else if i = 1 then b1 +. invert_piece r1 (b2 -. b1) q
  else b2 +. invert_piece r2 (b3 -. b2) q

let[@inline] arrival (st : Store.t) i =
  let p = st.pi.(i) in
  if p < 0 then 0.0 else st.departure.(p)

(* [local_density]'s [tighten_upper] on an optional bound *)
let[@inline] tighten bounded (u0 : float) u = if (not bounded) || u < u0 then u else u0

(* Draws event [f]'s new departure from its full conditional under the
   per-queue [rates] into [out.(0)], without writing it back, and
   returns the kind drawn from ([kind_point], [kind_tail] or
   [kind_bounded]). *)
let draw rng (st : Store.t) rates f out =
  if st.observed.(f) then invalid_arg "Gibbs.local_density: event is observed";
  let dep = st.departure in
  let mu_f = rates.(st.queue.(f)) in
  let lower =
    let a = arrival st f and r = st.rho.(f) in
    if r < 0 then a else fmax a dep.(r)
  in
  let e = st.pi_inv.(f) and g = st.rho_inv.(f) in
  let lower = ref lower and linear = ref (-.mu_f) in
  let bounded = ref false and upper = ref 0.0 in
  let he = ref false and ke = ref 0.0 and se = ref 0.0 in
  if e >= 0 then begin
    let mu_e = rates.(st.queue.(e)) in
    upper := dep.(e);
    bounded := true;
    let rho_e = st.rho.(e) in
    if rho_e = f || rho_e < 0 then linear := !linear +. mu_e
    else begin
      he := true;
      ke := dep.(rho_e);
      se := mu_e;
      lower := fmax !lower (arrival st rho_e)
    end;
    let next_e = st.rho_inv.(e) in
    if next_e >= 0 then upper := tighten true !upper (arrival st next_e)
  end;
  let hg = g >= 0 && g <> e in
  if hg then begin
    upper := tighten !bounded !upper dep.(g);
    bounded := true
  end;
  let lower = !lower and upper = !upper and linear = !linear in
  if not !bounded then
    if not (is_finite lower) then begin
      (* the pinned tail of [local_density] *)
      out.(0) <- dep.(f);
      kind_point
    end
    else begin
      let rate = -.linear in
      if rate > 0.0 && is_finite rate then begin
        out.(0) <- lower +. (-.log (Rng.float_pos rng) /. rate);
        kind_tail
      end
      else begin
        out.(0) <- lower;
        kind_point
      end
    end
  else if not (upper -. lower > degenerate_width) then begin
    out.(0) <- (if is_nan lower then upper else lower);
    kind_point
  end
  else if not (is_finite lower && is_finite upper) then begin
    out.(0) <- (if is_finite lower then lower else upper);
    kind_point
  end
  else begin
    out.(0) <-
      sample_bounded rng ~lower ~upper ~linear ~hg ~kg:(if hg then arrival st g else 0.0)
        ~sg:mu_f ~he:!he ~ke:!ke ~se:!se;
    kind_bounded
  end

(* [draw], then write back with [Event_store.set_departure]'s NaN guard
   ([draw] already refused an observed event). *)
let resample rng (st : Store.t) rates f out =
  let kind = draw rng st rates f out in
  let x = out.(0) in
  if is_nan x then invalid_arg "Event_store.set_departure: NaN";
  st.departure.(f) <- x;
  kind

let count_kind kind =
  if Metrics.enabled () then Metrics.Counter.inc (Lazy.force m_kernels.(kind))

let sample_event rng store params f =
  let out = [| 0.0 |] in
  count_kind (draw rng store params.Params.rates f out);
  out.(0)

let resample_event rng store params f =
  count_kind (resample rng store params.Params.rates f [| 0.0 |])

(* Telemetry fast path (DESIGN.md section 14): per-event clock reads
   and per-event counter bumps are too expensive to leave on. Instead
   the enabled branch (a) tallies kernel kinds into local ints and
   flushes one Counter.inc per kind per sweep, and (b) stride-samples
   the per-event timing: every [timing_stride]-th event is bracketed
   by raw clock reads and observed with the weight of the events it
   stands for, so the histogram's count still matches the true event
   count while paying for two gettimeofday calls per 32 events instead
   of one per event. *)
let timing_stride = 32

let instrumented_sweep ~metrics ~profiling rng store rates order =
  let t0 = if metrics then Clock.now () else 0.0 in
  let per_event = if metrics then Some (Lazy.force m_event_seconds) else None in
  let n = Array.length order in
  let out = [| 0.0 |] and kinds = Array.make (Array.length m_kernels) 0 in
  for k = 0 to n - 1 do
    let timed = metrics && k land (timing_stride - 1) = 0 in
    let te = if timed then Clock.now_raw () else 0.0 in
    let kind = resample rng store rates order.(k) out in
    kinds.(kind) <- kinds.(kind) + 1;
    (* [timed] implies [metrics] implies the handle exists *)
    if timed then
      Metrics.Histogram.observe_n (Option.get per_event)
        ~n:(Int.min timing_stride (n - k))
        (Float.max 0.0 (Clock.now_raw () -. te));
    (* Probe at the same stride the timing samples use: frequent
       enough to catch collection stalls inside one sweep, rare
       enough that quick_stat stays off the per-event path. *)
    if profiling && k land (timing_stride - 1) = 0 then Prof.pause_probe ()
  done;
  if metrics then begin
    Array.iteri
      (fun kind c ->
        if c > 0 then Metrics.Counter.inc ~by:(float_of_int c) (Lazy.force m_kernels.(kind)))
      kinds;
    Metrics.Histogram.observe (Lazy.force m_sweep_seconds) (Clock.now () -. t0);
    Metrics.Counter.inc ~by:(float_of_int n) (Lazy.force m_events)
  end

let sweep ?(shuffle = false) rng (store : Store.t) params =
  (* A fresh uniform order is a shuffle of the ascending one. The
     cached [latent] order is shared by the store's copies and is never
     shuffled itself; [sweep_order] is this store's own buffer, reused
     so that a sweep allocates no major-heap block (DESIGN.md §2). *)
  let order =
    if shuffle then begin
      let order = store.sweep_order in
      Array.blit store.latent 0 order 0 (Array.length order);
      Rng.shuffle_in_place rng order;
      order
    end
    else store.latent
  in
  let rates = params.Params.rates in
  let metrics = Metrics.enabled () in
  let profiling = Prof.running () in
  if (not metrics) && not profiling then begin
    (* Plain path: zero clock reads, zero probes, zero Memprof
       callbacks from this module — two atomic loads per sweep. *)
    let out = [| 0.0 |] in
    for k = 0 to Array.length order - 1 do
      ignore (resample rng store rates order.(k) out : int)
    done
  end
  else if profiling then
    Prof.with_phase "gibbs.sweep" (fun () ->
        instrumented_sweep ~metrics ~profiling rng store rates order)
  else instrumented_sweep ~metrics ~profiling rng store rates order

let run ?shuffle ~sweeps rng store params =
  if sweeps < 0 then invalid_arg "Gibbs.run: negative sweep count";
  for _ = 1 to sweeps do
    sweep ?shuffle rng store params
  done
