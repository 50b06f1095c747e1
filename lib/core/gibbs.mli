(** The Gibbs sampler for M/M/1/FIFO queueing networks (Section 3 of
    the paper).

    Each move resamples the departure time [d] of one unobserved event
    [f] — equivalently the arrival time of its within-task successor —
    holding fixed the FSM paths and the per-queue arrival orders. The
    full conditional [p(d | everything else)] factors into at most
    three exponential service-time terms:

    - the service of [f] itself: [-μ_f · (d − max(a_f, d_ρ(f)))];
    - the service of [f]'s within-queue successor [g = ρ⁻¹(f)], whose
      service under FIFO starts at [max(a_g, d)]:
      [-μ_f · (d_g − max(a_g, d))];
    - the service of [f]'s within-task successor [e = π⁻¹(f)], which
      arrives at [a_e = d]: [-μ_e · (d_e − max(d, d_ρ(e)))];

    subject to box constraints keeping every service non-negative and
    the arrival order at [e]'s queue unchanged. The result is a
    piecewise log-linear density with at most two interior breakpoints
    — exactly the paper's Figure 3 / Eq. (3)–(4) sampler, including the
    δμ = μ_e − μ_f middle piece — which is sampled exactly via
    {!Qnet_prob.Piecewise}. The derivation here additionally covers
    the cases the paper's formula leaves implicit: missing neighbours,
    the task's final event, initial (q0) events, and a task queueing
    directly behind itself at the same queue ([g = e]).

    {b Hot path and oracle.} {!sample_event}, {!resample_event},
    {!sweep} and {!run} go through one fused kernel: it reads the
    neighbourhood straight from the store's arrays, keeps the at most
    three pieces in locals and allocates nothing but the boxed uniforms
    it draws. {!local_density}, {!compile} and {!log_conditional} (with
    {!Qnet_prob.Piecewise}) are the readable reference: the kernel
    repeats their floating-point operations in their order and
    consumes the same draws, so for a given generator both produce the
    same bits, which the tests check event by event. *)

type local_density = {
  event : int;
  lower : float;  (** hard lower bound L *)
  upper : float option;  (** hard upper bound U; [None] = unbounded tail *)
  linear : float;  (** global log-density slope *)
  hinges : Qnet_prob.Piecewise.hinge list;
      (** breakpoint terms from the two [max] expressions *)
}

val local_density : Event_store.t -> Params.t -> int -> local_density
(** The full-conditional shape for one unobserved event. Raises
    [Invalid_argument] if the event's departure is observed. An
    unbounded window whose origin is not finite (a corrupted upstream
    latent) carries no information and is pinned to the current
    departure, [lower = upper = d_f], so the move leaves it
    unchanged. *)

val compile :
  local_density -> [ `Bounded of Qnet_prob.Piecewise.t | `Tail of float * float | `Point of float ]
(** [`Bounded pw] for a finite window, [`Tail (origin, rate)] for an
    exponential right tail [origin + Exp rate], [`Point x] when the
    window is degenerate: width below 1e-12, negative, or involving a
    non-finite bound. A corrupted latent neighbourhood thus collapses
    to a point instead of raising; the point is a bound that is still
    finite, or the current departure for the windows {!local_density}
    pins. The runtime's health checker is responsible for flagging the
    corruption itself. *)

val log_conditional : local_density -> float -> float
(** Unnormalized conditional log-density at a point (≡ the relevant
    terms of Eq. 1 up to a constant); [neg_infinity] outside the
    window. Skips the hinges {!Qnet_prob.Piecewise.compile} drops
    ({!Qnet_prob.Piecewise.finite_hinge}), so it agrees with the
    sampled density up to a constant. For tests. *)

val sample_event : Qnet_prob.Rng.t -> Event_store.t -> Params.t -> int -> float
(** Draw a new departure for one event from its full conditional (does
    not write it back): the fused kernel, bit-identical to
    [compile (local_density store params f)] sampled with [rng]. *)

val resample_event : Qnet_prob.Rng.t -> Event_store.t -> Params.t -> int -> unit
(** {!sample_event} and write back, with [Event_store.set_departure]'s
    guards: [Invalid_argument] on an observed event or a NaN draw. *)

val sweep :
  ?shuffle:bool -> Qnet_prob.Rng.t -> Event_store.t -> Params.t -> unit
(** One full Gibbs sweep: resample every unobserved event once, in
    index order, or in a fresh uniform random order when [shuffle]
    (default [false]). *)

val run :
  ?shuffle:bool -> sweeps:int -> Qnet_prob.Rng.t -> Event_store.t -> Params.t -> unit
(** [run ~sweeps rng store params] applies {!sweep} [sweeps] times. *)
