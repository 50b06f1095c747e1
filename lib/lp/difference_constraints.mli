(** Systems of difference constraints.

    A system over variables [x_0 ... x_{n-1}] built from constraints
    of the form [x_i - x_j <= c], plus unary bounds and equalities.
    Feasibility and a feasible point are computed with Bellman–Ford on
    the constraint graph (negative cycle ⇔ infeasible).

    In this library, difference constraints encode the deterministic
    timing skeleton of a queueing trace — every FIFO/order/positivity
    constraint over the unobserved departure times is of this form —
    and the solver provides feasible initializations for the Gibbs
    sampler (a faster, specialized alternative to the paper's LP
    initialization).

    {b Layout.} Constraints are stored in three parallel growable flat
    arrays (two [int array]s and a [float array]), oldest first, each
    normalised to [x_a - x_b <= w] with node [n] as the zero reference
    (a bound [x_i <= c] is [(i, n, c)], [x_i >= c] is [(n, i, -c)]).
    The initial capacity is four constraints per variable. {!solve}
    builds the constraint graph in CSR form (an offset array over
    nodes [0..n], then parallel target and weight arrays) with each
    node's edges in insertion order, the reference node's
    [default_upper] caps last, from [n-1] down to [0]. It then runs
    SPFA with an [int] ring buffer as the FIFO worklist and a byte
    per node for "queued". Nothing is allocated per constraint or per
    edge, and the relaxation order, hence every bit of the result,
    is fixed by the insertion order. *)

type t

val create : ?default_upper:float -> int -> t
(** [create n] makes an empty system over [n] variables. Variables
    with no effective upper bound are capped by [default_upper]
    (default [1e15]) so solutions stay finite. *)

val num_variables : t -> int

val add_le : t -> int -> int -> float -> unit
(** [add_le t i j c] imposes [x_i - x_j <= c]. *)

val add_upper : t -> int -> float -> unit
(** [add_upper t i c] imposes [x_i <= c]. *)

val add_lower : t -> int -> float -> unit
(** [add_lower t i c] imposes [x_i >= c]. *)

val add_eq : t -> int -> float -> unit
(** [add_eq t i c] imposes [x_i = c]. *)

type infeasibility = { message : string }

val solve : t -> [ `Earliest | `Latest ] -> (float array, infeasibility) result
(** [solve t mode] returns a feasible assignment, or an infeasibility
    witness. [`Latest] is the componentwise-greatest solution (all
    variables as large as the bounds allow); [`Earliest] the
    componentwise-least. *)

val solve_centered : t -> (float array, infeasibility) result
(** The average of the earliest and latest solutions — still feasible
    because the feasible set is convex — which keeps every slack
    strictly interior where possible. This is the recommended Gibbs
    starting point. *)

val check : t -> float array -> (unit, string) result
(** [check t x] verifies that [x] satisfies every recorded constraint
    (to within 1e-9 slack); used by tests and by the sampler's debug
    assertions. When several are violated it reports the one added
    last. *)
