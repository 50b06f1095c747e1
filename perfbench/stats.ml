(* The benchmark's own arithmetic: the nearest-rank percentile, the tail
   rule and open-loop latency. Kept free of I/O so the self-test can pin
   every rule on synthetic inputs with known answers. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least p% of the
   sample at or below it. *)
let rank n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  (sorted xs).(rank n p - 1)

(* The tail rule. A tail is only worth reporting when enough samples
   lie beyond it to make it more than one unlucky draw, so the tail is
   the highest percentile on a fixed ladder that leaves at least
   [min_beyond] samples strictly beyond its nearest rank. The ladder is
   coarse on purpose: a run that gets a few more or fewer samples keeps
   the same percentile, so the figure stays comparable between runs.
   [None] when even the median leaves too few samples beyond it. *)
let tail_ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]
let min_beyond = 10

type tail = { percentile : float; value : float }

let tail xs =
  let n = Array.length xs in
  match List.find_opt (fun p -> n - rank n p >= min_beyond) tail_ladder with
  | None -> None
  | Some p -> Some { percentile = p; value = percentile xs p }

(* Open-loop latency. A load generator that waits for each reply before
   sending the next request hides a stall: the requests it would have
   sent during the stall are simply never sent. Timing each request
   from the moment it was due, not from the moment it was sent, charges
   the stall to every request queued behind it. [due.(i)] and
   [done_.(i)] are absolute times of request [i]. *)
let open_loop_latencies ~due ~done_ =
  if Array.length due <> Array.length done_ then
    invalid_arg "Stats.open_loop_latencies: length mismatch";
  Array.mapi (fun i d -> done_.(i) -. d) due

(* How late the generator itself started each request: the part of the
   open-loop latency that is the client's fault, recorded so that a
   slow generator is not mistaken for a slow server. *)
let lateness ~due ~started =
  if Array.length due <> Array.length started then
    invalid_arg "Stats.lateness: length mismatch";
  Array.mapi (fun i d -> Float.max 0.0 (started.(i) -. d)) due
