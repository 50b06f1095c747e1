(* Every constraint is kept as x_a - x_b <= w over nodes 0..n, node n
   being the zero reference: x_i - x_j <= c is (i, j, c), x_i <= c is
   (i, n, c) and x_i >= c is (n, i, -c), so a bound is told from a
   difference by which index is [n]. Three parallel growable arrays
   hold them, oldest first. *)
type t = {
  n : int;
  default_upper : float;
  mutable count : int;
  mutable a : int array;
  mutable b : int array;
  mutable w : float array;
}

let create ?(default_upper = 1e15) n =
  if n < 0 then invalid_arg "Difference_constraints.create: negative size";
  (* a trace's timing skeleton has at most about four constraints per
     variable, so this capacity rarely grows *)
  let cap = 4 * (n + 4) in
  { n; default_upper; count = 0; a = Array.make cap 0; b = Array.make cap 0; w = Array.make cap 0.0 }

let num_variables t = t.n

let check_var t i name =
  if i < 0 || i >= t.n then invalid_arg ("Difference_constraints." ^ name ^ ": bad variable")

let push t a b w =
  let k = t.count in
  if k = Array.length t.a then begin
    (* double the capacity; the copied tail is overwritten as it fills *)
    let grow arr = Array.append arr arr in
    t.a <- grow t.a;
    t.b <- grow t.b;
    t.w <- grow t.w
  end;
  t.a.(k) <- a;
  t.b.(k) <- b;
  t.w.(k) <- w;
  t.count <- k + 1

let add_le t i j c =
  check_var t i "add_le";
  check_var t j "add_le";
  push t i j c

let add_upper t i c =
  check_var t i "add_upper";
  push t i t.n c

let add_lower t i c =
  check_var t i "add_lower";
  push t t.n i (-.c)

let add_eq t i c =
  add_upper t i c;
  add_lower t i c

type infeasibility = { message : string }

(* The constraint graph in CSR form: node u's edges are [target.(k)],
   [weight.(k)] for [offset.(u) <= k < offset.(u+1)], constraints
   oldest first, then (reference node only) the [default_upper] caps
   from n-1 down to 0. [`Latest] turns x_a - x_b <= w into the edge
   b -> a; [`Earliest] solves for y = -x, which turns it into a -> b. *)
let graph t mode =
  let n = t.n and m = t.count in
  let src, dst = match mode with `Latest -> (t.b, t.a) | `Earliest -> (t.a, t.b) in
  (* count each node's edges, take prefix sums, then fill with
     [offset.(u)] as node u's cursor and shift it back by one node *)
  let offset = Array.make (n + 2) 0 in
  for k = 0 to m - 1 do
    offset.(src.(k) + 1) <- offset.(src.(k) + 1) + 1
  done;
  offset.(n + 1) <- offset.(n + 1) + n;
  for u = 1 to n + 1 do
    offset.(u) <- offset.(u) + offset.(u - 1)
  done;
  let target = Array.make (m + n) 0 and weight = Array.make (m + n) 0.0 in
  let place u v w =
    let k = offset.(u) in
    target.(k) <- v;
    weight.(k) <- w;
    offset.(u) <- k + 1
  in
  for k = 0 to m - 1 do
    place src.(k) dst.(k) t.w.(k)
  done;
  for i = n - 1 downto 0 do
    place n i t.default_upper
  done;
  for u = n downto 1 do
    offset.(u) <- offset.(u - 1)
  done;
  offset.(0) <- 0;
  (offset, target, weight)

(* Shortest paths from the reference by SPFA — Bellman–Ford driven by
   a FIFO worklist (an int ring buffer: a node is queued at most once
   at a time), near-linear on the DAG-like constraint graphs produced
   by traces. dist is the componentwise-greatest feasible solution
   with x_ref = 0. A node relaxed more than [n + 1] times witnesses a
   negative cycle. *)
let bellman_ford n (offset, target, weight) =
  let nodes = n + 1 in
  let dist = Array.make nodes infinity in
  let in_queue = Bytes.make nodes '\000' in
  let relax_count = Array.make nodes 0 in
  let ring = Array.make nodes 0 in
  let head = ref 0 and size = ref 1 in
  dist.(n) <- 0.0;
  ring.(0) <- n;
  Bytes.set in_queue n '\001';
  let negative_cycle = ref false in
  while (not !negative_cycle) && !size > 0 do
    let u = ring.(!head) in
    head := if !head + 1 = nodes then 0 else !head + 1;
    decr size;
    Bytes.set in_queue u '\000';
    let du = dist.(u) in
    for k = offset.(u) to offset.(u + 1) - 1 do
      let v = target.(k) in
      let d = du +. weight.(k) in
      if d < dist.(v) -. 1e-12 then begin
        dist.(v) <- d;
        relax_count.(v) <- relax_count.(v) + 1;
        if relax_count.(v) > n + 1 then negative_cycle := true
        else if Bytes.get in_queue v = '\000' then begin
          let tail = !head + !size in
          ring.(if tail >= nodes then tail - nodes else tail) <- v;
          incr size;
          Bytes.set in_queue v '\001'
        end
      end
    done
  done;
  if !negative_cycle then
    Error { message = "negative cycle: constraints are contradictory" }
  else Ok dist

(* Explicit loops: [Array.init] would box every float its closure
   returns. *)
let solve t mode =
  match bellman_ford t.n (graph t mode) with
  | Error e -> Error e
  | Ok dist ->
      let x = Array.make t.n 0.0 and r = dist.(t.n) in
      (match mode with
      | `Latest ->
          for i = 0 to t.n - 1 do
            x.(i) <- dist.(i) -. r
          done
      | `Earliest ->
          for i = 0 to t.n - 1 do
            x.(i) <- r -. dist.(i)
          done);
      Ok x

let solve_centered t =
  match solve t `Earliest with
  | Error e -> Error e
  | Ok earliest -> (
      match solve t `Latest with
      | Error e -> Error e
      | Ok latest ->
          for i = 0 to t.n - 1 do
            earliest.(i) <- 0.5 *. (earliest.(i) +. latest.(i))
          done;
          Ok earliest)

let check t x =
  if Array.length x <> t.n then Error "check: wrong dimension"
  else begin
    let slack = 1e-9 in
    let violated k =
      let a = t.a.(k) and b = t.b.(k) and w = t.w.(k) in
      if b = t.n then x.(a) > w +. slack
      else if a = t.n then x.(b) < -.w -. slack
      else x.(a) -. x.(b) > w +. slack
    in
    (* the newest violated constraint is the one reported *)
    let rec newest k = if k < 0 then None else if violated k then Some k else newest (k - 1) in
    match newest (t.count - 1) with
    | None -> Ok ()
    | Some k ->
        let a = t.a.(k) and b = t.b.(k) and w = t.w.(k) in
        if b = t.n then Error (Printf.sprintf "violated: x%d <= %g (got %g)" a w x.(a))
        else if a = t.n then Error (Printf.sprintf "violated: x%d >= %g (got %g)" b (-.w) x.(b))
        else Error (Printf.sprintf "violated: x%d - x%d <= %g (got %g)" a b w (x.(a) -. x.(b)))
  end
