(* The four xoshiro256++ words live unboxed in a 32-byte buffer, read
   and written with the native-endian 64-bit primitives: a draw then
   allocates nothing but its (boxed) result, where int64 record fields
   would box every word on every store. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256++ step. Inlined into every draw below, so the state
   words and the output stay unboxed. *)
let[@inline] next t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 tmp in
  let s3 = rotl s3 45 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  result

(* splitmix64: used only to expand a seed into the xoshiro state, per
   the xoshiro authors' recommendation. *)
let splitmix64_next state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_seed64 seed =
  let st = ref seed in
  let t = Bytes.create 32 in
  for w = 0 to 3 do
    set64 t (8 * w) (splitmix64_next st)
  done;
  t

let default_seed = 0x51CEB00B1E5

let create ?(seed = default_seed) () = of_seed64 (Int64.of_int seed)

let copy = Bytes.copy

let state t = [| get64 t 0; get64 t 8; get64 t 16; get64 t 24 |]

let set_state t s =
  if Array.length s <> 4 then invalid_arg "Rng.set_state: need 4 words";
  if Array.for_all (fun w -> Int64.equal w 0L) s then
    invalid_arg "Rng.set_state: all-zero state is invalid for xoshiro256++";
  Array.iteri (fun w x -> set64 t (8 * w) x) s

let of_state s =
  let t = Bytes.make 32 '\000' in
  set_state t s;
  t

let bits64 t = next t

let split t = of_seed64 (next t)

(* 53 high bits of the output word, scaled by 2^-53. *)
let[@inline] unit_float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

let float_unit t = unit_float t

let float_pos t = 1.0 -. unit_float t

let float_range t lo hi =
  if hi <= lo then lo else lo +. ((hi -. lo) *. unit_float t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection from the top 62 bits to avoid modulo bias. *)
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let r = ref (-1) in
  while !r < 0 do
    let v = Int64.to_int (Int64.shift_right_logical (next t) 2) land mask in
    let x = v mod n in
    if v - x + (n - 1) >= 0 then r := x
  done;
  !r

let bool t = not (Int64.equal (Int64.logand (next t) 1L) 0L)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Sequential selection: include index i with probability
     (still needed) / (still remaining). Output is naturally sorted. *)
  let acc = ref [] and needed = ref k and i = ref 0 in
  while !needed > 0 do
    if unit_float t *. float_of_int (n - !i) < float_of_int !needed then begin
      acc := !i :: !acc;
      decr needed
    end;
    incr i
  done;
  List.rev !acc

let categorical t w =
  let n = Array.length w in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let x = w.(i) in
    if x < 0.0 || Float.is_nan x then invalid_arg "Rng.categorical: negative weight";
    total := !total +. x
  done;
  if !total <= 0.0 then invalid_arg "Rng.categorical: no positive weight";
  let u = unit_float t *. !total in
  (* First i with u below the running sum; the last index when none. *)
  let i = ref 0 and acc = ref 0.0 in
  while !i < n - 1 && (acc := !acc +. w.(!i); not (u < !acc)) do
    incr i
  done;
  (* Guard against all mass sitting in trailing zero weights. *)
  while not (w.(!i) > 0.0) do
    decr i
  done;
  !i
