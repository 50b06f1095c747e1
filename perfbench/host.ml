(* Host speed. On a shared host every run slows down together, by up to
   40% for minutes at a time, when other tenants load the shared L3 and
   memory bandwidth. Wall times measured a few minutes apart are then
   not comparable, and no statistic taken inside one run removes a
   slowdown that lasts the whole run.

   So the benchmark times a fixed reference workload before and after
   each measured operation and reports that operation's time scaled by
   [nominal_s /. reference]: seconds on a host where the reference takes
   [nominal_s]. The reference shares no code with the program under
   test and runs in a child process, so no change to the program can
   move it, and its memory is not charged to the benchmark's own peak
   resident set. It stresses what the fits stress: random reads over a
   working set larger than L2, and allocation that survives minor
   collections. The raw wall times are kept in the report. *)

let now = Unix.gettimeofday

(* A typical reference time on a 2-vCPU KVM guest of an Intel Xeon
   (family 6, model 143) shared with other tenants. Any constant gives
   the same run-to-run spread; this one keeps the scaled figures close
   to typical wall times there. *)
let nominal_s = 0.3

let reference () =
  let n = 1 lsl 21 (* 16 MiB of ints: beyond L2, inside the shared L3 *) in
  let a = Array.init n (fun i -> i) in
  let keep = Array.make 100_000 [] in
  let t0 = now () in
  let s = ref 0 and j = ref 1 in
  for _ = 1 to 10_000_000 do
    j := ((!j * 1103515245) + 12345) land (n - 1);
    s := !s + a.(!j)
  done;
  for i = 1 to 1_500_000 do
    keep.(i mod 100_000) <- [ i; i + 1; i + 2 ]
  done;
  ignore (Sys.opaque_identity (!s, keep));
  now () -. t0

(* Run the reference in a child process ([perfbench reference]) and
   wait for it. *)
let measure () =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "reference" |] in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, Option.bind line float_of_string_opt) with
  | Unix.WEXITED 0, Some t when t > 0.0 -> t
  | _ -> failwith "the host reference did not run"

(* Every reference measured in this run, newest first, with the time it
   ended. *)
let timeline : (float * float) list ref = ref []

let calibrate () =
  let t = measure () in
  timeline := (now (), t) :: !timeline

(* Scale for work done between [t0] and [t1]: nominal over the mean of
   the last reference before [t0] and the first after [t1]. Bracketing
   the work follows the host through slowdowns shorter than a run. *)
let scale ~t0 ~t1 =
  let before = List.find_opt (fun (at, _) -> at <= t0) !timeline in
  let after = List.fold_left (fun acc (at, r) -> if at >= t1 then Some (at, r) else acc) None !timeline in
  match (before, after) with
  | Some (_, b), Some (_, a) -> nominal_s /. (0.5 *. (a +. b))
  | _ -> invalid_arg "Host.scale: the work is not bracketed by references"

let references () = List.rev_map snd !timeline
