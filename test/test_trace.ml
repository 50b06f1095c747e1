(* Tests for trace construction, statistics, and serialization. *)

module Trace = Qnet_trace.Trace

let check_close ?(eps = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

let ev task state queue arrival departure =
  { Trace.task; state; queue; arrival; departure }

(* two tasks through q0 -> q1; handcrafted FIFO-consistent times *)
let small_trace () =
  Trace.create ~num_queues:2
    [
      ev 0 0 0 0.0 1.0;
      (* task 0 enters at 1.0 *)
      ev 0 1 1 1.0 2.0;
      (* served 1.0 - 2.0 *)
      ev 1 0 0 0.0 1.5;
      ev 1 1 1 1.5 3.0;
      (* waits behind task 0 until 2.0, serves 1.0 *)
    ]

let test_create_valid () =
  let t = small_trace () in
  Alcotest.(check int) "tasks" 2 t.Trace.num_tasks;
  Alcotest.(check int) "events" 4 (Array.length t.Trace.events)

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let test_create_rejects_bad_input () =
  expect_invalid "queue out of range" (fun () ->
      Trace.create ~num_queues:1 [ ev 0 0 1 0.0 1.0 ]);
  expect_invalid "departure before arrival" (fun () ->
      Trace.create ~num_queues:1 [ ev 0 0 0 1.0 0.5 ]);
  expect_invalid "no initial event" (fun () ->
      Trace.create ~num_queues:1 [ ev 0 0 0 1.0 2.0 ]);
  expect_invalid "broken chain" (fun () ->
      Trace.create ~num_queues:2 [ ev 0 0 0 0.0 1.0; ev 0 1 1 1.5 2.0 ]);
  expect_invalid "negative arrival" (fun () ->
      Trace.create ~num_queues:1 [ ev 0 0 0 (-1.0) 1.0 ]);
  expect_invalid "NaN" (fun () -> Trace.create ~num_queues:1 [ ev 0 0 0 0.0 nan ])

let test_tasks_and_grouping () =
  let t = small_trace () in
  Alcotest.(check (array int)) "task ids" [| 0; 1 |] (Trace.tasks t);
  let e0 = Trace.events_of_task t 0 in
  Alcotest.(check int) "task 0 events" 2 (Array.length e0);
  check_close "first is initial" 0.0 e0.(0).Trace.arrival

let test_queue_events_order () =
  let t = small_trace () in
  let q1 = Trace.queue_events t 1 in
  Alcotest.(check int) "count" 2 (Array.length q1);
  Alcotest.(check int) "first arrival first" 0 q1.(0).Trace.task;
  Alcotest.(check int) "second arrival second" 1 q1.(1).Trace.task

let test_service_and_waiting () =
  let t = small_trace () in
  let s = Trace.service_times t 1 in
  let w = Trace.waiting_times t 1 in
  check_close "task0 service" 1.0 s.(0);
  check_close "task0 waiting" 0.0 w.(0);
  check_close "task1 service" 1.0 s.(1);
  check_close "task1 waits for task0" 0.5 w.(1)

let test_q0_service_is_interarrival () =
  let t = small_trace () in
  let s = Trace.service_times t 0 in
  (* all q0 arrivals are at 0; FIFO order by departure: gaps 1.0, 0.5 *)
  check_close "first gap" 1.0 s.(0);
  check_close "second gap" 0.5 s.(1)

let test_response_times () =
  let t = small_trace () in
  let r = Trace.response_times t 1 in
  check_close "task0 response" 1.0 r.(0);
  check_close "task1 response" 1.5 r.(1)

let test_end_to_end () =
  let t = small_trace () in
  let e2e = Trace.end_to_end_response t in
  Alcotest.(check int) "entries" 2 (Array.length e2e);
  let _, r0 = e2e.(0) and _, r1 = e2e.(1) in
  check_close "task0 e2e" 1.0 r0;
  (* task 1 enters at 1.5, leaves 3.0 *)
  check_close "task1 e2e" 1.5 r1

let test_span_and_utilization () =
  let t = small_trace () in
  let lo, hi = Trace.span t in
  check_close "span lo" 0.0 lo;
  check_close "span hi" 3.0 hi;
  (* q1 busy 1.0-2.0 and 2.0-3.0 = 2.0 of 3.0 *)
  check_close "utilization" (2.0 /. 3.0) (Trace.utilization t 1)

let test_csv_roundtrip () =
  let t = small_trace () in
  let csv = Trace.to_csv t in
  match Trace.of_csv ~num_queues:2 csv with
  | Error m -> Alcotest.fail m
  | Ok t' ->
      Alcotest.(check int) "tasks" t.Trace.num_tasks t'.Trace.num_tasks;
      Array.iteri
        (fun i e ->
          let e' = t'.Trace.events.(i) in
          Alcotest.(check int) "task" e.Trace.task e'.Trace.task;
          Alcotest.(check int) "queue" e.Trace.queue e'.Trace.queue;
          check_close "arrival" e.Trace.arrival e'.Trace.arrival;
          check_close "departure" e.Trace.departure e'.Trace.departure)
        t.Trace.events

let test_csv_rejects_garbage () =
  (match Trace.of_csv ~num_queues:1 "task,state,queue,arrival,departure\n1,2\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error");
  match Trace.of_csv ~num_queues:1 "task,state,queue,arrival,departure\na,b,c,d,e\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

let test_csv_file_roundtrip () =
  let t = small_trace () in
  let path = Filename.temp_file "qnet_trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save t path;
      match Trace.load ~num_queues:2 path with
      | Error m -> Alcotest.fail m
      | Ok t' -> Alcotest.(check int) "events" 4 (Array.length t'.Trace.events))

let test_load_missing_file () =
  match Trace.load ~num_queues:1 "/nonexistent/path.csv" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for missing file"

let test_pp_summary_runs () =
  let t = small_trace () in
  let s = Format.asprintf "%a" Trace.pp_summary t in
  Alcotest.(check bool) "mentions tasks" true
    (String.length s > 0
    && String.length s > 10)

(* Lenient-ingestion edge cases: the stream boundary sees empty
   files, Windows line endings, and files cut mid-write. Quarantine
   counts are pinned — a drop must stay visible in the report. *)

let clean_csv =
  "task,state,queue,arrival,departure\n\
   0,0,0,0,1\n\
   0,1,1,1,2\n\
   1,0,0,0,1.5\n\
   1,1,1,1.5,3\n"

let test_lenient_empty_file () =
  match Trace.of_csv_lenient ~num_queues:2 "" with
  | Ok _ -> Alcotest.fail "an empty file has no usable events"
  | Error report ->
      Alcotest.(check int) "lines read" 0 report.Trace.lines_read;
      Alcotest.(check int) "nothing dropped" 0 report.Trace.events_dropped;
      Alcotest.(check int) "nothing kept" 0 report.Trace.events_kept

let test_lenient_crlf () =
  let crlf = String.concat "\r\n" (String.split_on_char '\n' clean_csv) in
  match Trace.of_csv_lenient ~num_queues:2 crlf with
  | Error _ -> Alcotest.fail "CRLF input must parse"
  | Ok (t, report) ->
      Alcotest.(check int) "events" 4 (Array.length t.Trace.events);
      Alcotest.(check int) "nothing quarantined" 0 report.Trace.events_dropped;
      Alcotest.(check int) "no errors" 0 (List.length report.Trace.errors)

let test_lenient_no_final_newline () =
  (* a complete final line without the trailing newline is valid... *)
  let n = String.length clean_csv in
  (match Trace.of_csv_lenient ~num_queues:2 (String.sub clean_csv 0 (n - 1)) with
  | Error _ -> Alcotest.fail "missing final newline must parse"
  | Ok (t, report) ->
      Alcotest.(check int) "events" 4 (Array.length t.Trace.events);
      Alcotest.(check int) "nothing quarantined" 0 report.Trace.events_dropped);
  (* ...a final line cut mid-field is quarantined, exactly once *)
  let truncated =
    "task,state,queue,arrival,departure\n0,0,0,0,1\n0,1,1,1,2\n1,0,0,0,1.5\n1,1,1,1."
  in
  match Trace.of_csv_lenient ~num_queues:2 truncated with
  | Error _ -> Alcotest.fail "survivors exist; must not reject the file"
  | Ok (t, report) ->
      Alcotest.(check int) "survivors" 3 (Array.length t.Trace.events);
      Alcotest.(check int) "one quarantined" 1 report.Trace.events_dropped;
      Alcotest.(check int) "one error" 1 (List.length report.Trace.errors)

(* The typed repair must be exactly the CSV path minus the parse: one
   dirty event list through both entry points, every corruption a typed
   event can carry. Only the source line of an error may differ. *)
let dirty_events () =
  (* times with no short decimal form, so the CSV leg needs %.17g *)
  let path ?(skew = 0.0) task =
    let d = 0.1 *. float_of_int (task + 1) in
    [ ev task 0 0 0.0 d; ev task 1 1 d (d +. 0.3); ev task 2 2 (d +. 0.3 +. skew) (d +. 0.7) ]
  in
  List.concat_map path [ 0; 1; 2; 3 ]
  @ [
      ev 4 0 0 0.0 0.5; ev 4 1 1 Float.nan 0.9;  (* NaN field *)
      ev 5 0 0 0.0 0.6; ev 5 1 7 0.6 0.9;  (* bad queue *)
      ev 6 0 0 0.0 0.7; ev 6 1 1 (-1.0) 0.9;  (* negative time *)
      ev 7 0 0 0.0 0.8; ev 7 1 1 0.8 0.2;  (* departure before arrival *)
      ev 0 1 1 0.1 (0.1 +. 0.3);  (* exact duplicate *)
    ]
  @ path ~skew:0.05 8 (* broken chain *)
  @ [
      ev 9 1 1 0.4 0.9;  (* no initial event *)
      ev 10 0 1 0.0 0.3; ev 10 1 2 0.3 0.8;  (* minority entry queue *)
      ev 11 0 0 0.0 0.2; ev 11 1 1 0.2 0.6; ev 11 2 0 0.6 0.9;  (* revisits q0 *)
    ]

let test_lenient_events_match_csv () =
  let evs = dirty_events () in
  let csv =
    String.concat ""
      (List.map
         (fun (e : Trace.event) ->
           Printf.sprintf "%d,%d,%d,%.17g,%.17g\n" e.Trace.task e.Trace.state
             e.Trace.queue e.Trace.arrival e.Trace.departure)
         evs)
  in
  let bits (t : Trace.t) =
    Array.to_list
      (Array.map
         (fun (e : Trace.event) ->
           Printf.sprintf "%d,%d,%d,%Lx,%Lx" e.Trace.task e.Trace.state
             e.Trace.queue
             (Int64.bits_of_float e.Trace.arrival)
             (Int64.bits_of_float e.Trace.departure))
         t.Trace.events)
  in
  let reasons (r : Trace.ingest_report) =
    List.map
      (fun (e : Trace.line_error) ->
        (Trace.corruption_label e.Trace.reason, e.Trace.task_id))
      r.Trace.errors
  in
  match
    ( Trace.of_events_lenient ~num_queues:3 evs,
      Trace.of_csv_lenient ~num_queues:3 csv )
  with
  | Ok (t_ev, r_ev), Ok (t_csv, r_csv) ->
      Alcotest.(check (list string)) "events bit-identical" (bits t_csv) (bits t_ev);
      Alcotest.(check int) "num_tasks" t_csv.Trace.num_tasks t_ev.Trace.num_tasks;
      Alcotest.(check int) "lines read" r_csv.Trace.lines_read r_ev.Trace.lines_read;
      Alcotest.(check int) "kept" r_csv.Trace.events_kept r_ev.Trace.events_kept;
      Alcotest.(check int) "dropped" r_csv.Trace.events_dropped r_ev.Trace.events_dropped;
      Alcotest.(check int) "tasks dropped" r_csv.Trace.tasks_dropped
        r_ev.Trace.tasks_dropped;
      Alcotest.(check (list (pair string (option int))))
        "errors" (reasons r_csv) (reasons r_ev);
      Alcotest.(check bool) "typed errors carry no line" true
        (List.for_all (fun (e : Trace.line_error) -> e.Trace.line = None) r_ev.Trace.errors);
      (* every corruption a typed event can carry was exercised *)
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Trace.corruption_label c) true
            (List.exists (fun (e : Trace.line_error) -> e.Trace.reason = c) r_ev.Trace.errors))
        Trace.
          [
            Nan_field; Bad_queue; Negative_time; Out_of_order; Duplicate_event;
            Broken_chain; Missing_initial; Inconsistent_route;
          ];
      Alcotest.(check int) "survivors" 20 r_ev.Trace.events_kept
  | _ -> Alcotest.fail "both paths must keep the clean tasks"

(* Repair pinned bit for bit: a dirty corpus through both lenient entry
   points, rendered in full (every event's bits, every counter, every
   error with its line, task and detail, in report order) and compared
   with digests recorded from the list-based repair that the
   array-based one replaced. The first two were re-recorded when the
   final sort became stable: task 2's tied zero-length visits now keep
   their input order on both paths. *)
let pinned_corpus () =
  [
    (* task 3 first: tasks are grouped by first appearance *)
    ev 3 0 0 0.0 0.25; ev 3 1 1 0.25 0.5;
    (* duplicates that differ only in the sign of a zero: the first
       occurrence is kept, -0.0 included *)
    ev 0 0 0 (-0.0) 0.1; ev 0 0 0 0.0 0.1; ev 0 1 1 0.1 0.4;
    ev 1 0 0 0.0 0.0; ev 1 0 0 0.0 (-0.0); ev 1 1 2 0.0 0.3;
    ev 3 2 2 0.5 0.75;
    (* equal (arrival, departure) with a different state or queue *)
    ev 2 0 0 0.0 0.2; ev 2 1 1 0.2 0.2; ev 2 2 1 0.2 0.2; ev 2 1 2 0.2 0.2;
    ev 2 3 2 0.2 0.6;
    (* equal entry times across tasks *)
    ev 4 0 0 0.0 0.2; ev 4 1 2 0.2 0.45;
    (* broken chains: a skew, and a gap after a good prefix *)
    ev 5 0 0 0.0 0.3; ev 5 1 1 0.3 0.5; ev 5 2 2 0.55 0.8; ev 5 3 1 0.8 0.9;
    ev 6 0 0 0.0 0.35; ev 6 1 1 0.4 0.6;
    (* minority entry queue *)
    ev 7 0 1 0.0 0.3; ev 7 1 2 0.3 0.7;
    (* q0 revisits: mid-path and as the second event *)
    ev 8 0 0 0.0 0.4; ev 8 1 1 0.4 0.6; ev 8 2 0 0.6 0.9; ev 8 3 2 0.9 1.0;
    ev 9 0 0 0.0 0.45; ev 9 1 0 0.45 0.5;
    (* missing initial event, and a late duplicate of a kept record *)
    ev 10 1 1 0.2 0.5; ev 3 1 1 0.25 0.5;
    (* per-field failures interleaved with good records *)
    ev 11 0 0 0.0 0.5; ev 11 1 1 0.5 Float.nan; ev 11 1 1 0.5 0.7;
    ev 12 0 0 0.0 0.55; ev 12 1 3 0.55 0.8; ev 12 1 2 0.55 0.8;
    ev 13 0 0 0.0 (-0.5); ev 13 0 0 0.0 0.6; ev 13 1 1 0.6 0.4; ev 13 1 2 0.6 0.95;
  ]

let render_ingest = function
  | Error (r : Trace.ingest_report) -> "error\n" ^ Format.asprintf "%a" Trace.pp_ingest_report r
  | Ok ((t : Trace.t), r) ->
      let buf = Buffer.create 4096 in
      Printf.bprintf buf "queues %d tasks %d\n" t.Trace.num_queues t.Trace.num_tasks;
      Array.iter
        (fun (e : Trace.event) ->
          Printf.bprintf buf "%d %d %d %h %h\n" e.Trace.task e.Trace.state e.Trace.queue
            e.Trace.arrival e.Trace.departure)
        t.Trace.events;
      Buffer.add_string buf (Format.asprintf "%a" Trace.pp_ingest_report r);
      Buffer.contents buf

let check_pinned name expected rendered =
  let got = Digest.to_hex (Digest.string rendered) in
  if got <> expected then Alcotest.failf "%s: digest %s, expected %s; rendering:\n%s" name got expected rendered

let test_lenient_pinned () =
  let evs = pinned_corpus () in
  let lines =
    List.map
      (fun (e : Trace.event) ->
        Printf.sprintf "%d,%d,%d,%.17g,%.17g" e.Trace.task e.Trace.state e.Trace.queue
          e.Trace.arrival e.Trace.departure)
      evs
  in
  (* the CSV leg adds what only text can carry: a header, blank and
     padded lines, CRLF endings and malformed records *)
  let csv =
    String.concat "\n"
      ([ "task,state,queue,arrival,departure"; "" ]
      @ List.mapi
          (fun k l ->
            match k mod 7 with
            | 0 -> l ^ "\r"
            | 3 -> " " ^ String.concat " , " (String.split_on_char ',' l) ^ "\t"
            | _ -> l)
          lines
      @ [ "14,0,0,0"; "15,0,0,0,0.5,1"; "16,x,0,0,0.5"; "   "; "17,0,0,0,0x1p-1"; "17,1,1,0.5,0.9" ])
  in
  check_pinned "of_events_lenient" "a41556937961902538813462bb250e17" (render_ingest (Trace.of_events_lenient ~num_queues:3 evs));
  check_pinned "of_csv_lenient" "79fe07184e6b3ca6383692dd37a2ac9a" (render_ingest (Trace.of_csv_lenient ~num_queues:3 csv));
  (* equal counts at two entry queues: the tie is broken the same way *)
  let tie = [ ev 0 0 1 0.0 0.2; ev 0 1 2 0.2 0.3; ev 1 0 0 0.0 0.3; ev 1 1 2 0.3 0.4 ] in
  check_pinned "entry-queue tie" "460aee6fc22cd781632875a5fcde79ad" (render_ingest (Trace.of_events_lenient ~num_queues:3 tie));
  check_pinned "nothing survives" "2bc4e96af008591918b11559a022cdf6"
    (render_ingest (Trace.of_events_lenient ~num_queues:3 [ ev 0 1 1 0.5 0.7; ev 1 0 0 0.0 Float.nan ]))

(* Zero-length visits tie on (task, arrival, departure): the sort must
   keep them in input order, whatever other tasks share the trace. *)
let test_tied_visits_keep_input_order () =
  let tied =
    [ ev 2 0 0 0.0 0.2; ev 2 1 1 0.2 0.2; ev 2 2 1 0.2 0.2; ev 2 4 2 0.2 0.2; ev 2 3 2 0.2 0.6 ]
  in
  let other task = [ ev task 0 0 0.0 0.3; ev task 1 1 0.3 0.5; ev task 2 2 0.5 0.9 ] in
  for k = 0 to 24 do
    let before = List.concat_map other (List.init (k / 2) (fun i -> 10 + i)) in
    let after = List.concat_map other (List.init (k - (k / 2)) (fun i -> 40 + i)) in
    let t = Trace.create ~num_queues:3 (before @ tied @ after) in
    let states =
      Array.to_list t.Trace.events
      |> List.filter_map (fun (e : Trace.event) ->
             if e.Trace.task = 2 then Some e.Trace.state else None)
    in
    Alcotest.(check (list int)) (Printf.sprintf "task 2 order with %d other tasks" k)
      [ 0; 1; 2; 4; 3 ] states
  done

let () =
  Alcotest.run "qnet_trace"
    [
      ( "trace",
        [
          Alcotest.test_case "create valid" `Quick test_create_valid;
          Alcotest.test_case "create rejects bad input" `Quick test_create_rejects_bad_input;
          Alcotest.test_case "tasks and grouping" `Quick test_tasks_and_grouping;
          Alcotest.test_case "queue event order" `Quick test_queue_events_order;
          Alcotest.test_case "service and waiting" `Quick test_service_and_waiting;
          Alcotest.test_case "q0 interarrival" `Quick test_q0_service_is_interarrival;
          Alcotest.test_case "response times" `Quick test_response_times;
          Alcotest.test_case "end-to-end" `Quick test_end_to_end;
          Alcotest.test_case "span and utilization" `Quick test_span_and_utilization;
          Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "csv rejects garbage" `Quick test_csv_rejects_garbage;
          Alcotest.test_case "csv file roundtrip" `Quick test_csv_file_roundtrip;
          Alcotest.test_case "load missing file" `Quick test_load_missing_file;
          Alcotest.test_case "summary printer" `Quick test_pp_summary_runs;
        ] );
      ( "lenient-edges",
        [
          Alcotest.test_case "empty file" `Quick test_lenient_empty_file;
          Alcotest.test_case "crlf line endings" `Quick test_lenient_crlf;
          Alcotest.test_case "final line without newline" `Quick
            test_lenient_no_final_newline;
          Alcotest.test_case "typed events match csv" `Quick
            test_lenient_events_match_csv;
          Alcotest.test_case "pinned repair" `Quick test_lenient_pinned;
          Alcotest.test_case "tied visits keep input order" `Quick
            test_tied_visits_keep_input_order;
        ] );
    ]
