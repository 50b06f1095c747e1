type event = {
  task : int;
  state : int;
  queue : int;
  arrival : float;
  departure : float;
}

type t = { num_queues : int; num_tasks : int; events : event array }

let chain_tolerance = 1e-9

let compare_task_arrival a b =
  (* ties on arrival (e.g. a task entering at exactly time 0, whose
     initial event departs at 0 too) resolve by departure so the chain
     order is preserved *)
  match compare a.task b.task with
  | 0 -> (
      match compare a.arrival b.arrival with
      | 0 -> compare a.departure b.departure
      | c -> c)
  | c -> c

let create ~num_queues events =
  let events = Array.of_list events in
  Array.sort compare_task_arrival events;
  Array.iter
    (fun e ->
      if e.queue < 0 || e.queue >= num_queues then
        invalid_arg
          (Printf.sprintf "Trace.create: queue %d out of range [0,%d)" e.queue num_queues);
      if Float.is_nan e.arrival || Float.is_nan e.departure then
        invalid_arg "Trace.create: NaN time";
      if e.arrival < 0.0 then invalid_arg "Trace.create: negative arrival time";
      if e.departure < e.arrival -. chain_tolerance then
        invalid_arg
          (Printf.sprintf "Trace.create: departure %.12g before arrival %.12g (task %d)"
             e.departure e.arrival e.task))
    events;
  (* Per-task chain check. *)
  let num_tasks = ref 0 in
  let n = Array.length events in
  let i = ref 0 in
  while !i < n do
    let task = events.(!i).task in
    incr num_tasks;
    let first = events.(!i) in
    if not (Float.equal first.arrival 0.0) then
      invalid_arg
        (Printf.sprintf "Trace.create: task %d has no initial event at time 0" task);
    let j = ref (!i + 1) in
    while !j < n && events.(!j).task = task do
      let prev = events.(!j - 1) and cur = events.(!j) in
      if Float.abs (cur.arrival -. prev.departure) > chain_tolerance then
        invalid_arg
          (Printf.sprintf
             "Trace.create: task %d broken chain: arrival %.12g <> previous departure %.12g"
             task cur.arrival prev.departure);
      incr j
    done;
    i := !j
  done;
  { num_queues; num_tasks = !num_tasks; events }

let tasks t =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  Array.iter
    (fun e ->
      if not (Hashtbl.mem seen e.task) then begin
        Hashtbl.add seen e.task ();
        acc := e.task :: !acc
      end)
    t.events;
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

let events_of_task t task =
  let es = Array.of_list (List.filter (fun e -> e.task = task) (Array.to_list t.events)) in
  Array.sort (fun a b -> compare a.arrival b.arrival) es;
  es

let queue_events t q =
  let es = Array.of_list (List.filter (fun e -> e.queue = q) (Array.to_list t.events)) in
  (* FIFO order: by arrival, ties (notably the all-zero arrivals at q0)
     by departure, then task for determinism. *)
  Array.sort
    (fun a b ->
      match compare a.arrival b.arrival with
      | 0 -> (
          match compare a.departure b.departure with
          | 0 -> compare a.task b.task
          | c -> c)
      | c -> c)
    es;
  es

let service_and_waiting t q =
  let es = queue_events t q in
  let n = Array.length es in
  let service = Array.make n 0.0 and waiting = Array.make n 0.0 in
  let last_departure = ref neg_infinity in
  for i = 0 to n - 1 do
    let e = es.(i) in
    let start = Float.max e.arrival !last_departure in
    service.(i) <- e.departure -. start;
    waiting.(i) <- start -. e.arrival;
    last_departure := e.departure
  done;
  (service, waiting)

let service_times t q = fst (service_and_waiting t q)
let waiting_times t q = snd (service_and_waiting t q)

let response_times t q =
  Array.map (fun e -> e.departure -. e.arrival) (queue_events t q)

let end_to_end_response t =
  (* events are sorted by (task, arrival): one pass suffices *)
  let acc = ref [] in
  let n = Array.length t.events in
  let i = ref 0 in
  while !i < n do
    let task = t.events.(!i).task in
    let entry = t.events.(!i).departure in
    let last = ref entry in
    let j = ref !i in
    while !j < n && t.events.(!j).task = task do
      last := t.events.(!j).departure;
      incr j
    done;
    acc := (task, !last -. entry) :: !acc;
    i := !j
  done;
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

let span t =
  Array.fold_left
    (fun (lo, hi) e -> (Float.min lo e.arrival, Float.max hi e.departure))
    (infinity, neg_infinity) t.events

let utilization t q =
  let busy = Array.fold_left ( +. ) 0.0 (service_times t q) in
  let lo, hi = span t in
  if hi <= lo then 0.0 else busy /. (hi -. lo)

let to_csv t =
  let buf = Buffer.create (Array.length t.events * 64) in
  Buffer.add_string buf "task,state,queue,arrival,departure\n";
  Array.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%.17g,%.17g\n" e.task e.state e.queue e.arrival
           e.departure))
    t.events;
  Buffer.contents buf

let of_csv ~num_queues text =
  let lines = String.split_on_char '\n' text in
  let parse_line lineno line =
    match String.split_on_char ',' (String.trim line) with
    | [ task; state; queue; arrival; departure ] -> (
        try
          Ok
            {
              task = int_of_string task;
              state = int_of_string state;
              queue = int_of_string queue;
              arrival = float_of_string arrival;
              departure = float_of_string departure;
            }
        with Failure _ ->
          (* int_of_string / float_of_string reject with Failure;
             anything else (OOM-class) must propagate *)
          Error (Printf.sprintf "line %d: malformed fields" lineno))
    | _ -> Error (Printf.sprintf "line %d: expected 5 comma-separated fields" lineno)
  in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go (lineno + 1) acc rest
        else if lineno = 1 && String.length line >= 4 && String.sub line 0 4 = "task" then
          go (lineno + 1) acc rest
        else begin
          match parse_line lineno line with
          | Ok e -> go (lineno + 1) (e :: acc) rest
          | Error msg -> Error msg
        end
  in
  match go 1 [] lines with
  | Error msg -> Error msg
  | Ok events -> (
      try Ok (create ~num_queues events) with Invalid_argument msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Lenient ingestion: real-world trace files arrive with truncated
   lines, NaN fields, duplicated records, clock skew and reordering.
   Strict mode ([of_csv]) rejects the whole file; lenient mode
   classifies and skips the corrupt records, keeps every task whose
   event chain survives intact, and reports exactly what was dropped
   and why. *)

type corruption =
  | Malformed_line  (** truncated line / wrong field count / unparseable *)
  | Nan_field
  | Negative_time
  | Out_of_order  (** departure earlier than arrival *)
  | Bad_queue
  | Duplicate_event
  | Broken_chain  (** clock skew: arrival disagrees with predecessor departure *)
  | Missing_initial  (** task has no entry event at time 0 *)
  | Inconsistent_route
      (** task enters at a minority arrival queue, or revisits it *)

let corruption_label = function
  | Malformed_line -> "malformed-line"
  | Nan_field -> "nan-field"
  | Negative_time -> "negative-time"
  | Out_of_order -> "out-of-order"
  | Bad_queue -> "bad-queue"
  | Duplicate_event -> "duplicate-event"
  | Broken_chain -> "broken-chain"
  | Missing_initial -> "missing-initial"
  | Inconsistent_route -> "inconsistent-route"

type line_error = {
  line : int option;  (** 1-based source line; [None] for task-level drops *)
  task_id : int option;
  reason : corruption;
  detail : string;
}

type ingest_report = {
  errors : line_error list;
  lines_read : int;
  events_kept : int;
  events_dropped : int;
  tasks_dropped : int;
}

let pp_ingest_report ppf r =
  Format.fprintf ppf
    "ingest: %d lines read, %d events kept, %d events dropped, %d tasks dropped@."
    r.lines_read r.events_kept r.events_dropped r.tasks_dropped;
  let counts = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let k = corruption_label e.reason in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    r.errors;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort compare
  |> List.iter (fun (k, v) -> Format.fprintf ppf "  %-18s %d@." k v);
  List.iter
    (fun e ->
      Format.fprintf ppf "  [%s]%s%s %s@."
        (corruption_label e.reason)
        (match e.line with Some l -> Printf.sprintf " line %d:" l | None -> "")
        (match e.task_id with Some t -> Printf.sprintf " task %d:" t | None -> "")
        e.detail)
    (List.rev r.errors)

(* Per-event sanity: the checks a single record can fail on its own,
   before any cross-record repair. *)
let field_error ~num_queues e =
  if Float.is_nan e.arrival || Float.is_nan e.departure then
    Some (Nan_field, "NaN arrival or departure")
  else if e.queue < 0 || e.queue >= num_queues then
    Some (Bad_queue, Printf.sprintf "queue %d outside [0,%d)" e.queue num_queues)
  else if e.arrival < 0.0 || e.departure < 0.0 then
    Some
      ( Negative_time,
        Printf.sprintf "negative time (arrival %g, departure %g)" e.arrival
          e.departure )
  else if e.departure < e.arrival -. chain_tolerance then
    Some
      ( Out_of_order,
        Printf.sprintf "departure %g before arrival %g" e.departure e.arrival )
  else None

(* The repair half of lenient ingestion, on records already parsed.
   [parsed] pairs each event with its 1-based source line (0 when it
   has none) in source order; [parse_errors] (newest first),
   [lines_read] and [data_lines] carry what the parse step saw. *)
let repair ~num_queues ~parse_errors ~lines_read ~data_lines parsed =
  let errors = ref [] and field_errors = ref [] in
  let add errs ?line ?task reason detail =
    errs := { line; task_id = task; reason; detail } :: !errs
  in
  let record = add errors in
  let source_line l = if l > 0 then Some l else None in
  (* Pass 1: per-field sanity, then drop exact duplicates (keep the
     first occurrence). *)
  let seen = Hashtbl.create 256 in
  let deduped =
    List.filter
      (fun (line, e) ->
        match field_error ~num_queues e with
        | Some (reason, detail) ->
            add field_errors ?line:(source_line line) ~task:e.task reason detail;
            false
        | None ->
            let key = (e.task, e.state, e.queue, e.arrival, e.departure) in
            if Hashtbl.mem seen key then begin
              record ?line:(source_line line) ~task:e.task Duplicate_event
                "exact duplicate record";
              false
            end
            else begin
              Hashtbl.add seen key ();
              true
            end)
      parsed
  in
  (* the per-line errors of both steps precede the duplicates, in
     source order: both lists are newest first, so merge by descending
     line *)
  errors :=
    !errors @ List.merge (fun a b -> compare b.line a.line) !field_errors parse_errors;
  (* Pass 2: per-task chain repair. Sort each task's events by arrival
     and keep the longest valid prefix of the chain; a clock-skewed or
     missing record invalidates everything after it (the later arrivals
     can no longer be tied to a departure), not the whole task. *)
  let by_task = Hashtbl.create 64 in
  let task_order = ref [] in
  List.iter
    (fun (_line, e) ->
      match Hashtbl.find_opt by_task e.task with
      | None ->
          Hashtbl.add by_task e.task (ref [ e ]);
          task_order := e.task :: !task_order
      | Some l -> l := e :: !l)
    deduped;
  let task_order = List.rev !task_order in
  let tasks_dropped = ref 0 in
  let chains =
    List.filter_map
      (fun task ->
        let events = List.rev !(Hashtbl.find by_task task) in
        let events =
          List.sort
            (fun a b ->
              match compare a.arrival b.arrival with
              | 0 -> compare a.departure b.departure
              | c -> c)
            events
        in
        match events with
        | [] -> None
        | first :: _ when not (Float.equal first.arrival 0.0) ->
            record ~task Missing_initial
              (Printf.sprintf "first event arrives at %g, not 0" first.arrival);
            incr tasks_dropped;
            None
        | first :: rest ->
            let kept = ref [ first ] in
            let prev = ref first in
            let broken = ref false in
            List.iter
              (fun e ->
                if not !broken then begin
                  if Float.abs (e.arrival -. !prev.departure) > chain_tolerance
                  then begin
                    record ~task Broken_chain
                      (Printf.sprintf
                         "arrival %g disagrees with predecessor departure %g; \
                          dropping the task's remaining events"
                         e.arrival !prev.departure);
                    broken := true
                  end
                  else begin
                    kept := e :: !kept;
                    prev := e
                  end
                end)
              rest;
            Some (task, List.rev !kept))
      task_order
  in
  (* Pass 3: route consistency — every surviving task must enter at the
     same (majority) arrival queue and never revisit it, or
     [Event_store.of_trace] would reject the whole trace later. *)
  let entry_counts = Hashtbl.create 8 in
  List.iter
    (fun (_task, events) ->
      let q = (List.hd events).queue in
      Hashtbl.replace entry_counts q
        (1 + Option.value ~default:0 (Hashtbl.find_opt entry_counts q)))
    chains;
  let arrival_queue =
    Hashtbl.fold
      (fun q c best ->
        match best with
        | Some (_, c') when c' >= c -> best
        | _ -> Some (q, c))
      entry_counts None
  in
  let chains =
    match arrival_queue with
    | None -> []
    | Some (q0, _) ->
        List.filter_map
          (fun (task, events) ->
            let entry = List.hd events in
            if entry.queue <> q0 then begin
              record ~task Inconsistent_route
                (Printf.sprintf "task enters at queue %d, not the arrival queue %d"
                   entry.queue q0);
              incr tasks_dropped;
              None
            end
            else begin
              (* truncate at the first revisit of q0 *)
              let kept = ref [ entry ] in
              let ok = ref true in
              List.iter
                (fun e ->
                  if !ok then
                    if e.queue = q0 then begin
                      record ~task Inconsistent_route
                        "task revisits the arrival queue; dropping its remaining \
                         events";
                      ok := false
                    end
                    else kept := e :: !kept)
                (List.tl events);
              Some (task, List.rev !kept)
            end)
          chains
  in
  let events = List.concat_map snd chains in
  let report kept =
    {
      errors = !errors;
      lines_read;
      events_kept = kept;
      (* every non-header data line, or input event, was a candidate record *)
      events_dropped = data_lines - kept;
      tasks_dropped = !tasks_dropped;
    }
  in
  match events with
  | [] -> Error (report 0)
  | events -> (
      try Ok (create ~num_queues events, report (List.length events))
      with Invalid_argument msg ->
        (* The repair passes above should make this unreachable, but a
           residual inconsistency must degrade into a report, not an
           exception — that is the lenient contract. *)
        record Malformed_line ("residual inconsistency: " ^ msg);
        Error (report 0))

let of_csv_lenient ~num_queues text =
  if num_queues <= 0 then invalid_arg "Trace.of_csv_lenient: num_queues must be positive";
  let parse_errors = ref [] in
  let malformed line detail =
    parse_errors :=
      { line = Some line; task_id = None; reason = Malformed_line; detail }
      :: !parse_errors
  in
  let lines = String.split_on_char '\n' text in
  let lines_read = ref 0 in
  let data_lines = ref 0 in
  let parsed = ref [] (* (line number, event), newest first *) in
  let lineno = ref 0 in
  List.iter
    (fun raw ->
      incr lineno;
      let line = String.trim raw in
      if line <> "" then begin
        incr lines_read;
        let is_header =
          !lineno = 1 && String.length line >= 4 && String.sub line 0 4 = "task"
        in
        if not is_header then begin
          incr data_lines;
          match String.split_on_char ',' line with
          | [ task; state; queue; arrival; departure ] -> (
              match
                ( int_of_string_opt (String.trim task),
                  int_of_string_opt (String.trim state),
                  int_of_string_opt (String.trim queue),
                  float_of_string_opt (String.trim arrival),
                  float_of_string_opt (String.trim departure) )
              with
              | Some task, Some state, Some queue, Some arrival, Some departure ->
                  parsed :=
                    (!lineno, { task; state; queue; arrival; departure }) :: !parsed
              | _ -> malformed !lineno "unparseable numeric field")
          | fields ->
              malformed !lineno
                (Printf.sprintf "expected 5 comma-separated fields, got %d"
                   (List.length fields))
        end
      end)
    lines;
  repair ~num_queues ~parse_errors:!parse_errors ~lines_read:!lines_read
    ~data_lines:!data_lines (List.rev !parsed)

let of_events_lenient ~num_queues events =
  if num_queues <= 0 then
    invalid_arg "Trace.of_events_lenient: num_queues must be positive";
  let n = List.length events in
  repair ~num_queues ~parse_errors:[] ~lines_read:n ~data_lines:n
    (List.map (fun e -> (0, e)) events)

let load_lenient ~num_queues path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        Ok (of_csv_lenient ~num_queues text))
  with Sys_error msg -> Error msg

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv t))

let load ~num_queues path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        of_csv ~num_queues text)
  with Sys_error msg -> Error msg

let pp_summary ppf t =
  let lo, hi = span t in
  Format.fprintf ppf "trace: %d tasks, %d events, %d queues, time span [%.3f, %.3f]@."
    t.num_tasks (Array.length t.events) t.num_queues lo hi;
  Format.fprintf ppf "%6s %8s %12s %12s %8s@." "queue" "events" "mean-serv" "mean-wait"
    "util";
  for q = 0 to t.num_queues - 1 do
    let service, waiting = service_and_waiting t q in
    let n = Array.length service in
    if n > 0 then begin
      let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
      Format.fprintf ppf "%6d %8d %12.5f %12.5f %8.3f@." q n (mean service)
        (mean waiting) (utilization t q)
    end
  done
