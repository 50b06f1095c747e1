(* Tests for the serving layer: ingestion hardening, admission
   control, shard checkpoints, the replay load generator, and the
   daemon's HTTP surface (driven in-process through Daemon.handle —
   the same code path the listener uses, without socket flakiness). *)

module Ingest = Qnet_serve.Ingest
module Bounded_queue = Qnet_serve.Bounded_queue
module Router = Qnet_serve.Router
module Admission = Qnet_serve.Admission
module Framed_log = Qnet_serve.Framed_log
module Shard = Qnet_serve.Shard
module Daemon = Qnet_serve.Daemon
module Serve_metrics = Qnet_serve.Serve_metrics
module Replay = Qnet_des.Replay
module Fault = Qnet_runtime.Fault
module Metrics = Qnet_obs.Metrics
module Jsonx = Qnet_obs.Jsonx
module Server = Qnet_webapp.Metrics_server
module Trace = Qnet_trace.Trace
module Rng = Qnet_prob.Rng
module Network = Qnet_des.Network
module Topologies = Qnet_des.Topologies

let tmp_counter = ref 0

let fresh_dir prefix =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let until ?(timeout = 30.0) ?(what = "condition") pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Ingest decoding                                                     *)
(* ------------------------------------------------------------------ *)

let test_decode_json () =
  match
    Ingest.decode_line ~num_queues:3
      "{\"tenant\":\"acme\",\"task\":7,\"state\":2,\"queue\":1,\"arrival\":0.5,\"departure\":0.9,\"extra\":true}"
  with
  | Error m -> Alcotest.failf "valid json rejected: %s" m
  | Ok r ->
      Alcotest.(check string) "tenant" "acme" r.Ingest.tenant;
      Alcotest.(check int) "task" 7 r.Ingest.task;
      Alcotest.(check int) "state" 2 r.Ingest.state;
      Alcotest.(check int) "queue" 1 r.Ingest.queue

let test_decode_json_state_optional () =
  match
    Ingest.decode_line ~num_queues:2
      "{\"tenant\":\"t0\",\"task\":1,\"queue\":0,\"arrival\":0,\"departure\":1}"
  with
  | Error m -> Alcotest.failf "json without state rejected: %s" m
  | Ok r -> Alcotest.(check int) "state defaults to 0" 0 r.Ingest.state

let test_decode_csv () =
  match Ingest.decode_line ~num_queues:3 "acme,3,1,2,0.25,0.75" with
  | Error m -> Alcotest.failf "valid csv rejected: %s" m
  | Ok r ->
      Alcotest.(check string) "tenant" "acme" r.Ingest.tenant;
      Alcotest.(check int) "queue" 2 r.Ingest.queue

let expect_reject name line =
  match Ingest.decode_line ~num_queues:3 line with
  | Ok _ -> Alcotest.failf "%s: expected rejection of %S" name line
  | Error reason ->
      if String.length reason = 0 then
        Alcotest.failf "%s: empty rejection reason" name

let test_decode_rejects () =
  expect_reject "truncated json" "{\"tenant\":\"t0\",\"task\":1,";
  expect_reject "queue out of range" "t0,1,0,9,0.1,0.2";
  expect_reject "nan time" "t0,1,0,1,nan,0.2";
  expect_reject "negative time" "t0,1,0,1,-1.0,0.2";
  expect_reject "departure before arrival" "t0,1,0,1,2.0,1.0";
  expect_reject "bad tenant" "{\"tenant\":\"no spaces\",\"task\":1,\"queue\":0,\"arrival\":0,\"departure\":1}";
  expect_reject "wrong field count" "t0,1,0";
  expect_reject "binary junk" "\x01\x02\x7fgarbage";
  expect_reject "oversized line" (String.make 5000 'x')

let test_json_roundtrip () =
  let r =
    {
      Ingest.tenant = "web-1";
      task = 42;
      state = 3;
      queue = 2;
      arrival = 1.25;
      departure = 2.5;
    }
  in
  match Ingest.decode_line ~num_queues:3 (Ingest.to_json_line r) with
  | Error m -> Alcotest.failf "canonical line rejected: %s" m
  | Ok r' ->
      Alcotest.(check bool) "round-trips" true (r = r')

let test_valid_tenant () =
  Alcotest.(check bool) "simple" true (Ingest.valid_tenant "acme-1.web_2");
  Alcotest.(check bool) "empty" false (Ingest.valid_tenant "");
  Alcotest.(check bool) "spaces" false (Ingest.valid_tenant "a b");
  Alcotest.(check bool) "slash" false (Ingest.valid_tenant "a/b");
  Alcotest.(check bool) "too long" false (Ingest.valid_tenant (String.make 65 'a'))

let test_dead_letter () =
  let dir = fresh_dir "qnet-dl" in
  let path = Filename.concat dir "dead.jsonl" in
  (match Ingest.Dead_letter.open_ ~path with
  | Error m -> Alcotest.failf "cannot open dead letter: %s" m
  | Ok dl ->
      Ingest.Dead_letter.write dl ~line:"garbage" ~reason:"bad json";
      Ingest.Dead_letter.write dl ~line:"more \"quoted\" junk" ~reason:"nan";
      Alcotest.(check int) "count" 2 (Ingest.Dead_letter.count dl);
      Ingest.Dead_letter.close dl;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      Alcotest.(check int) "file lines" 2 (List.length !lines);
      List.iter
        (fun l ->
          match Jsonx.parse_object l with
          | Error m -> Alcotest.failf "unparseable dead-letter line %S: %s" l m
          | Ok fields ->
              if not (List.mem_assoc "reason" fields) then
                Alcotest.fail "dead-letter line missing reason";
              if not (List.mem_assoc "line" fields) then
                Alcotest.fail "dead-letter line missing original line")
        !lines);
  let nul = Ingest.Dead_letter.null () in
  Ingest.Dead_letter.write nul ~line:"x" ~reason:"y";
  Alcotest.(check int) "null sink counts" 1 (Ingest.Dead_letter.count nul)

(* ------------------------------------------------------------------ *)
(* Bounded queue                                                       *)
(* ------------------------------------------------------------------ *)

let test_queue_shed () =
  let q = Bounded_queue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Bounded_queue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Bounded_queue.try_push q 2);
  Alcotest.(check bool) "push 3 shed" false (Bounded_queue.try_push q 3);
  Alcotest.(check int) "length" 2 (Bounded_queue.length q)

let test_queue_fifo_batch () =
  let q = Bounded_queue.create ~capacity:10 in
  List.iter (fun i -> ignore (Bounded_queue.try_push q i : bool)) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int))
    "fifo, capped at max" [ 1; 2; 3 ]
    (Bounded_queue.pop_batch ~max:3 ~timeout:0.1 q);
  Alcotest.(check (list int))
    "remainder" [ 4 ]
    (Bounded_queue.pop_batch ~timeout:0.1 q);
  Alcotest.(check (list int))
    "empty after timeout" []
    (Bounded_queue.pop_batch ~timeout:0.05 q)

let test_queue_push_wait () =
  let q = Bounded_queue.create ~capacity:1 in
  Alcotest.(check bool) "fill" true (Bounded_queue.try_push q 1);
  Alcotest.(check bool)
    "push_wait times out when full" false
    (Bounded_queue.push_wait ~timeout:0.1 q 2);
  let consumer =
    Thread.create
      (fun () ->
        Thread.delay 0.15;
        ignore (Bounded_queue.pop_batch ~timeout:1.0 q : int list))
      ()
  in
  Alcotest.(check bool)
    "push_wait succeeds once drained" true
    (Bounded_queue.push_wait ~timeout:2.0 q 2);
  Thread.join consumer

let test_queue_close () =
  let q = Bounded_queue.create ~capacity:4 in
  ignore (Bounded_queue.try_push q 1 : bool);
  Bounded_queue.close q;
  Alcotest.(check bool) "closed" true (Bounded_queue.is_closed q);
  Alcotest.(check bool) "push after close" false (Bounded_queue.try_push q 2);
  Alcotest.(check (list int))
    "drain after close" [ 1 ]
    (Bounded_queue.pop_batch ~timeout:0.1 q);
  Alcotest.(check (list int))
    "drained+closed returns []" []
    (Bounded_queue.pop_batch ~timeout:0.1 q)

(* Concurrent stress: the shed-vs-block tail semantics under real
   producer/consumer races, with exact accounting — no item may ever
   vanish without being counted. *)

let stress_consumer q delivered =
  Thread.create
    (fun () ->
      let rec go () =
        match Bounded_queue.pop_batch ~timeout:0.2 q with
        | [] -> if not (Bounded_queue.is_closed q) then go ()
        | batch ->
            ignore (Atomic.fetch_and_add delivered (List.length batch) : int);
            go ()
      in
      go ())
    ()

let test_queue_stress_shed_accounting () =
  let q = Bounded_queue.create ~capacity:16 in
  let producers = 4 and per_producer = 500 in
  let shed = Atomic.make 0 and delivered = Atomic.make 0 in
  let consumer = stress_consumer q delivered in
  let ps =
    List.init producers (fun p ->
        Thread.create
          (fun () ->
            for i = 0 to per_producer - 1 do
              if not (Bounded_queue.try_push q ((p * per_producer) + i)) then
                ignore (Atomic.fetch_and_add shed 1 : int)
            done)
          ())
  in
  List.iter Thread.join ps;
  Bounded_queue.close q;
  Thread.join consumer;
  (* whatever the consumer's final timeout raced past is still here *)
  let rest = List.length (Bounded_queue.pop_batch ~timeout:0.1 q) in
  Alcotest.(check int)
    "delivered + shed + residue == produced"
    (producers * per_producer)
    (Atomic.get delivered + Atomic.get shed + rest)

let test_queue_stress_block_lossless () =
  let q = Bounded_queue.create ~capacity:8 in
  let producers = 3 and per_producer = 300 in
  let delivered = Atomic.make 0 in
  let consumer = stress_consumer q delivered in
  let ps =
    List.init producers (fun p ->
        Thread.create
          (fun () ->
            for i = 0 to per_producer - 1 do
              let rec push () =
                if not (Bounded_queue.push_wait ~timeout:5.0 q ((p * per_producer) + i))
                then push ()
              in
              push ()
            done)
          ())
  in
  List.iter Thread.join ps;
  Bounded_queue.close q;
  Thread.join consumer;
  let rest = List.length (Bounded_queue.pop_batch ~timeout:0.1 q) in
  Alcotest.(check int)
    "blocking producers lose nothing"
    (producers * per_producer)
    (Atomic.get delivered + rest)

(* ------------------------------------------------------------------ *)
(* Router                                                              *)
(* ------------------------------------------------------------------ *)

let test_router () =
  List.iter
    (fun tenants ->
      let s = Router.shard_of_tenant ~shards:4 tenants in
      Alcotest.(check int)
        "deterministic" s
        (Router.shard_of_tenant ~shards:4 tenants);
      if s < 0 || s >= 4 then Alcotest.failf "shard %d out of range" s)
    [ "t0"; "t1"; "acme"; "web-frontend"; "a"; "" ];
  (* the stream tenants t0..t7 must not all land on one of two shards *)
  let hits = Array.make 2 0 in
  for i = 0 to 7 do
    let s = Router.shard_of_tenant ~shards:2 (Printf.sprintf "t%d" i) in
    hits.(s) <- hits.(s) + 1
  done;
  Alcotest.(check bool) "both shards used" true (hits.(0) > 0 && hits.(1) > 0)

(* ------------------------------------------------------------------ *)
(* Checkpoint codec + backoff                                          *)
(* ------------------------------------------------------------------ *)

let snapshot () =
  {
    Shard.Ckpt.iterations = 120;
    rounds = 7;
    restarts = 1;
    tenants =
      [
        {
          Shard.Ckpt.tenant = "acme";
          rates = [| 2.0; 1.5; 0.75 |];
          arrival_queue = 0;
          mean_service = [| 0.5; 0.666; 1.333 |];
          iteration = 120;
          round = 7;
          num_events = 240;
        };
        {
          Shard.Ckpt.tenant = "web";
          rates = [| 1.0; 1.0; 1.0 |];
          arrival_queue = 0;
          mean_service = [| 1.0; 1.0; 1.0 |];
          iteration = 100;
          round = 6;
          num_events = 180;
        };
      ];
  }

let test_ckpt_roundtrip () =
  let s = snapshot () in
  match Shard.Ckpt.of_line (Shard.Ckpt.to_line s) with
  | Error m -> Alcotest.failf "round-trip failed: %s" m
  | Ok s' ->
      Alcotest.(check int) "iterations" s.Shard.Ckpt.iterations s'.Shard.Ckpt.iterations;
      Alcotest.(check int) "rounds" s.Shard.Ckpt.rounds s'.Shard.Ckpt.rounds;
      Alcotest.(check int)
        "tenant count" 2
        (List.length s'.Shard.Ckpt.tenants);
      let t = List.hd s'.Shard.Ckpt.tenants in
      Alcotest.(check string) "tenant" "acme" t.Shard.Ckpt.tenant;
      Alcotest.(check (float 1e-12)) "rate" 2.0 t.Shard.Ckpt.rates.(0)

let test_ckpt_rejects () =
  let expect_err name line =
    match Shard.Ckpt.of_line line with
    | Ok _ -> Alcotest.failf "%s: expected rejection" name
    | Error _ -> ()
  in
  expect_err "garbage" "not json at all";
  expect_err "wrong version"
    "{\"version\":99,\"iterations\":1,\"rounds\":1,\"restarts\":0,\"tenants\":[]}";
  expect_err "missing fields" "{\"version\":1}";
  expect_err "bad rates"
    "{\"version\":1,\"iterations\":1,\"rounds\":1,\"restarts\":0,\"tenants\":[{\"tenant\":\"a\",\"rates\":[-1],\"arrival_queue\":0,\"mean_service\":[1],\"iteration\":1,\"round\":1,\"num_events\":1}]}"

let test_backoff () =
  let b = Shard.backoff ~base:0.25 ~max_:4.0 in
  Alcotest.(check (float 1e-12)) "1st" 0.25 (b 1);
  Alcotest.(check (float 1e-12)) "2nd" 0.5 (b 2);
  Alcotest.(check (float 1e-12)) "3rd" 1.0 (b 3);
  Alcotest.(check (float 1e-12)) "4th" 2.0 (b 4);
  Alcotest.(check (float 1e-12)) "5th" 4.0 (b 5);
  Alcotest.(check (float 1e-12)) "capped" 4.0 (b 9)

(* ------------------------------------------------------------------ *)
(* Service fault specs                                                 *)
(* ------------------------------------------------------------------ *)

let test_service_fault_parse () =
  (match Fault.parse_service_fault "0:ingest-stall=1.5@4" with
  | Ok { Fault.shard = 0; after; kind = Fault.Ingest_stall s } ->
      Alcotest.(check (float 1e-12)) "after" 4.0 after;
      Alcotest.(check (float 1e-12)) "stall seconds" 1.5 s
  | Ok _ -> Alcotest.fail "parsed into the wrong fault"
  | Error m -> Alcotest.failf "rejected valid spec: %s" m);
  (match Fault.parse_service_fault "1:crash@6" with
  | Ok { Fault.shard = 1; kind = Fault.Shard_crash; _ } -> ()
  | _ -> Alcotest.fail "crash spec");
  (match Fault.parse_service_fault "0:ckpt-fail@8" with
  | Ok { Fault.kind = Fault.Checkpoint_write_failure; _ } -> ()
  | _ -> Alcotest.fail "ckpt-fail spec");
  (match Fault.parse_service_fault "1:slow@3" with
  | Ok { Fault.kind = Fault.Slow_consumer _; _ } -> ()
  | _ -> Alcotest.fail "slow spec");
  (match Fault.parse_service_fault "0:torn-write@6" with
  | Ok { Fault.kind = Fault.Torn_write; _ } -> ()
  | _ -> Alcotest.fail "torn-write spec");
  (match Fault.parse_service_fault "0:bit-flip@8" with
  | Ok { Fault.kind = Fault.Bit_flip; _ } -> ()
  | _ -> Alcotest.fail "bit-flip spec");
  (match Fault.parse_service_fault "1:overload=50@3" with
  | Ok { Fault.kind = Fault.Overload r; _ } ->
      Alcotest.(check (float 1e-12)) "overload rps" 50.0 r
  | _ -> Alcotest.fail "overload spec");
  List.iter
    (fun bad ->
      match Fault.parse_service_fault bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
      | Error _ -> ())
    [
      ""; "crash@6"; "0:crash"; "x:crash@6"; "0:unknown@6"; "0:crash@-1";
      "0:overload@3"; "0:overload=-5@3"; "0:overload=0@3";
    ]

(* ------------------------------------------------------------------ *)
(* Framed durable log                                                  *)
(* ------------------------------------------------------------------ *)

let test_framed_crc32 () =
  Alcotest.(check int32)
    "standard check value" 0xCBF43926l
    (Framed_log.crc32 "123456789")

let test_framed_parse () =
  let payload = "{\"tenant\":\"acme\",\"task\":1}" in
  (match Framed_log.parse (Framed_log.frame payload) with
  | Ok p -> Alcotest.(check string) "payload round-trips" payload p
  | Error _ -> Alcotest.fail "framed line failed to parse");
  (match Framed_log.parse "plain,csv,line" with
  | Error Framed_log.Not_a_frame -> ()
  | _ -> Alcotest.fail "legacy line must be Not_a_frame");
  (* one flipped payload byte: frame-shaped, fails its CRC *)
  let flipped =
    let b = Bytes.of_string (Framed_log.frame payload) in
    Bytes.set b (Bytes.length b - 1) 'X';
    Bytes.to_string b
  in
  (match Framed_log.parse flipped with
  | Error (Framed_log.Corrupt _) -> ()
  | _ -> Alcotest.fail "bit-flipped frame must be Corrupt");
  (* a length that lies about the payload is also corrupt *)
  match
    Framed_log.parse
      (Printf.sprintf "%08lx %d %s" (Framed_log.crc32 payload)
         (String.length payload + 1)
         payload)
  with
  | Error (Framed_log.Corrupt _) -> ()
  | _ -> Alcotest.fail "length mismatch must be Corrupt"

let test_framed_replay_and_torn_tail () =
  let dir = fresh_dir "qnet-framed" in
  let path = Filename.concat dir "log" in
  let corrupt =
    let b = Bytes.of_string (Framed_log.frame "gamma") in
    Bytes.set b (Bytes.length b - 1) 'X';
    Bytes.to_string b
  in
  let torn =
    let f = Framed_log.frame "delta-with-enough-length-to-tear" in
    String.sub f 0 (String.length f / 2)
  in
  let oc = open_out path in
  output_string oc
    (Framed_log.frame "alpha" ^ "\n" ^ "legacy line" ^ "\n" ^ corrupt ^ "\n"
   ^ Framed_log.frame "beta" ^ "\n" ^ torn);
  close_out oc;
  let payloads = ref [] and corrupts = ref [] in
  (match
     Framed_log.replay_file ~path
       ~on_payload:(fun p -> payloads := p :: !payloads)
       ~on_corrupt:(fun ~line:_ ~reason -> corrupts := reason :: !corrupts)
       ()
   with
  | Error m -> Alcotest.failf "replay failed: %s" m
  | Ok stats ->
      Alcotest.(check int) "frames" 2 stats.Framed_log.frames;
      Alcotest.(check int) "legacy" 1 stats.Framed_log.legacy;
      Alcotest.(check int) "corrupt" 1 stats.Framed_log.corrupt;
      Alcotest.(check int) "quarantine callback" 1 (List.length !corrupts);
      Alcotest.(check bool) "torn tail found" true stats.Framed_log.torn;
      Alcotest.(check (list string))
        "payload order preserved"
        [ "alpha"; "legacy line"; "beta" ]
        (List.rev !payloads));
  (* the torn tail was truncated away: a second replay sees the same
     surviving prefix, bit-identical, and no tear *)
  let again = ref [] in
  match
    Framed_log.replay_file ~path
      ~on_payload:(fun p -> again := p :: !again)
      ~on_corrupt:(fun ~line:_ ~reason:_ -> ())
      ()
  with
  | Error m -> Alcotest.failf "second replay failed: %s" m
  | Ok stats ->
      Alcotest.(check bool) "no torn tail left" false stats.Framed_log.torn;
      Alcotest.(check (list string))
        "surviving prefix identical" (List.rev !payloads) (List.rev !again)

(* ------------------------------------------------------------------ *)
(* Admission controller                                                *)
(* ------------------------------------------------------------------ *)

let admission_test_config =
  { Admission.default_config with Admission.adjust_interval = 0.0; seed = 42 }

let test_admission_aimd () =
  let a = Admission.create admission_test_config in
  Alcotest.(check (float 1e-12))
    "starts fully open" 1.0
    (Admission.rate a ~tenant:"t");
  Admission.observe a ~tenant:"t" ~pressure:0.9 ~now:1.0;
  let after_one = Admission.rate a ~tenant:"t" in
  Alcotest.(check bool)
    "high pressure backs off multiplicatively" true
    (after_one < 1.0);
  for i = 2 to 30 do
    Admission.observe a ~tenant:"t" ~pressure:1.0 ~now:(float_of_int i)
  done;
  Alcotest.(check (float 1e-9))
    "floored at min_rate" admission_test_config.Admission.min_rate
    (Admission.rate a ~tenant:"t");
  (* tenants are independent: the other tenant never moved *)
  Alcotest.(check (float 1e-12))
    "other tenant untouched" 1.0
    (Admission.rate a ~tenant:"other");
  for i = 31 to 300 do
    Admission.observe a ~tenant:"t" ~pressure:0.0 ~now:(float_of_int i)
  done;
  Alcotest.(check (float 1e-9))
    "additive recovery back to 1" 1.0
    (Admission.rate a ~tenant:"t")

let test_admission_coin_and_accounting () =
  let a = Admission.create admission_test_config in
  for _ = 1 to 100 do
    Alcotest.(check bool)
      "full rate always admits" true
      (Admission.admit a ~tenant:"t")
  done;
  for i = 1 to 30 do
    Admission.observe a ~tenant:"t" ~pressure:1.0 ~now:(float_of_int i)
  done;
  let admitted = ref 0 in
  for _ = 1 to 1000 do
    if Admission.admit a ~tenant:"t" then incr admitted
  done;
  (* at the 1% floor, 1000 coins admit ~10; 100 is a 10-sigma bound *)
  Alcotest.(check bool) "floor thins the stream" true (!admitted < 100);
  Admission.note a ~tenant:"t" ~offered:1000 ~admitted:!admitted;
  let snap = Admission.snapshot a ~tenant:"t" in
  Alcotest.(check int) "offered" 1000 snap.Admission.s_offered;
  Alcotest.(check int) "admitted" !admitted snap.Admission.s_admitted;
  Alcotest.(check (float 1e-9))
    "fraction = admitted/offered"
    (float_of_int !admitted /. 1000.0)
    (Admission.admitted_fraction snap);
  Alcotest.(check (float 1e-12))
    "unseen tenant reports 1.0" 1.0
    (Admission.admitted_fraction (Admission.snapshot a ~tenant:"other"))

let test_admission_config_rejected () =
  let d = Admission.default_config in
  List.iter
    (fun (label, cfg) ->
      Alcotest.(check bool)
        label true
        (Result.is_error (Admission.validate cfg)))
    [
      ("min_rate 0", { d with Admission.min_rate = 0.0 });
      ("min_rate > 1", { d with Admission.min_rate = 1.5 });
      ("increase 0", { d with Admission.increase = 0.0 });
      ("decrease 1", { d with Admission.decrease = 1.0 });
      ( "inverted watermarks",
        { d with Admission.high_watermark = 0.2; low_watermark = 0.5 } );
      ("negative interval", { d with Admission.adjust_interval = -1.0 });
    ];
  Alcotest.(check bool)
    "default config valid" true
    (Result.is_ok (Admission.validate d))

(* ------------------------------------------------------------------ *)
(* Replay plans                                                        *)
(* ------------------------------------------------------------------ *)

let small_sim_trace () =
  let rng = Rng.create ~seed:11 () in
  let net =
    Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 5.0; 5.0 ]
  in
  Network.simulate_poisson rng net ~num_tasks:40

let test_replay_plan () =
  let trace = small_sim_trace () in
  let n_events = Array.length trace.Trace.events in
  let items = Replay.plan ~speedup:10.0 ~poison:5 ~tenants:3 trace in
  Alcotest.(check int) "total lines" (n_events + 5) (List.length items);
  Alcotest.(check int)
    "poison lines" 5
    (List.length (List.filter (fun it -> it.Replay.poison) items));
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Replay.at <= b.Replay.at && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by emit offset" true (sorted items);
  List.iter
    (fun it ->
      match Ingest.decode_line ~num_queues:3 it.Replay.line with
      | Ok _ when it.Replay.poison ->
          Alcotest.failf "poison line decodes cleanly: %S" it.Replay.line
      | Error m when not it.Replay.poison ->
          Alcotest.failf "clean line rejected (%s): %S" m it.Replay.line
      | _ -> ())
    items

(* ------------------------------------------------------------------ *)
(* Golden file for the qnet_serve_* metric families                    *)
(* ------------------------------------------------------------------ *)

let test_serve_metrics_golden () =
  let reg = Metrics.create_registry () in
  Serve_metrics.force_register ~registry:reg ();
  let actual = Metrics.to_prometheus reg in
  let golden =
    let ic = open_in "golden_serve_metrics.prom" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if actual <> golden then
    Alcotest.failf
      "qnet_serve_* families drifted from golden_serve_metrics.prom.@\n\
       Actual:@\n%s" actual

(* ------------------------------------------------------------------ *)
(* Daemon end-to-end (in-process, through the route handler)           *)
(* ------------------------------------------------------------------ *)

let get d path = Daemon.handle d { Server.meth = "GET"; path; body = "" }
let post d path body = Daemon.handle d { Server.meth = "POST"; path; body }

let body_field resp key =
  match Jsonx.parse_object resp.Server.body with
  | Error m -> Alcotest.failf "unparseable response body %S: %s" resp.Server.body m
  | Ok fields -> List.assoc_opt key fields

let expect_some name = function
  | Some v -> v
  | None -> Alcotest.failf "%s: handler did not claim the route" name

(* A clean, chain-consistent stream for one tenant: each task enters
   the system (queue 0) and then visits queue 1. *)
let tenant_lines tenant n =
  List.concat_map
    (fun i ->
      let t_in = 0.1 *. float_of_int (i + 1) in
      [
        Printf.sprintf
          "{\"tenant\":\"%s\",\"task\":%d,\"state\":0,\"queue\":0,\"arrival\":0,\"departure\":%.6f}"
          tenant i t_in;
        Printf.sprintf
          "{\"tenant\":\"%s\",\"task\":%d,\"state\":1,\"queue\":1,\"arrival\":%.6f,\"departure\":%.6f}"
          tenant i t_in (t_in +. 0.05);
      ])
    (List.init n (fun i -> i))

let fast_shard_config =
  {
    Shard.default_config with
    Shard.num_queues = 2;
    refit_events = 20;
    refit_interval = 0.2;
    min_tenant_events = 12;
    chains = 1;
    min_chains = 1;
    fit_iterations = 6;
    poll_interval = 0.02;
  }

let daemon_config dir =
  {
    Daemon.default_config with
    Daemon.shards = 2;
    data_dir = dir;
    port = 0;
    dead_letter = Some (Filename.concat dir "dead.jsonl");
    shard = fast_shard_config;
  }

let with_daemon cfg f =
  match Daemon.create cfg with
  | Error m -> Alcotest.failf "daemon failed to start: %s" m
  | Ok d -> Fun.protect ~finally:(fun () -> Daemon.stop d) (fun () -> f d)

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                  *)
(* ------------------------------------------------------------------ *)

let push_tenant_lines s lines =
  List.iter
    (fun line ->
      match Ingest.decode_line ~num_queues:2 line with
      | Ok r ->
          let item =
            { Shard.record = r; trace = None; enqueued_at = Float.nan }
          in
          ignore (Bounded_queue.try_push (Shard.queue s) item : bool)
      | Error m -> Alcotest.failf "bad test line: %s" m)
    lines

let test_shard_ladder_demotes_to_pinned () =
  let dir = fresh_dir "qnet-ladder" in
  (* an impossible fit budget: every refit round blows the deadline, so
     the first round demotes full -> incremental and the second blown
     round in a row pins the shard; hysteresis is disabled by an
     unreachable promote_rounds *)
  let cfg =
    {
      fast_shard_config with
      Shard.fit_deadline = 1e-6;
      refit_interval = 0.1;
      promote_rounds = 1_000_000;
    }
  in
  match Shard.create ~dir:(Filename.concat dir "s0") ~id:0 cfg with
  | Error m -> Alcotest.failf "shard: %s" m
  | Ok s ->
      Fun.protect
        ~finally:(fun () -> Shard.stop s)
        (fun () ->
          Alcotest.(check string)
            "starts at full" "full"
            (Shard.level_label (Shard.level s));
          push_tenant_lines s (tenant_lines "acme" 40);
          until ~what:"demotion to incremental" (fun () ->
              Shard.level_rank (Shard.level s) >= 1);
          (* a second blown round while already demoted pins the shard *)
          push_tenant_lines s (tenant_lines "acme" 40);
          until ~what:"pin after two blown rounds" (fun () ->
              Shard.level s = Shard.Pinned);
          match Shard.degraded_reason s with
          | Some _ -> ()
          | None -> Alcotest.fail "pinned shard must carry a degraded_reason")

let test_shard_breaker_pins () =
  let dir = fresh_dir "qnet-breaker" in
  let cfg =
    {
      fast_shard_config with
      Shard.breaker_restarts = 1;
      breaker_cooldown = 60.0;
      promote_rounds = 1_000_000;
    }
  in
  let faults = [ { Fault.shard = 0; after = 0.1; kind = Fault.Shard_crash } ] in
  match Shard.create ~faults ~dir:(Filename.concat dir "s0") ~id:0 cfg with
  | Error m -> Alcotest.failf "shard: %s" m
  | Ok s ->
      Fun.protect
        ~finally:(fun () -> Shard.stop s)
        (fun () ->
          until ~what:"watchdog restart" (fun () -> Shard.restarts s >= 1);
          until ~what:"breaker pin" (fun () -> Shard.level s = Shard.Pinned);
          match Shard.degraded_reason s with
          | Some _ -> ()
          | None -> Alcotest.fail "breaker pin must carry a degraded_reason")

let test_shard_ladder_config_rejected () =
  let dir = fresh_dir "qnet-ladder-cfg" in
  let expect_invalid name cfg =
    match Shard.create ~dir:(Filename.concat dir name) ~id:0 cfg with
    | Error _ -> ()
    | Ok s ->
        Shard.stop s;
        Alcotest.failf "%s: invalid config accepted" name
  in
  expect_invalid "deadline"
    { fast_shard_config with Shard.fit_deadline = 0.0 };
  expect_invalid "breaker"
    { fast_shard_config with Shard.breaker_restarts = 0 };
  expect_invalid "watermarks"
    { fast_shard_config with Shard.hot_watermark = 0.2; cool_watermark = 0.5 };
  expect_invalid "promote"
    { fast_shard_config with Shard.promote_rounds = 0 };
  expect_invalid "log-bytes"
    { fast_shard_config with Shard.max_log_bytes = 16 }

(* ------------------------------------------------------------------ *)
(* Refits over a replayed event log                                    *)
(* ------------------------------------------------------------------ *)

(* Shard.create replays events.log before its worker starts, so the
   first round fits exactly the logged window with a fixed seed. *)
let write_event_log dir records =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Out_channel.with_open_bin (Filename.concat dir "events.log") (fun oc ->
      List.iter
        (fun r ->
          output_string oc (Framed_log.frame (Ingest.to_json_line r));
          output_char oc '\n')
        records)

let record_of_event tenant (e : Trace.event) =
  {
    Ingest.tenant;
    task = e.Trace.task;
    state = e.Trace.state;
    queue = e.Trace.queue;
    arrival = e.Trace.arrival;
    departure = e.Trace.departure;
  }

let first_live_posterior s tenant =
  let got = ref None in
  until ~what:"first live posterior" (fun () ->
      match Shard.posterior s ~tenant with
      | Some p when not p.Shard.from_checkpoint ->
          got := Some p;
          true
      | _ -> false);
  Option.get !got

(* A simulated tandem stream with the dirt the repair exists for: four
   re-shipped duplicates and one task whose last hop is clock-skewed. *)
let pin_records () =
  let rng = Rng.create ~seed:23 () in
  let net =
    Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 14.0; 12.0 ]
  in
  let trace = Network.simulate_poisson rng net ~num_tasks:200 in
  let events =
    Array.to_list
      (Array.map
         (fun (e : Trace.event) ->
           if e.Trace.task = 7 && e.Trace.queue = 2 then
             { e with Trace.arrival = e.Trace.arrival +. 0.25;
                      departure = e.Trace.departure +. 0.25 }
           else e)
         trace.Trace.events)
  in
  List.map (record_of_event "acme")
    (events @ List.filteri (fun i _ -> i < 4) events)

let pin_config =
  {
    Shard.default_config with
    Shard.num_queues = 3;
    refit_events = 1;
    min_tenant_events = 12;
    chains = 2;
    fit_iterations = 8;
    poll_interval = 0.02;
  }

(* Same seed, same window => the same posterior bits. The constants
   were captured when refits rendered the window to CSV with %.17g and
   re-parsed it with of_csv_lenient; the typed repair must reproduce
   them exactly. 599 events = 200 tasks x 3 hops, less the skewed
   task's last hop (the duplicates are dropped too). *)
let check_pinned_refit ~name ~cfg ~mode ~rates ~mean_service =
  let dir = Filename.concat (fresh_dir name) "s0" in
  write_event_log dir (pin_records ());
  match Shard.create ~dir ~id:0 cfg with
  | Error m -> Alcotest.failf "shard: %s" m
  | Ok s ->
      Fun.protect
        ~finally:(fun () -> Shard.stop s)
        (fun () ->
          let p = first_live_posterior s "acme" in
          let hex = Array.map (Printf.sprintf "%h") in
          Alcotest.(check string)
            "fit mode" mode (Shard.fit_mode_label p.Shard.fit_mode);
          Alcotest.(check int) "round" 1 p.Shard.round;
          Alcotest.(check int) "events kept" 599 p.Shard.num_events;
          Alcotest.(check (array string))
            "rates" rates (hex p.Shard.params.Qnet_core.Params.rates);
          Alcotest.(check (array string))
            "mean service" mean_service (hex p.Shard.mean_service))

let test_shard_full_refit_pinned () =
  check_pinned_refit ~name:"qnet-pin-full" ~cfg:pin_config ~mode:"full"
    ~rates:
      [| "0x1.41ddce6cafdb2p+3"; "0x1.710759fe2c80cp+3"; "0x1.966ade9afb7c5p+3" |]
    ~mean_service:
      [| "0x1.97398deab1303p-4"; "0x1.632e58056f5dcp-4"; "0x1.42817e131436p-4" |]

let test_shard_incremental_refit_pinned () =
  check_pinned_refit ~name:"qnet-pin-inc"
    ~cfg:{ pin_config with Shard.hot_tenant_events = 1 }
    ~mode:"incremental"
    ~rates:
      [| "0x1.50082d18908c6p+3"; "0x1.5fa0ef55ce18ap+3"; "0x1.89180e65a93bp+3" |]
    ~mean_service:
      [| "0x1.860ee3acd4866p-4"; "0x1.74c1c308386aep-4"; "0x1.4d6fd2e6667bbp-4" |]

(* The per-tenant buffer keeps the newest max_tenant_events events: the
   fit sees exactly that window, and compaction leaves exactly it in
   the log. Both counts are even, so the window starts at an entry. *)
let test_shard_buffer_cap () =
  let cap = 40 and extra = 14 in
  let records =
    List.filter_map
      (fun line ->
        match Ingest.decode_line ~num_queues:2 line with
        | Ok r -> Some r
        | Error m -> Alcotest.failf "bad test line: %s" m)
      (tenant_lines "acme" ((cap + extra) / 2))
  in
  let newest = List.filteri (fun i _ -> i >= extra) records in
  let dir = Filename.concat (fresh_dir "qnet-cap") "s0" in
  write_event_log dir records;
  let cfg =
    { fast_shard_config with Shard.max_tenant_events = cap; refit_events = 1 }
  in
  match Shard.create ~dir ~id:0 cfg with
  | Error m -> Alcotest.failf "shard: %s" m
  | Ok s ->
      let p =
        Fun.protect
          ~finally:(fun () -> Shard.stop s)
          (fun () -> first_live_posterior s "acme")
      in
      Alcotest.(check int) "fitted window" cap p.Shard.num_events;
      let logged =
        In_channel.with_open_bin (Filename.concat dir "events.log")
          In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l ->
               match Framed_log.parse l with
               | Ok payload -> payload
               | Error _ -> Alcotest.failf "corrupt frame in compacted log: %S" l)
      in
      Alcotest.(check (list string))
        "compacted log = newest window"
        (List.map Ingest.to_json_line newest)
        logged

let test_daemon_ingest_and_posterior () =
  let dir = fresh_dir "qnet-daemon" in
  with_daemon (daemon_config dir) (fun d ->
      (* batch with two poison lines: accepted wholesale, poison
         quarantined exactly once *)
      let lines = tenant_lines "acme" 20 @ [ "garbage line"; "t0,1,0" ] in
      let resp =
        expect_some "ingest" (post d "/ingest" (String.concat "\n" lines))
      in
      Alcotest.(check string) "accepted" "200 OK" resp.Server.status;
      (match body_field resp "accepted" with
      | Some (Jsonx.Num n) ->
          Alcotest.(check int) "events accepted" 40 (int_of_float n)
      | _ -> Alcotest.fail "missing accepted count");
      (match body_field resp "quarantined" with
      | Some (Jsonx.Num n) ->
          Alcotest.(check int) "poison quarantined" 2 (int_of_float n)
      | _ -> Alcotest.fail "missing quarantined count");
      Alcotest.(check int) "dead letter" 2 (Daemon.dead_letter_count d);
      (* the posterior appears once the shard has fitted *)
      until ~what:"posterior ready" (fun () ->
          match get d "/tenants/acme/posterior.json" with
          | Some r -> (
              String.equal r.Server.status "200 OK"
              &&
              match body_field r "ready" with
              | Some (Jsonx.Bool b) -> b
              | _ -> false)
          | None -> false);
      let post_resp =
        expect_some "posterior" (get d "/tenants/acme/posterior.json")
      in
      (match body_field post_resp "stale" with
      | Some (Jsonx.Bool false) -> ()
      | _ -> Alcotest.fail "fresh posterior must not be stale");
      (match body_field post_resp "rates" with
      | Some (Jsonx.Arr rates) ->
          Alcotest.(check int) "one rate per queue" 2 (List.length rates)
      | _ -> Alcotest.fail "missing rates");
      (* unknown tenants 404, never 500 *)
      let missing =
        expect_some "unknown tenant" (get d "/tenants/nosuch/posterior.json")
      in
      Alcotest.(check string) "404" "404 Not Found" missing.Server.status;
      (* shards.json reports both shards *)
      let shards = expect_some "shards" (get d "/shards.json") in
      (match body_field shards "shards" with
      | Some (Jsonx.Arr l) -> Alcotest.(check int) "two shards" 2 (List.length l)
      | _ -> Alcotest.fail "missing shards array");
      (* unrelated routes fall through to the built-ins *)
      Alcotest.(check bool)
        "metrics falls through" true
        (Daemon.handle d { Server.meth = "GET"; path = "/metrics"; body = "" }
         = None))

let test_daemon_backpressure_batch_atomic () =
  let dir = fresh_dir "qnet-429" in
  let cfg =
    {
      (daemon_config dir) with
      Daemon.shard = { fast_shard_config with Shard.queue_capacity = 8 };
    }
  in
  with_daemon cfg (fun d ->
      let before_dead = Daemon.dead_letter_count d in
      (* a batch bigger than any queue can take — with poison inside *)
      let lines = tenant_lines "acme" 30 @ [ "poison!" ] in
      let resp =
        expect_some "overflow" (post d "/ingest" (String.concat "\n" lines))
      in
      Alcotest.(check string)
        "whole batch rejected" "429 Too Many Requests" resp.Server.status;
      Alcotest.(check bool)
        "Retry-After present" true
        (List.mem_assoc "Retry-After" resp.Server.extra_headers);
      (* batch-atomic: the rejected batch had no side effects at all *)
      Alcotest.(check int)
        "nothing quarantined on reject" before_dead
        (Daemon.dead_letter_count d);
      (* a batch that fits is accepted *)
      let ok =
        expect_some "small batch"
          (post d "/ingest" (String.concat "\n" (tenant_lines "acme" 3)))
      in
      Alcotest.(check string) "accepted" "200 OK" ok.Server.status)

let test_daemon_resume_and_stale () =
  let dir = fresh_dir "qnet-resume" in
  let iterations_before = ref 0 in
  with_daemon (daemon_config dir) (fun d ->
      let _ =
        expect_some "ingest"
          (post d "/ingest" (String.concat "\n" (tenant_lines "acme" 20)))
      in
      until ~what:"first fit" (fun () ->
          match get d "/tenants/acme/posterior.json" with
          | Some r -> (
              match body_field r "ready" with
              | Some (Jsonx.Bool b) -> b
              | _ -> false)
          | None -> false);
      iterations_before :=
        List.fold_left
          (fun acc s -> Stdlib.max acc (Shard.iterations s))
          0 (Daemon.shards d));
  (* restart over the same data dir, with refits effectively disabled
     so the resumed posterior stays checkpoint-sourced *)
  let frozen =
    {
      (daemon_config dir) with
      Daemon.shard =
        {
          fast_shard_config with
          Shard.refit_events = 1_000_000;
          refit_interval = 1e9;
          min_tenant_events = 1_000_000;
          max_tenant_events = 2_000_000;
        };
    }
  in
  with_daemon frozen (fun d ->
      Alcotest.(check bool)
        "a shard resumed" true
        (List.exists Shard.resumed (Daemon.shards d));
      let resumed_iters =
        List.fold_left
          (fun acc s -> Stdlib.max acc (Shard.iterations s))
          0 (Daemon.shards d)
      in
      Alcotest.(check bool)
        "iteration counters monotone across restart" true
        (resumed_iters >= !iterations_before && !iterations_before > 0);
      let resp =
        expect_some "posterior after resume"
          (get d "/tenants/acme/posterior.json")
      in
      Alcotest.(check string) "still served" "200 OK" resp.Server.status;
      match body_field resp "stale" with
      | Some (Jsonx.Bool true) -> ()
      | _ -> Alcotest.fail "checkpoint-sourced posterior must be stale-flagged")

let test_daemon_shard_crash_recovers () =
  let dir = fresh_dir "qnet-crash" in
  let cfg =
    {
      (daemon_config dir) with
      Daemon.faults =
        [ { Fault.shard = 0; after = 0.2; kind = Fault.Shard_crash } ];
    }
  in
  with_daemon cfg (fun d ->
      let shard0 =
        List.find (fun s -> Shard.id s = 0) (Daemon.shards d)
      in
      until ~what:"crash + restart" (fun () -> Shard.restarts shard0 >= 1);
      until ~what:"return to healthy" (fun () ->
          match Shard.status shard0 with Shard.Healthy -> true | _ -> false);
      (* the daemon kept serving throughout *)
      let shards = expect_some "shards" (get d "/shards.json") in
      Alcotest.(check string) "shards 200" "200 OK" shards.Server.status)

(* ------------------------------------------------------------------ *)
(* Profiler routes (GET /profile.json, POST /profile/{start,stop})     *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains name hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: %S not found in %S" name needle hay

(* The profiler is process-global state; the daemon only drives it.
   Each test leaves it stopped so suites stay order-independent. *)
let test_daemon_profile_routes () =
  Qnet_obs.Prof.stop ();
  let dir = fresh_dir "qnet-serve-prof" in
  with_daemon (daemon_config dir) (fun d ->
      let off = expect_some "/profile.json" (get d "/profile.json") in
      Alcotest.(check string) "snapshot 200" "200 OK" off.Server.status;
      check_contains "off by default" off.Server.body "\"running\":false";
      let started =
        expect_some "/profile/start"
          (post d "/profile/start" "{\"sampling_rate\":0.5}")
      in
      Alcotest.(check string) "start 200" "200 OK" started.Server.status;
      check_contains "start reports running" started.Server.body
        "\"running\":true";
      let on = expect_some "/profile.json" (get d "/profile.json") in
      check_contains "snapshot running" on.Server.body "\"running\":true";
      check_contains "snapshot has backend" on.Server.body "\"backend\":\"";
      check_contains "snapshot has rate" on.Server.body "\"sampling_rate\":0.5";
      check_contains "snapshot has pauses" on.Server.body "\"pauses\":{";
      let stopped = expect_some "/profile/stop" (post d "/profile/stop" "") in
      Alcotest.(check string) "stop 200" "200 OK" stopped.Server.status;
      check_contains "stop reports stopped" stopped.Server.body
        "\"running\":false";
      let after = expect_some "/profile.json" (get d "/profile.json") in
      check_contains "data readable after stop" after.Server.body
        "\"running\":false";
      check_contains "backend survives stop" after.Server.body "\"backend\":\"")

let test_daemon_profile_start_rejects () =
  Qnet_obs.Prof.stop ();
  let dir = fresh_dir "qnet-serve-prof-bad" in
  with_daemon (daemon_config dir) (fun d ->
      let bad_json =
        expect_some "/profile/start" (post d "/profile/start" "{nope")
      in
      Alcotest.(check string) "malformed body 400" "400 Bad Request"
        bad_json.Server.status;
      let bad_type =
        expect_some "/profile/start"
          (post d "/profile/start" "{\"sampling_rate\":\"lots\"}")
      in
      Alcotest.(check string) "non-numeric rate 400" "400 Bad Request"
        bad_type.Server.status;
      let bad_rate =
        expect_some "/profile/start"
          (post d "/profile/start" "{\"sampling_rate\":7.0}")
      in
      Alcotest.(check string) "out-of-range rate 400" "400 Bad Request"
        bad_rate.Server.status;
      let snap = expect_some "/profile.json" (get d "/profile.json") in
      check_contains "still not running" snap.Server.body "\"running\":false")

let test_daemon_profile_on_start () =
  Qnet_obs.Prof.stop ();
  let dir = fresh_dir "qnet-serve-prof-boot" in
  let cfg =
    {
      (daemon_config dir) with
      Daemon.profile_on_start = true;
      profile_alloc_rate = 0.02;
    }
  in
  with_daemon cfg (fun d ->
      let snap = expect_some "/profile.json" (get d "/profile.json") in
      check_contains "profiling from boot" snap.Server.body "\"running\":true";
      check_contains "boot rate" snap.Server.body "\"sampling_rate\":0.02");
  (* Daemon.stop must have stopped the session it started. *)
  Alcotest.(check bool) "stopped with the daemon" false (Qnet_obs.Prof.running ())

let () =
  Alcotest.run "qnet_serve"
    [
      ( "ingest",
        [
          Alcotest.test_case "decode json" `Quick test_decode_json;
          Alcotest.test_case "state optional" `Quick test_decode_json_state_optional;
          Alcotest.test_case "decode csv" `Quick test_decode_csv;
          Alcotest.test_case "rejects poison" `Quick test_decode_rejects;
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "tenant keys" `Quick test_valid_tenant;
          Alcotest.test_case "dead letter" `Quick test_dead_letter;
        ] );
      ( "bounded-queue",
        [
          Alcotest.test_case "shed at capacity" `Quick test_queue_shed;
          Alcotest.test_case "fifo batches" `Quick test_queue_fifo_batch;
          Alcotest.test_case "push_wait blocks" `Quick test_queue_push_wait;
          Alcotest.test_case "close semantics" `Quick test_queue_close;
          Alcotest.test_case "stress: shed accounting" `Quick
            test_queue_stress_shed_accounting;
          Alcotest.test_case "stress: block lossless" `Quick
            test_queue_stress_block_lossless;
        ] );
      ( "framed-log",
        [
          Alcotest.test_case "crc32 check value" `Quick test_framed_crc32;
          Alcotest.test_case "parse verdicts" `Quick test_framed_parse;
          Alcotest.test_case "replay + torn tail" `Quick
            test_framed_replay_and_torn_tail;
        ] );
      ( "admission",
        [
          Alcotest.test_case "aimd rate control" `Quick test_admission_aimd;
          Alcotest.test_case "coin + accounting" `Quick
            test_admission_coin_and_accounting;
          Alcotest.test_case "config rejected" `Quick
            test_admission_config_rejected;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "blown deadlines pin" `Quick
            test_shard_ladder_demotes_to_pinned;
          Alcotest.test_case "restart breaker pins" `Quick
            test_shard_breaker_pins;
          Alcotest.test_case "config validation" `Quick
            test_shard_ladder_config_rejected;
        ] );
      ( "refit",
        [
          Alcotest.test_case "full refit posterior pinned" `Quick
            test_shard_full_refit_pinned;
          Alcotest.test_case "incremental refit posterior pinned" `Quick
            test_shard_incremental_refit_pinned;
          Alcotest.test_case "buffer cap keeps newest window" `Quick
            test_shard_buffer_cap;
        ] );
      ( "router",
        [ Alcotest.test_case "stable fnv routing" `Quick test_router ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip" `Quick test_ckpt_roundtrip;
          Alcotest.test_case "rejects corrupt" `Quick test_ckpt_rejects;
          Alcotest.test_case "backoff schedule" `Quick test_backoff;
        ] );
      ( "faults",
        [ Alcotest.test_case "service fault specs" `Quick test_service_fault_parse ] );
      ( "replay",
        [ Alcotest.test_case "plan shape" `Quick test_replay_plan ] );
      ( "metrics",
        [ Alcotest.test_case "golden families" `Quick test_serve_metrics_golden ] );
      ( "daemon",
        [
          Alcotest.test_case "ingest to posterior" `Quick
            test_daemon_ingest_and_posterior;
          Alcotest.test_case "backpressure batch-atomic" `Quick
            test_daemon_backpressure_batch_atomic;
          Alcotest.test_case "resume + stale flag" `Quick
            test_daemon_resume_and_stale;
          Alcotest.test_case "crash recovery" `Quick
            test_daemon_shard_crash_recovers;
        ] );
      ( "profile",
        [
          Alcotest.test_case "start/snapshot/stop round-trip" `Quick
            test_daemon_profile_routes;
          Alcotest.test_case "bad start bodies rejected" `Quick
            test_daemon_profile_start_rejects;
          Alcotest.test_case "profile_on_start config" `Quick
            test_daemon_profile_on_start;
        ] );
    ]
