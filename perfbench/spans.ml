(* In-memory spans around the benchmark's calls into the layers' public
   functions. Off unless a traced run switches them on; when off,
   [record] is one branch and a direct call. Spans nest per thread, and
   a layer's self time is its spans' durations minus the part covered
   by their direct children, so a parent layer is not charged for the
   layers it calls. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  layer : string;
  name : string;
  start : float;
  stop : float;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = ref 0
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 4

let record ~layer name f =
  if not !enabled then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent =
      Mutex.protect lock (fun () ->
          let id = !next_id in
          incr next_id;
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
          Hashtbl.replace stacks tid (id :: stack);
          (id, match stack with p :: _ -> p | [] -> -1))
    in
    let start = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        Mutex.protect lock (fun () ->
            (match Hashtbl.find_opt stacks tid with
            | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
            | _ -> ());
            recorded := { id; parent; layer; name; start; stop } :: !recorded))
  end

let spans () = Mutex.protect lock (fun () -> List.rev !recorded)

(* Self time of every span: its duration minus the part of it that its
   direct children cover. Children of one span ran one after another on
   the same thread, so their clipped overlaps add up. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun s ->
      let covered =
        List.fold_left
          (fun acc c ->
            acc +. Float.max 0.0 (Float.min c.stop s.stop -. Float.max c.start s.start))
          0.0
          (Hashtbl.find_all children s.id)
      in
      (s, Float.max 0.0 (s.stop -. s.start -. covered)))
    spans

(* Per layer: (total self seconds, number of calls). *)
let by_layer spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let t, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt tbl s.layer) in
      Hashtbl.replace tbl s.layer (t +. self, n + 1))
    (self_times spans);
  fun layer -> Option.value ~default:(0.0, 0) (Hashtbl.find_opt tbl layer)

let write_jsonl path spans =
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"layer\":\"%s\",\"name\":\"%s\",\"start\":%.6f,\"dur_s\":%.9f,\"self_s\":%.9f}\n"
        s.id s.parent s.layer s.name s.start (s.stop -. s.start) self)
    (self_times spans);
  close_out oc
