(* Just enough HTTP/1.1 for a loopback client: one request per
   connection, the daemon answers with Content-Length and closes. *)

type reply = { code : int; body : string }

let request ~port ~meth ~path ?(body = "") () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/jsonl\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
          meth path (String.length body) body
      in
      let n = String.length req in
      let sent = ref 0 in
      while !sent < n do
        sent := !sent + Unix.write_substring sock req !sent (n - !sent)
      done;
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 8192 in
      let rec drain () =
        let k = Unix.read sock chunk 0 (Bytes.length chunk) in
        if k > 0 then begin
          Buffer.add_subbytes buf chunk 0 k;
          drain ()
        end
      in
      drain ();
      let raw = Buffer.contents buf in
      let code =
        match String.split_on_char ' ' raw with
        | _ :: c :: _ -> Option.value ~default:0 (int_of_string_opt c)
        | _ -> 0
      in
      let body =
        let rec find i =
          if i + 3 >= String.length raw then String.length raw
          else if String.sub raw i 4 = "\r\n\r\n" then i + 4
          else find (i + 1)
        in
        let k = find 0 in
        String.sub raw k (String.length raw - k)
      in
      { code; body })

(* [Error msg] on a transport failure (refused, reset, ...). *)
let call ~port ~meth ~path ?body () =
  match request ~port ~meth ~path ?body () with
  | r -> Ok r
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
