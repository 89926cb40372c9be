(* The byte-level frame codec the shard workers speak. A frame is a
   4-byte big-endian length followed by the payload; the 1 GiB guard
   bounds the damage a corrupt header can do — the reader fails the
   peer instead of trying to allocate gigabytes. A Workerpool's slots
   and the worker loop on the far side both speak exactly this
   format. *)

let max_frame_bytes = 1 lsl 30

let frame_header_bytes = 4

(* Callers hand us non-blocking fds, so a peer that stopped reading
   surfaces as EAGAIN: wait in select until the fd drains — until the
   optional absolute deadline, or for as long as it takes without one —
   instead of spinning on the write. *)
let rec write_all ?deadline fd buf off len =
  if len > 0 then
    match Unix.write fd buf off len with
    | n -> write_all ?deadline fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      write_all ?deadline fd buf off len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      let wait =
        match deadline with None -> -1.0 | Some d -> d -. Unix.gettimeofday ()
      in
      if deadline <> None && wait <= 0.0 then
        raise (Unix.Unix_error (Unix.ETIMEDOUT, "write", ""));
      (try ignore (Unix.select [] [ fd ] [] wait)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      write_all ?deadline fd buf off len

let write_frame ?deadline fd payload =
  let len = Bytes.length payload in
  if len > max_frame_bytes then invalid_arg "Transport.write_frame: frame too large";
  let hdr = Bytes.create frame_header_bytes in
  Bytes.set_int32_be hdr 0 (Int32.of_int len);
  write_all ?deadline fd hdr 0 frame_header_bytes;
  write_all ?deadline fd payload 0 len

(* [`Eof] covers every way the stream can end badly — closed pipe,
   reset connection, read error — because they all mean the same thing
   to the caller: the peer is gone. *)
let read_exact ?deadline fd buf off len =
  let pos = ref off and left = ref len in
  let rec loop () =
    if !left = 0 then `Ok
    else begin
      let wait =
        match deadline with None -> -1.0 | Some d -> d -. Unix.gettimeofday ()
      in
      if deadline <> None && wait <= 0.0 then `Timeout
      else
        match Unix.select [ fd ] [] [] wait with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | [], _, _ -> loop () (* deadline re-checked at the top *)
        | _ ->
          (match Unix.read fd buf !pos !left with
           | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
             loop ()
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
           | exception _ -> `Eof
           | 0 -> `Eof
           | n ->
             pos := !pos + n;
             left := !left - n;
             loop ())
    end
  in
  loop ()

let read_frame ?timeout_s fd =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s in
  let hdr = Bytes.create frame_header_bytes in
  match read_exact ?deadline fd hdr 0 frame_header_bytes with
  | `Eof | `Timeout -> None
  | `Ok ->
    let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if len < 0 || len > max_frame_bytes then None
    else begin
      let payload = Bytes.create len in
      match read_exact ?deadline fd payload 0 len with
      | `Ok -> Some payload
      | `Eof | `Timeout -> None
    end
